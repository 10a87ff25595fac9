"""refs: turn a DOI into complete, consistently formatted bibliography entries.

Resolution prefers the ADS bibcode route and falls back to DOI content
negotiation; entries persist under stable global integer IDs and render to
HTML, JSON, BibTeX and plain text.

The public names below are imported on first use (PEP 562), so a command
that renders from the store never loads the network modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bibtex": ("bibtex_to_record", "parse_entries"),
    "errors": (
        "AuthError",
        "BibcodeError",
        "BibcodeFormatError",
        "BibcodeLengthError",
        "BibtexCardinalityError",
        "BibtexParseError",
        "CrossRefConflictError",
        "DuplicateEntryError",
        "FixtureMissingError",
        "InvalidAuthorError",
        "InvalidDoiError",
        "MissingEntryError",
        "NoMatchError",
        "NoMetadataFormatError",
        "RefsError",
        "ResolutionFailedError",
        "ResponseDecodeError",
        "StoreError",
        "TransportError",
        "UnknownDoiError",
        "UnrenderableError",
        "UnusableMetadataError",
        "UpstreamError",
        "UpstreamUnavailableError",
    ),
    "formats": ("RenderedCitation", "RenderFormat"),
    "identifiers": ("Bibcode", "Doi", "parse_bibcode", "parse_doi"),
    "model": (
        "AuthorName",
        "BibRecord",
        "Pages",
        "RefEntry",
        "SourceType",
        "format_pages",
        "make_author",
        "sub_labels",
    ),
    "pipeline": (
        "ResolutionPath",
        "ResolutionReport",
        "resolve_and_store_report",
        "resolve_query_and_store_report",
        "resolve_query_reference",
        "resolve_reference",
    ),
    "render": (
        "escape_html",
        "render_all",
        "render_bibtex",
        "render_html",
        "render_json",
        "render_text",
    ),
    "resolvers": (
        "AdsConfig",
        "Upstream",
        "ads_doc_to_record",
        "csl_to_record",
        "fetch_ads_docs",
        "fetch_bibtex",
        "fetch_csl_json",
    ),
    "store": ("RefStore",),
    "transport": (
        "FixtureTransport",
        "HttpRequest",
        "HttpResponse",
        "LiveTransport",
        "Transport",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
