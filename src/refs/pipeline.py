"""End-to-end flow: DOI in, resolved entry out, to store and render in all four formats.

The ADS route is preferred; when ADS knows nothing about the DOI, metadata
is content-negotiated at doi.org instead. Either way one renderer produces
the output formats, so both routes yield identical HTML by construction.
"""

from __future__ import annotations

import enum
from typing import Callable

from .bibtex import bibtex_to_record
from .errors import (
    MODEL_REFUSALS,
    DuplicateEntryError,
    MissingEntryError,
    RefsError,
    ResolutionFailedError,
    UnusableMetadataError,
)
from .formats import RenderedCitation, RenderFormat
from .identifiers import Bibcode, Doi
from .model import BibRecord, RefEntry
from .render import render_all
from .resolvers import (
    AdsConfig,
    Upstream,
    ads_doc_to_record,
    crossref_top_doi,
    csl_to_record,
    fetch_ads_docs,
    fetch_bibtex,
    fetch_csl_json,
)
from .store import RefStore
from .transport import Transport
from .values import Value


class ResolutionPath(str, enum.Enum):
    ADS = "ads"
    FALLBACK = "fallback"


class ResolutionReport(Value):
    """What one resolution did and produced. ``warnings`` of None means none.

    ``entry`` is the resolved record with the note, which ``store_report``
    gives its global ID; from the store, it is the stored entry. ``bibtex``
    is doi.org's text on the fallback and query routes, the stored text from
    the store, else None. ``renders`` is computed on each read: all four
    formats of ``entry``, with ``bibtex`` in the BibTeX slot when set, so a
    stored report renders what ``RefStore.get_rendered`` returns.
    """

    __slots__ = ("doi", "path_taken", "record", "entry", "bibtex", "warnings", "unverified")
    doi: Doi
    path_taken: ResolutionPath
    record: BibRecord
    entry: RefEntry
    bibtex: str | None
    warnings: list[str]
    unverified: bool

    def __init__(
        self,
        doi: Doi,
        path_taken: ResolutionPath,
        record: BibRecord,
        entry: RefEntry,
        bibtex: str | None = None,
        warnings: list[str] | None = None,
        unverified: bool = False,
    ) -> None:
        self.doi = doi
        self.path_taken = path_taken
        self.record = record
        self.entry = entry
        self.bibtex = bibtex
        self.warnings = [] if warnings is None else warnings
        self.unverified = unverified

    @property
    def renders(self) -> dict[RenderFormat, RenderedCitation]:
        renders = render_all(self.entry)
        if self.bibtex is not None:
            bib = renders[RenderFormat.BIBTEX]
            renders[bib.format] = RenderedCitation(bib.format, self.bibtex, bib.global_label)
        return renders

    @property
    def bibcode(self) -> Bibcode | None:
        return self.record.bibcode if self.path_taken is ResolutionPath.ADS else None


def resolve_reference(
    doi: Doi,
    note: str | None = None,
    cfg: AdsConfig | None = None,
    transport: Transport | None = None,
) -> ResolutionReport:
    """Resolve one DOI into a record and its unstored entry.

    An empty ADS result cleanly selects the fallback; an ADS *error* (a
    failed search or an unusable document) also falls back, with the cause
    kept as a warning. When several bibcodes match, the first by service
    relevance is used, and the report's warnings say so first. When the
    fallback fails too, a ResolutionFailedError aggregates both causes.
    """
    upstream = Upstream(transport, cfg)
    warnings: list[str] = []
    ads_cause = "DOI not in ADS (empty DOI search result)"
    docs: list[dict] = []
    try:
        docs = fetch_ads_docs(doi, upstream)
    except RefsError as exc:
        ads_cause = f"ADS DOI search failed: {exc}"
        warnings.append(ads_cause)
    if len(docs) > 1:
        warnings.append(f"DOI {doi} matches {len(docs)} bibcodes; using {docs[0]['bibcode']}")

    if docs:
        try:
            record = _record("ADS document", ads_doc_to_record, docs[0], doi)
            # Last in the try: an unusable document leaves no mismatch warning.
            if record.doi is not None and record.doi.canonical != doi.canonical:
                warnings.append(
                    f"ADS reports DOI {record.doi} for bibcode {record.bibcode}, queried {doi}")
        except RefsError as exc:
            ads_cause = f"ADS document for {docs[0]['bibcode']} is unusable: {exc}"
            warnings.append(ads_cause)
        else:
            return ResolutionReport(doi, ResolutionPath.ADS, record, RefEntry([record], note),
                                    warnings=warnings)

    try:
        record = _record(f"citation JSON for {doi}", csl_to_record, fetch_csl_json(doi, upstream))
    except RefsError as exc:
        raise ResolutionFailedError(ads_cause, str(exc)) from exc
    bibtex = None
    try:
        bibtex = fetch_bibtex(doi, upstream)
    except RefsError as exc:
        warnings.append(f"BibTeX fetch failed ({exc}); generated locally from the record")
    return ResolutionReport(doi, ResolutionPath.FALLBACK, record, RefEntry([record], note),
                            bibtex, warnings)


def resolve_query_reference(
    freeform: str,
    note: str | None = None,
    cfg: AdsConfig | None = None,
    transport: Transport | None = None,
) -> ResolutionReport:
    """Resolve free text (a title, say) through the keyword search route.

    The top-ranked match's BibTeX is fetched and parsed into the record.
    Reports from this route are always marked unverified: a keyword match
    may belong to a different article.
    """
    upstream = Upstream(transport, cfg)
    matched = crossref_top_doi(freeform, upstream)
    return _resolve_match(freeform, matched, note, upstream)


def _resolve_match(
    freeform: str, matched: Doi, note: str | None, upstream: Upstream
) -> ResolutionReport:
    """The query route's report for the DOI its keyword search matched."""
    fetched = fetch_bibtex(matched, upstream)
    record = _record(f"BibTeX for {matched}", bibtex_to_record, fetched)
    if record.doi is None:
        raise UnusableMetadataError(f"query result for {freeform!r} carries no DOI")
    if not record.authors and not record.title:
        raise UnusableMetadataError(
            f"query result for {freeform!r} carries neither author nor title"
        )
    return ResolutionReport(
        record.doi, ResolutionPath.FALLBACK, record, RefEntry([record], note), fetched,
        [_keyword_match(freeform, matched)], unverified=True,
    )


def _record(source: str, to_record: Callable[..., BibRecord], *upstream_data) -> BibRecord:
    """``to_record(*upstream_data)``; a value the model refuses is UnusableMetadataError."""
    try:
        return to_record(*upstream_data)
    except RefsError:
        raise
    except MODEL_REFUSALS as exc:
        raise UnusableMetadataError(
            f"{source} holds a value the model refuses: {type(exc).__name__}: {exc}") from exc


def _keyword_match(freeform: str, matched: Doi) -> str:
    return (
        f"bibliography for query {freeform!r} resolved by keyword match to {matched}; "
        "it may belong to a different article"
    )


def resolve_and_store_report(
    doi: Doi,
    note: str | None,
    store: RefStore,
    cfg: AdsConfig | None = None,
    transport: Transport | None = None,
) -> tuple[int, ResolutionReport]:
    """Resolve and persist; the new or pre-existing global ID, and the report.

    A duplicate DOI is not an error here: the existing ID is returned with
    a warning on the report, which keeps batch imports idempotent. A DOI
    the store already holds costs no request; its report is built from the
    stored entry and its stored BibTeX, note included.
    """
    if stored := _from_store(doi, store):
        return stored
    report = resolve_reference(doi, note, cfg, transport)
    return store_report(store, report), report


def resolve_query_and_store_report(
    freeform: str,
    note: str | None,
    store: RefStore,
    cfg: AdsConfig | None = None,
    transport: Transport | None = None,
) -> tuple[int, ResolutionReport]:
    """Resolve free text through the keyword search route and persist the match.

    As for ``resolve_and_store_report``, a matched DOI the store already
    holds is answered from the stored entry, so the query costs only its
    search request. That report is still unverified and carries the
    keyword-match warning before the already-stored one.
    """
    upstream = Upstream(transport, cfg)
    matched = crossref_top_doi(freeform, upstream)
    if stored := _from_store(matched, store, (_keyword_match(freeform, matched),), True):
        return stored
    report = _resolve_match(freeform, matched, note, upstream)
    return store_report(store, report), report


def store_report(store: RefStore, report: ResolutionReport) -> int:
    """Persist a report's entry, and its BibTeX if set; the entry then carries its ID.

    A duplicate DOI yields the existing ID plus a warning.
    """
    entry = report.entry
    try:
        entry.global_id = store.add_entry(entry.records, note=entry.note, bibtex=report.bibtex)
    except DuplicateEntryError as exc:
        report.warnings.append(_already_stored(report.doi, exc.existing_id))
        return exc.existing_id
    return entry.global_id


def _already_stored(doi: Doi, gid: int) -> str:
    return f"DOI {doi} is already stored as entry {gid}"


def _from_store(doi: Doi, store: RefStore, warnings: tuple[str, ...] = (),
                unverified: bool = False) -> tuple[int, ResolutionReport] | None:
    """The ID and report of the live entry holding a DOI, read with no request; else None."""
    if (gid := store.find_entry_by_dois([doi])) is None:
        return None
    try:
        entry = store.get_entry(gid)
        bibtex = store.get_rendered(gid, RenderFormat.BIBTEX).body
    except MissingEntryError:
        return None  # deleted by another writer since the lookup: resolve afresh
    record = next(r for r in entry.records if r.doi == doi)
    path = ResolutionPath.ADS if record.bibcode else ResolutionPath.FALLBACK
    return gid, ResolutionReport(doi, path, record, entry, bibtex,
                                 [*warnings, _already_stored(doi, gid)], unverified)
