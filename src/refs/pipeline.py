"""End-to-end flow: DOI in, resolved record plus all four renders out.

The ADS route is preferred; when ADS knows nothing about the DOI, metadata
is content-negotiated at doi.org instead. Either way one renderer produces
the output formats, so both routes yield identical HTML by construction.
"""

from __future__ import annotations

import enum

from .bibtex import bibtex_to_record
from .errors import (
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

    ``bibtex_fetched`` says that the BibTeX render is the text this
    resolution fetched from upstream, which the store keeps as it is.
    """

    __slots__ = (
        "doi", "path_taken", "record", "renders", "bibcode", "warnings", "unverified",
        "bibtex_fetched",
    )
    doi: Doi
    path_taken: ResolutionPath
    record: BibRecord
    renders: dict[RenderFormat, RenderedCitation]
    bibcode: Bibcode | None
    warnings: list[str]
    unverified: bool
    bibtex_fetched: bool

    def __init__(
        self,
        doi: Doi,
        path_taken: ResolutionPath,
        record: BibRecord,
        renders: dict[RenderFormat, RenderedCitation],
        bibcode: Bibcode | None = None,
        warnings: list[str] | None = None,
        unverified: bool = False,
        bibtex_fetched: bool = False,
    ) -> None:
        if (path_taken is ResolutionPath.ADS) != (bibcode is not None):
            raise ValueError("the ads path carries a bibcode and the fallback path does not")
        if set(renders) != set(RenderFormat):
            raise ValueError("a report carries exactly the four render formats")
        self.doi = doi
        self.path_taken = path_taken
        self.record = record
        self.renders = renders
        self.bibcode = bibcode
        self.warnings = [] if warnings is None else warnings
        self.unverified = unverified
        self.bibtex_fetched = bibtex_fetched


def resolve_reference(
    doi: Doi,
    note: str | None = None,
    cfg: AdsConfig | None = None,
    transport: Transport | None = None,
) -> ResolutionReport:
    """Resolve one DOI into a record rendered in all four formats.

    An empty ADS result cleanly selects the fallback; an ADS *error* (a
    failed search or an unusable document) also falls back, with the cause
    kept as a warning. When several bibcodes match, the first by service
    relevance is used, and the report's warnings say so first. When the
    fallback fails too, a ResolutionFailedError aggregates both causes.
    """
    upstream = Upstream(transport, cfg)
    collected: list[str] = []
    ads_cause = "DOI not in ADS (empty DOI search result)"
    docs: list[dict] = []
    try:
        docs = fetch_ads_docs(doi, upstream)
    except RefsError as exc:
        ads_cause = f"ADS DOI search failed: {exc}"
        collected.append(ads_cause)
    if len(docs) > 1:
        collected.append(f"DOI {doi} matches {len(docs)} bibcodes; using {docs[0]['bibcode']}")

    if docs:
        try:
            report = _resolve_via_ads(doi, docs[0], note)
        except RefsError as exc:
            ads_cause = f"ADS document for {docs[0]['bibcode']} is unusable: {exc}"
            collected.append(ads_cause)
        else:
            report.warnings = collected + report.warnings
            return report

    try:
        report = _resolve_via_fallback(doi, note, upstream)
    except RefsError as exc:
        raise ResolutionFailedError(ads_cause, str(exc)) from exc
    report.warnings = collected + report.warnings
    return report


def _resolve_via_ads(doi: Doi, doc: dict, note: str | None) -> ResolutionReport:
    record = ads_doc_to_record(doc, queried_doi=doi)
    extra = []
    if record.doi is not None and record.doi.canonical != doi.canonical:
        extra.append(f"ADS reports DOI {record.doi} for bibcode {record.bibcode}, queried {doi}")
    entry = RefEntry(records=[record], note=note)
    return ResolutionReport(
        doi=doi,
        path_taken=ResolutionPath.ADS,
        record=record,
        renders=render_all(entry),
        bibcode=record.bibcode,
        warnings=extra,
    )


def _resolve_via_fallback(doi: Doi, note: str | None, upstream: Upstream) -> ResolutionReport:
    record = csl_to_record(fetch_csl_json(doi, upstream))
    entry = RefEntry(records=[record], note=note)
    renders = render_all(entry)
    extra = []
    fetched = False
    try:
        renders[RenderFormat.BIBTEX] = RenderedCitation(
            format=RenderFormat.BIBTEX, body=fetch_bibtex(doi, upstream), global_label=""
        )
        fetched = True
    except RefsError as exc:
        extra.append(f"BibTeX fetch failed ({exc}); generated locally from the record")
    return ResolutionReport(
        doi=doi,
        path_taken=ResolutionPath.FALLBACK,
        record=record,
        renders=renders,
        warnings=extra,
        bibtex_fetched=fetched,
    )


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
    record = bibtex_to_record(fetched)
    if record.doi is None:
        raise UnusableMetadataError(f"query result for {freeform!r} carries no DOI")
    entry = RefEntry(records=[record], note=note)
    renders = render_all(entry)
    renders[RenderFormat.BIBTEX] = RenderedCitation(
        format=RenderFormat.BIBTEX, body=fetched, global_label=""
    )
    return ResolutionReport(
        doi=record.doi,
        path_taken=ResolutionPath.FALLBACK,
        record=record,
        renders=renders,
        warnings=[_keyword_match(freeform, matched)],
        unverified=True,
        bibtex_fetched=True,
    )


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
    stored entry and its stored HTML and BibTeX, note included.
    """
    gid = store.find_entry_by_dois([doi])
    if gid is not None:
        try:
            return gid, _stored_report(doi, store, gid)
        except MissingEntryError:
            pass  # deleted by another writer since the lookup: resolve afresh
    report = resolve_reference(doi, note, cfg, transport)
    return store_report(store, report, note), report


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
    gid = store.find_entry_by_dois([matched])
    if gid is not None:
        try:
            report = _stored_report(matched, store, gid)
        except MissingEntryError:
            pass  # deleted by another writer since the lookup: resolve afresh
        else:
            report.warnings.insert(0, _keyword_match(freeform, matched))
            report.unverified = True
            return gid, report
    report = _resolve_match(freeform, matched, note, upstream)
    return store_report(store, report, note), report


def store_report(store: RefStore, report: ResolutionReport, note: str | None) -> int:
    """Persist a report's record, and its BibTeX if fetched.

    A duplicate DOI yields the existing ID plus a warning.
    """
    bibtex = report.renders[RenderFormat.BIBTEX].body if report.bibtex_fetched else None
    try:
        return store.add_entry([report.record], note=note, bibtex=bibtex)
    except DuplicateEntryError as exc:
        report.warnings.append(_already_stored(report.doi, exc.existing_id))
        return exc.existing_id


def _already_stored(doi: Doi, gid: int) -> str:
    return f"DOI {doi} is already stored as entry {gid}"


def _stored_report(doi: Doi, store: RefStore, gid: int) -> ResolutionReport:
    entry = store.get_entry(gid)
    record = next(r for r in entry.records if r.doi == doi)
    return ResolutionReport(
        doi=doi,
        path_taken=ResolutionPath.ADS if record.bibcode else ResolutionPath.FALLBACK,
        record=record,
        renders={fmt: store.get_rendered(gid, fmt) for fmt in RenderFormat},
        bibcode=record.bibcode,
        warnings=[_already_stored(doi, entry.global_id)],
    )
