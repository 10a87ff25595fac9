"""End-to-end flow: DOI in, resolved entry out, to store and render in all four formats.

The ADS route is preferred; when ADS knows nothing about the DOI, metadata
is content-negotiated at doi.org instead. Either way one renderer produces
the output formats, so both routes yield identical HTML by construction.
"""

from __future__ import annotations

import enum

from .errors import DuplicateEntryError, RefsError, ResolutionFailedError
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
    is doi.org's text on the fallback path, the stored text from the store,
    else None. ``renders`` is computed on each read: all four formats of
    ``entry``, with ``bibtex`` in the BibTeX slot when set, so a stored
    report renders what ``RefStore.get_rendered`` returns.
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
            renders[RenderFormat.BIBTEX] = RenderedCitation(self.bibtex)
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
    return _resolve(doi, note, Upstream(transport, cfg))


def _resolve(doi: Doi, note: str | None, upstream: Upstream) -> ResolutionReport:
    """``resolve_reference`` through one resolution's Upstream."""
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
            record = ads_doc_to_record(docs[0], doi)
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
        record = csl_to_record(fetch_csl_json(doi, upstream))
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
    """Resolve free text (a title, say): one CrossRef search, then the DOI route.

    The report is ``resolve_reference``'s for the top-ranked match's DOI,
    marked unverified with the keyword-match warning first: a keyword match
    may belong to a different article.
    """
    return _resolve_query(freeform, note, Upstream(transport, cfg))


def _resolve_query(freeform: str, note: str | None, upstream: Upstream) -> ResolutionReport:
    """``resolve_query_reference`` through one resolution's Upstream."""
    return _unverified(freeform, _resolve(crossref_top_doi(freeform, upstream), note, upstream))


def _unverified(freeform: str, report: ResolutionReport) -> ResolutionReport:
    """A DOI route's report for a query's match: unverified, the keyword match warned first."""
    report.warnings.insert(0, f"bibliography for query {freeform!r} resolved by keyword match"
                              f" to {report.doi}; it may belong to a different article")
    report.unverified = True
    return report


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
    stored entry and its stored BibTeX, note included, and needs no transport.
    """
    return _from_store(doi, store) or _stored(store, resolve_reference(doi, note, cfg, transport))


def resolve_query_and_store_report(
    freeform: str,
    note: str | None,
    store: RefStore,
    cfg: AdsConfig | None = None,
    transport: Transport | None = None,
) -> tuple[int, ResolutionReport]:
    """One CrossRef search, then ``resolve_and_store_report`` of the top match's DOI.

    A matched DOI the store already holds costs only the search request.
    The report is marked unverified, with the keyword-match warning first.
    """
    return _add_query(freeform, note, store, Upstream(transport, cfg))


def _add_doi(doi: Doi, note: str | None, store: RefStore,
             upstream: Upstream) -> tuple[int, ResolutionReport]:
    """``resolve_and_store_report`` through one resolution's Upstream."""
    return _from_store(doi, store) or _stored(store, _resolve(doi, note, upstream))


def _add_query(freeform: str, note: str | None, store: RefStore,
               upstream: Upstream) -> tuple[int, ResolutionReport]:
    """``resolve_query_and_store_report`` through one resolution's Upstream."""
    gid, report = _add_doi(crossref_top_doi(freeform, upstream), note, store, upstream)
    return gid, _unverified(freeform, report)


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


def _stored(store: RefStore, report: ResolutionReport) -> tuple[int, ResolutionReport]:
    return store_report(store, report), report


def _already_stored(doi: Doi, gid: int) -> str:
    return f"DOI {doi} is already stored as entry {gid}"


def _from_store(doi: Doi, store: RefStore) -> tuple[int, ResolutionReport] | None:
    """The ID and report of the live entry holding a DOI, read with no request; else None."""
    if (stored := store.get_entry_by_dois([doi])) is None:
        return None
    entry, bibtex = stored
    gid = entry.global_id
    record = next(r for r in entry.records if r.doi == doi)
    path = ResolutionPath.ADS if record.bibcode else ResolutionPath.FALLBACK
    return gid, ResolutionReport(doi, path, record, entry, bibtex, [_already_stored(doi, gid)])
