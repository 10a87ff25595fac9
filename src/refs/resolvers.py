"""Network clients that turn identifiers into BibRecords.

Two routes exist: the ADS path (one DOI search that returns the bibcode
and the structured fields) and the DOI content-negotiation fallback at
doi.org. The fetchers a resolution calls take their subject and an
Upstream, the transport and AdsConfig of that resolution. The transport
is pluggable, so tests replay recorded fixtures instead of hitting the
services.
"""

from __future__ import annotations

import enum
import html
import json
import os
import time
from urllib.parse import quote, urlencode

from .bibtex import _author_from_bibtex, parse_entries, split_page_range
from .errors import (
    AuthError,
    InvalidDoiError,
    MissingEntryError,
    NoMatchError,
    NoMetadataFormatError,
    RefsError,
    ResponseDecodeError,
    UnknownDoiError,
    UnusableMetadataError,
    UpstreamError,
    UpstreamUnavailableError,
    TransportTimeoutError,
)
from .identifiers import Bibcode, Doi, parse_bibcode, parse_doi
from .model import AuthorName, BibRecord, SourceType, make_author
from .transport import HttpRequest, HttpResponse, Transport
from .values import Value

ADS_TOKEN_ENV = "REFS_ADS_TOKEN"
DEFAULT_ADS_BASE_URL = "https://api.adsabs.harvard.edu/v1"
CROSSREF_WORKS_URL = "https://api.crossref.org/works"

CSL_JSON_ACCEPT = "application/vnd.citationstyles.csl+json"
BIBTEX_ACCEPT = "application/x-bibtex"

# Structured fields fetched from ADS to build a BibRecord.
ADS_FIELD_LIST = "author,bibcode,doi,page,pub,title,volume,year"

_CSL_TYPE_MAP = {
    "article-journal": SourceType.ARTICLE,
    "journal-article": SourceType.ARTICLE,
    "book": SourceType.BOOK,
    "monograph": SourceType.BOOK,
    "paper-conference": SourceType.PROCEEDINGS,
    "proceedings-article": SourceType.PROCEEDINGS,
    "thesis": SourceType.THESIS,
    "dissertation": SourceType.THESIS,
    "report": SourceType.REPORT,
}

# Longest Retry-After, in seconds, that a 429 answer is waited out for;
# a longer one fails at once instead of stalling the caller.
MAX_RETRY_AFTER_S = 60

# Module-level so tests can stub the backoff delay away.
_sleep = time.sleep


class ExportFormat(str, enum.Enum):
    BIBTEX = "bibtex"


class AdsConfig(Value):
    """Connection settings for the ADS API, and the retry policy of every request.

    max_retries and backoff_base govern ADS, doi.org and CrossRef alike.
    A backoff_base of 0 retries without waiting at all, a 429's Retry-After
    included: fixture replay answers at once. The token comes from
    configuration or the REFS_ADS_TOKEN environment variable, never from
    command-line arguments, and is sent to ADS only.
    """

    __slots__ = ("base_url", "token", "max_retries", "backoff_base")
    base_url: str
    token: str
    max_retries: int
    backoff_base: float

    def __init__(self, base_url: str = DEFAULT_ADS_BASE_URL, token: str = "",
                 max_retries: int = 3, backoff_base: float = 1.0) -> None:
        self.base_url = base_url
        self.token = token
        self.max_retries = max_retries
        self.backoff_base = backoff_base

    @classmethod
    def from_env(cls, **overrides) -> "AdsConfig":
        token = overrides.pop("token", os.environ.get(ADS_TOKEN_ENV, ""))
        return cls(token=token, **overrides)


def _clean_text(value: str) -> str:
    """Decode HTML entities and collapse whitespace at the ingestion boundary."""
    return " ".join(html.unescape(value).split())


def _objects(value, name: str) -> list[dict]:
    """A decoded JSON value that is a list of objects; else a TypeError naming it."""
    if not (isinstance(value, list) and all(isinstance(item, dict) for item in value)):
        raise TypeError(f"{name} is not a list of objects")
    return value


def _first(obj: dict, field: str) -> str:
    """The text or number ``obj[field]`` holds, bare or first in a list, as text; else "".

    ADS and the CrossRef works API wrap many scalars in one-element lists.
    """
    value = obj.get(field)
    if value is None or value == []:
        return ""
    first = value[0] if isinstance(value, list) else value
    if isinstance(first, bool) or not isinstance(first, (str, int, float)):
        raise ResponseDecodeError(f"{field!r} holds {value!r}, not text or a number")
    return str(first)


class Upstream:
    """One resolution's route to the services: its transport and its AdsConfig.

    A cfg of None reads the environment (AdsConfig.from_env()). Every
    request goes through send, the one retry loop.
    """

    __slots__ = ("transport", "cfg")

    def __init__(self, transport: Transport, cfg: AdsConfig | None = None) -> None:
        if transport is None:
            raise ValueError("a transport is required")
        self.transport = transport
        self.cfg = AdsConfig.from_env() if cfg is None else cfg

    def send(
        self,
        request: HttpRequest,
        service: str,
        about: str = "",
        errors: dict[int, RefsError] | None = None,
    ) -> HttpResponse:
        """Run one upstream request under the retry policy; the 200 response.

        At most cfg.max_retries attempts are made on 5xx, 429 or timeouts,
        with a backoff that doubles from cfg.backoff_base. A 429 (throttled)
        waits its Retry-After instead when that is a whole number of seconds
        (RFC 9110 section 10.2.3), and fails at once, without waiting, when
        that is more than MAX_RETRY_AFTER_S. A backoff_base of 0 waits for
        neither. Exhausted attempts raise
        UpstreamUnavailableError with the last status. Other statuses are never
        retried: one listed in ``errors`` raises that error, any other non-200
        an UpstreamError naming the service (and ``about``, when given).
        """
        cfg = self.cfg
        attempt = 0
        while True:
            attempt += 1
            delay = cfg.backoff_base * 2 ** (attempt - 1)
            try:
                response = self.transport.execute(request)
            except TransportTimeoutError:
                if attempt >= cfg.max_retries:
                    raise UpstreamUnavailableError(
                        f"{request.url} kept timing out after {attempt} attempts"
                    ) from None
                _sleep(delay)
                continue
            if response.status == 429:
                throttled_for = _retry_after(response, delay)
                if throttled_for > MAX_RETRY_AFTER_S:
                    raise UpstreamUnavailableError(
                        f"{request.url} is throttled for {throttled_for:g} s,"
                        f" longer than the {MAX_RETRY_AFTER_S} s allowed",
                        status=429,
                    )
                if cfg.backoff_base:
                    delay = throttled_for
            elif response.status < 500:
                break
            if attempt >= cfg.max_retries:
                raise UpstreamUnavailableError(
                    f"{request.url} answered {response.status} on all {attempt} attempts",
                    status=response.status,
                )
            _sleep(delay)
        if response.status == 200:
            return response
        if errors and response.status in errors:
            raise errors[response.status]
        where = f" for {about}" if about else ""
        raise UpstreamError(f"{service} answered {response.status}{where}", status=response.status)

    def ads(
        self, method: str, url: str, body: bytes | None = None, service: str = "ADS",
        about: str = "",
    ) -> HttpResponse:
        """An ADS request: the token check, the bearer header and the 401 mapping."""
        if getattr(self.transport, "is_live", True) and not self.cfg.token:
            raise AuthError("no ADS token configured; set REFS_ADS_TOKEN or AdsConfig.token")
        headers = {"Authorization": f"Bearer {self.cfg.token}"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        return self.send(
            HttpRequest(method, url, headers=headers, body=body),
            service,
            about,
            errors={401: AuthError("ADS rejected the token", status=401)},
        )

    def negotiate(self, doi: Doi, accept: str) -> HttpResponse:
        """A doi.org content-negotiation request, with 404 and 406 mapped to their errors."""
        request = HttpRequest("GET", doi_negotiation_url(doi), headers={"Accept": accept})
        errors = {
            404: UnknownDoiError(f"DOI {doi} is not registered"),
            406: NoMetadataFormatError(f"no {accept} metadata available for DOI {doi}"),
        }
        return self.send(request, "doi.org", str(doi), errors)


def _retry_after(response: HttpResponse, default: float) -> float:
    """The Retry-After delay in seconds, or default when absent or not delay-seconds."""
    for name, value in response.headers.items():
        if name.lower() == "retry-after":
            value = value.strip()
            if value.isascii() and value.isdigit():
                return float(value)
    return default


def ads_doi_query(doi: Doi) -> str:
    """The ADS ``doi:"..."`` phrase query, with the phrase's ``\\`` and ``"`` escaped.

    A DOI suffix may hold any non-space character, so unescaped it could
    close the phrase and add query terms of its own.
    """
    phrase = doi.canonical.replace("\\", "\\\\").replace('"', '\\"')
    return f'doi:"{phrase}"'


def ads_search_url(cfg: AdsConfig, query: str, fields: str, rows: int) -> str:
    params = urlencode({"q": query, "fl": fields, "rows": str(rows)})
    return f"{cfg.base_url}/search/query?{params}"


def doi_negotiation_url(doi: Doi) -> str:
    return "https://doi.org/" + quote(doi.canonical, safe="/")


def crossref_query_url(text: str, rows: int = 1) -> str:
    params = urlencode({"query.bibliographic": text, "rows": str(rows)})
    return f"{CROSSREF_WORKS_URL}?{params}"


def fetch_ads_docs(doi: Doi, upstream: Upstream) -> list[dict]:
    """The ADS search documents (ADS_FIELD_LIST) for a DOI, in one request.

    Only documents that carry a bibcode are kept, in the service's relevance
    order. An empty list means ADS has no match: that selects the fallback
    path and is not an error.
    """
    url = ads_search_url(upstream.cfg, ads_doi_query(doi), ADS_FIELD_LIST, rows=10)
    response = upstream.ads("GET", url, about=url)
    try:
        docs = _objects(response.json()["response"]["docs"], "docs")
    except (ValueError, KeyError, TypeError) as exc:
        raise ResponseDecodeError(f"malformed ADS response from {url}: {exc}") from exc
    return [d for d in docs if d.get("bibcode")]


def fetch_ads_export(
    bibcodes: list[Bibcode],
    format: ExportFormat,
    cfg: AdsConfig,
    transport: Transport,
) -> list[tuple[Bibcode, str]]:
    """Fetch one ADS BibTeX export string per bibcode, preserving input order."""
    if not bibcodes:
        raise ValueError("bibcode list must be non-empty")
    ExportFormat(format)  # BibTeX is the only format; anything else raises ValueError
    upstream = Upstream(transport, cfg)
    body = json.dumps({"bibcode": [str(b) for b in bibcodes]}).encode("utf-8")
    url = f"{upstream.cfg.base_url}/export/bibtex"
    response = upstream.ads("POST", url, body, service="ADS export")
    try:
        blob = response.json()["export"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ResponseDecodeError(f"malformed ADS export response: {exc}") from exc

    by_key = {entry.key: entry.raw for entry in parse_entries(blob)}
    missing = [str(b) for b in bibcodes if str(b) not in by_key]
    if missing:
        raise MissingEntryError(
            f"ADS export is missing bibcodes: {', '.join(missing)}", missing=missing
        )
    return [(b, by_key[str(b)]) for b in bibcodes]


def ads_doc_to_record(doc: dict, queried_doi: Doi | None = None) -> BibRecord:
    """Map one ADS search document onto the canonical model."""
    # ADS names are JSON text, not BibTeX: any whitespace in them separates words.
    authors = [_author_from_bibtex(" ".join(a.split())) for a in doc.get("author", [])]
    title = _clean_text(_first(doc, "title"))
    if not authors and not title:
        raise UnusableMetadataError("ADS document carries neither author nor title")
    doi = queried_doi
    if doc.get("doi"):
        doi = parse_doi(_first(doc, "doi"))
    year = int(doc["year"]) if doc.get("year") else None
    return BibRecord(
        title=title,
        authors=authors,
        journal=_clean_text(doc["pub"]) if doc.get("pub") else None,
        volume=_first(doc, "volume") or None,
        pages=split_page_range(_first(doc, "page")),
        year=year,
        doi=doi,
        bibcode=parse_bibcode(doc["bibcode"]) if doc.get("bibcode") else None,
    )


def fetch_csl_json(doi: Doi, upstream: Upstream) -> dict:
    """Content-negotiate citation-styles JSON for a DOI at doi.org; the decoded object."""
    response = upstream.negotiate(doi, CSL_JSON_ACCEPT)
    try:
        payload = response.json()
    except ValueError as exc:
        raise ResponseDecodeError(f"citation JSON for {doi} does not parse: {exc}") from exc
    if not isinstance(payload, dict):
        raise ResponseDecodeError(f"citation JSON for {doi} is not an object")
    reported = str(payload.get("DOI", ""))
    if reported.lower() != doi.canonical:
        raise ResponseDecodeError(
            f"citation JSON reports DOI {reported!r}, expected {doi.canonical!r}"
        )
    return payload


def fetch_bibtex(doi: Doi, upstream: Upstream) -> str:
    """Content-negotiate a BibTeX entry for a DOI; the body without surrounding whitespace.

    doi.org ends its entries with a newline; stripped, the text is stored,
    rendered and exported like any other entry.
    """
    response = upstream.negotiate(doi, BIBTEX_ACCEPT)
    try:
        text = response.text().strip()
    except UnicodeDecodeError as exc:
        raise ResponseDecodeError(f"BibTeX for {doi} is not valid UTF-8") from exc
    if not text:
        raise ResponseDecodeError(f"empty BibTeX response for {doi}")
    return text


def crossref_top_doi(freeform: str, upstream: Upstream) -> Doi:
    """The DOI of the top-ranked CrossRef hit for a free-text query."""
    if not freeform or not freeform.strip():
        raise ValueError("query text must be non-empty")
    request = HttpRequest(
        "GET", crossref_query_url(freeform.strip()), headers={"Accept": "application/json"}
    )
    response = upstream.send(request, "CrossRef")
    try:
        items = _objects(response.json()["message"]["items"], "items")
    except (ValueError, KeyError, TypeError) as exc:
        raise ResponseDecodeError(f"malformed CrossRef response: {exc}") from exc
    if not items:
        raise NoMatchError(f"no bibliographic match for query {freeform!r}")
    top = items[0]
    if not top.get("DOI"):
        raise ResponseDecodeError("top CrossRef hit carries no DOI")
    try:
        return parse_doi(str(top["DOI"]))
    except InvalidDoiError as exc:
        raise ResponseDecodeError(f"top CrossRef hit carries an invalid DOI: {exc}") from exc


def _csl_author(item: dict) -> AuthorName:
    if item.get("literal"):
        return AuthorName(given_names=(), surname=_clean_text(item["literal"]))
    return make_author(_clean_text(item.get("given", "")), _clean_text(item.get("family", "")))


def csl_to_record(raw: dict) -> BibRecord:
    """Bridge a citation-styles JSON document onto the canonical model."""
    if not raw.get("DOI"):
        raise UnusableMetadataError("citation JSON carries no DOI")
    authors = [_csl_author(a) for a in raw.get("author", [])]
    title = _clean_text(_first(raw, "title"))
    if not authors and not title:
        raise UnusableMetadataError("citation JSON carries neither author nor title")

    year = None
    issued = raw.get("issued", {})
    date_parts = issued.get("date-parts") if isinstance(issued, dict) else None
    if date_parts and date_parts[0] and date_parts[0][0] is not None:
        year = int(date_parts[0][0])

    source_type = SourceType.ARTICLE
    if raw.get("type"):
        source_type = _CSL_TYPE_MAP.get(str(raw["type"]), SourceType.OTHER)

    journal = _clean_text(_first(raw, "container-title"))
    publisher = _clean_text(_first(raw, "publisher"))
    return BibRecord(
        title=title,
        authors=authors,
        source_type=source_type,
        journal=journal or None,
        volume=_first(raw, "volume") or None,
        number=_first(raw, "issue") or None,
        pages=split_page_range(_first(raw, "page")),
        year=year,
        publisher=publisher or None,
        doi=parse_doi(str(raw["DOI"])),
    )
