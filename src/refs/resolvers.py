"""Network clients that turn identifiers into BibRecords.

Two routes exist: the ADS path (one DOI search that returns the bibcode
and the structured fields) and the DOI content-negotiation fallback at
doi.org. The fetchers a resolution calls take their subject and an
Upstream: the transport, AdsConfig and exchange list of that resolution.
The transport is pluggable, so tests replay recorded fixtures instead of
hitting the services.
"""

from __future__ import annotations

import html
import os
import time
from urllib.parse import quote, urlencode

from .bibtex import _author_from_bibtex, split_page_range
from .errors import (
    AuthError,
    InvalidDoiError,
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
from .identifiers import Doi, parse_bibcode, parse_doi
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


class AdsConfig(Value):
    """Connection settings for the ADS API, and the retry policy of every request.

    max_retries and backoff_base govern ADS, doi.org and CrossRef alike.
    The token comes from configuration or the REFS_ADS_TOKEN environment
    variable, never from command-line arguments, and is sent to ADS only.
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
    def from_env(cls) -> "AdsConfig":
        return cls(token=os.environ.get(ADS_TOKEN_ENV, ""))

    def token_problem(self) -> str | None:
        """Why a live ADS request cannot send the token, or None. It must be set and printable
        ASCII, which an HTTP header can carry; the answer shows no part of it."""
        token = self.token
        if token and token.isascii() and token.isprintable():
            return None
        problem = "holds a character that an HTTP header cannot carry" if token else "is not set"
        return f"the ADS token (${ADS_TOKEN_ENV} or AdsConfig.token) {problem}"


def _clean_text(value: str) -> str:
    """Decode HTML entities and collapse whitespace at the ingestion boundary."""
    return " ".join(html.unescape(value).split())


# The readers of upstream JSON. Every field of an answer is read through one
# of them, so a member of the wrong type is a ResponseDecodeError naming it.
def _answer(response: HttpResponse, what: str, *path: str):
    """The JSON object ``response`` carries, or its member at ``path``, each step an object.

    Anything else raises ResponseDecodeError("<what>: <the problem>"), so ``what``
    leads the message: "malformed ADS response from <url>", say.
    """
    try:
        value = response.json()
    except ValueError as exc:
        raise ResponseDecodeError(f"{what}: {exc}") from exc
    if not isinstance(value, dict):
        raise ResponseDecodeError(f"{what}: the answer is not an object")
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise ResponseDecodeError(f"{what}: {key!r} is missing")
        value = value[key]
    return value


def _list(value, of: type, what: str) -> list:
    """``value`` if it is a list of ``of``: dict for objects, str for text; else refused."""
    if not (isinstance(value, list) and all(isinstance(item, of) for item in value)):
        raise ResponseDecodeError(f"{what} is not a list of {'objects' if of is dict else 'text'}")
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


def _year(value, field: str) -> int | None:
    """A year given as an int or a string of digits; None when absent, null, "" or []."""
    if value in (None, "", []):
        return None
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ResponseDecodeError(f"{field!r} holds {value!r}, not a year")
    return value


class Upstream:
    """One resolution's route to the services: its transport, its AdsConfig and its exchanges.

    A cfg of None reads the environment (AdsConfig.from_env()). Every
    request goes through send, the one retry loop, which appends each
    attempt that got a response to ``exchanges`` as a (request, response)
    pair, in the order sent. A list append is atomic under the GIL, so
    threads that share an Upstream may send at once.
    """

    __slots__ = ("transport", "cfg", "exchanges")

    def __init__(self, transport: Transport, cfg: AdsConfig | None = None) -> None:
        if transport is None:
            raise ValueError("a transport is required")
        self.transport = transport
        self.cfg = AdsConfig.from_env() if cfg is None else cfg
        self.exchanges: list[tuple[HttpRequest, HttpResponse]] = []

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
        that is more than MAX_RETRY_AFTER_S. Only a live transport is waited
        for: a replay answers at once. Exhausted attempts raise
        UpstreamUnavailableError with the last status. Other statuses are never
        retried: one listed in ``errors`` raises that error, any other non-200
        an UpstreamError naming the service (and ``about``, when given).
        """
        cfg = self.cfg
        live = getattr(self.transport, "is_live", True)
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
                if live:
                    _sleep(delay)
                continue
            self.exchanges.append((request, response))
            if response.status == 429:
                throttled_for = _retry_after(response, delay)
                if throttled_for > MAX_RETRY_AFTER_S:
                    raise UpstreamUnavailableError(
                        f"{request.url} is throttled for {throttled_for:g} s,"
                        f" longer than the {MAX_RETRY_AFTER_S} s allowed",
                        status=429,
                    )
                delay = throttled_for
            elif response.status < 500:
                break
            if attempt >= cfg.max_retries:
                raise UpstreamUnavailableError(
                    f"{request.url} answered {response.status} on all {attempt} attempts",
                    status=response.status,
                )
            if live:
                _sleep(delay)
        if response.status == 200:
            return response
        if errors and response.status in errors:
            raise errors[response.status]
        where = f" for {about}" if about else ""
        raise UpstreamError(f"{service} answered {response.status}{where}", status=response.status)

    def ads(self, url: str) -> HttpResponse:
        """An ADS GET of ``url``: the live token rule, the bearer header and the 401 mapping."""
        if getattr(self.transport, "is_live", True) and (problem := self.cfg.token_problem()):
            raise AuthError(problem)
        request = HttpRequest("GET", url, headers={"Authorization": f"Bearer {self.cfg.token}"})
        return self.send(request, "ADS", url,
                         errors={401: AuthError("ADS rejected the token", status=401)})

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


def ads_search_url(cfg: AdsConfig, query: str) -> str:
    params = urlencode({"q": query, "fl": ADS_FIELD_LIST, "rows": "10"})
    return f"{cfg.base_url}/search/query?{params}"


def doi_negotiation_url(doi: Doi) -> str:
    return "https://doi.org/" + quote(doi.canonical, safe="/")


def crossref_query_url(text: str) -> str:
    params = urlencode({"query.bibliographic": text, "rows": "1"})
    return f"{CROSSREF_WORKS_URL}?{params}"


def fetch_ads_docs(doi: Doi, upstream: Upstream) -> list[dict]:
    """The ADS search documents (ADS_FIELD_LIST) for a DOI, in one request.

    Only documents that carry a bibcode are kept, in the service's relevance
    order, each with its bibcode read as text. An empty list means ADS has no
    match: that selects the fallback path and is not an error.
    """
    url = ads_search_url(upstream.cfg, ads_doi_query(doi))
    what = f"malformed ADS response from {url}"
    docs = _list(_answer(upstream.ads(url), what, "response", "docs"), dict,
                 f"{what}: docs")
    return [dict(doc, bibcode=bibcode) for doc in docs if (bibcode := _first(doc, "bibcode"))]


def ads_doc_to_record(doc: dict, queried_doi: Doi | None = None) -> BibRecord:
    """Map one ADS search document onto the canonical model."""
    # ADS names are JSON text, not BibTeX: any whitespace in them separates words.
    names = _list(doc.get("author", []), str, "author")
    authors = [_author_from_bibtex(" ".join(a.split())) for a in names]
    title = _clean_text(_first(doc, "title"))
    if not authors and not title:
        raise UnusableMetadataError("ADS document carries neither author nor title")
    doi, bibcode = _first(doc, "doi"), _first(doc, "bibcode")
    return BibRecord(
        title=title,
        authors=authors,
        journal=_clean_text(_first(doc, "pub")) or None,
        volume=_first(doc, "volume") or None,
        pages=split_page_range(_first(doc, "page")),
        year=_year(doc.get("year"), "year"),
        doi=parse_doi(doi) if doi else queried_doi,
        bibcode=parse_bibcode(bibcode) if bibcode else None,
    )


def fetch_csl_json(doi: Doi, upstream: Upstream) -> dict:
    """Content-negotiate citation-styles JSON for a DOI at doi.org; the decoded object."""
    payload = _answer(upstream.negotiate(doi, CSL_JSON_ACCEPT),
                      f"citation JSON for {doi} does not parse")
    reported = _first(payload, "DOI")
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
    what = "malformed CrossRef response"
    items = _list(_answer(upstream.send(request, "CrossRef"), what, "message", "items"), dict,
                  f"{what}: items")
    if not items:
        raise NoMatchError(f"no bibliographic match for query {freeform!r}")
    top = _first(items[0], "DOI")
    if not top:
        raise ResponseDecodeError("top CrossRef hit carries no DOI")
    try:
        return parse_doi(top)
    except InvalidDoiError as exc:
        raise ResponseDecodeError(f"top CrossRef hit carries an invalid DOI: {exc}") from exc


def _csl_author(item: dict) -> AuthorName:
    if literal := _clean_text(_first(item, "literal")):
        return AuthorName(given_names=(), surname=literal)
    return make_author(_clean_text(_first(item, "given")), _clean_text(_first(item, "family")))


def _csl_year(raw: dict) -> int | None:
    """The first number of the first ``date-parts`` of CSL ``issued``; None when there is none."""
    issued = raw.get("issued") or {}
    if not isinstance(issued, dict):
        raise ResponseDecodeError(f"'issued' holds {issued!r}, not an object")
    parts = issued.get("date-parts")
    if parts and not (isinstance(parts, list) and isinstance(parts[0], list)):
        raise ResponseDecodeError(f"'date-parts' holds {parts!r}, not a list of lists")
    return _year(parts[0][0] if parts and parts[0] else None, "issued")


def csl_to_record(raw: dict) -> BibRecord:
    """Bridge a citation-styles JSON document onto the canonical model."""
    doi = _first(raw, "DOI")
    if not doi:
        raise UnusableMetadataError("citation JSON carries no DOI")
    authors = [_csl_author(a) for a in _list(raw.get("author", []), dict, "author")]
    title = _clean_text(_first(raw, "title"))
    if not authors and not title:
        raise UnusableMetadataError("citation JSON carries neither author nor title")
    kind = _first(raw, "type")
    source_type = _CSL_TYPE_MAP.get(kind, SourceType.OTHER) if kind else SourceType.ARTICLE
    return BibRecord(
        title=title,
        authors=authors,
        source_type=source_type,
        journal=_clean_text(_first(raw, "container-title")) or None,
        volume=_first(raw, "volume") or None,
        number=_first(raw, "issue") or None,
        pages=split_page_range(_first(raw, "page")),
        year=_csl_year(raw),
        publisher=_clean_text(_first(raw, "publisher")) or None,
        doi=parse_doi(doi),
    )
