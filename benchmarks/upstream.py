"""A semantic fake of ADS, doi.org and CrossRef, and a latency-injecting transport.

``FakeUpstream`` answers requests the way the real services do, from a
knowledge base of works rather than from recorded URLs: it parses the ADS
``q``/``fl``/``rows`` parameters (including ``doi:("a" OR "b")`` and
``bibcode:(...)`` OR-queries), requires the ADS bearer token, negotiates
on the ``Accept`` header at doi.org, and answers 401/404/406 where the
real services would. A change in request shape (a different field list, a
batched query) is therefore measured, not refused for a missing fixture.

``LatencyTransport`` puts a fixed sleep in front of every request and
counts requests by kind, bytes received, retries and its own sleep
overshoot, so round trips show up as wall time without any network.
"""

from __future__ import annotations

import html
import json
import re
import time
from collections import Counter
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from refs.transport import HttpRequest, HttpResponse

from workgen import Work

ADS_HOST = "api.adsabs.harvard.edu"
DOI_HOST = "doi.org"
CROSSREF_HOST = "api.crossref.org"
CSL_JSON = "application/vnd.citationstyles.csl+json"
BIBTEX = "application/x-bibtex"
JSON = "application/json"

_FIELD_QUERY = re.compile(r"^\s*(doi|bibcode):(.*?)\s*$", re.S)
_QUOTED = re.compile(r'"([^"]*)"')
_OR_LIST = re.compile(r'^\(\s*"[^"]*"(?:\s+OR\s+"[^"]*")*\s*\)$')
_WORD = re.compile(r"\w+")


class QuerySyntaxError(ValueError):
    """An ADS query outside the grammar the fake understands (ADS answers 400)."""


def parse_ads_query(q: str) -> tuple[str, list[str]]:
    """Split ``doi:"x"``, ``bibcode:"x"`` or ``field:("a" OR "b" ...)``."""
    m = _FIELD_QUERY.match(q)
    if m is None:
        raise QuerySyntaxError(f"unsupported query: {q!r}")
    field, rest = m.group(1), m.group(2)
    if _OR_LIST.match(rest) or (rest.startswith('"') and rest.endswith('"') and rest.count('"') == 2):
        return field, _QUOTED.findall(rest)
    raise QuerySyntaxError(f"unsupported query value: {rest!r}")


def parse_accept(header: str) -> list[str]:
    """Media types from an Accept header, most preferred first, q=0 dropped."""
    ranked = []
    for position, part in enumerate(header.split(",")):
        pieces = [p.strip() for p in part.split(";")]
        media = pieces[0].lower()
        if not media:
            continue
        q = 1.0
        for param in pieces[1:]:
            name, _, value = param.partition("=")
            if name.strip() == "q":
                try:
                    q = float(value)
                except ValueError:
                    q = 0.0
        if q > 0:
            ranked.append((-q, position, media))
    return [media for _, _, media in sorted(ranked)]


def request_kind(request: HttpRequest) -> str:
    """Which upstream call a request is: the unit ``http_requests_per_doi`` counts."""
    parts = urlsplit(request.url)
    if parts.hostname == ADS_HOST:
        if parts.path.endswith("/export/bibtex"):
            return "ads_export"
        q = parse_qs(parts.query).get("q", [""])[0]
        return "ads_search" if q.lstrip().startswith("doi:") else "ads_export"
    if parts.hostname == DOI_HOST:
        return "doi_bibtex" if BIBTEX in request.accept.lower() else "doi_csl"
    if parts.hostname == CROSSREF_HOST:
        return "crossref"
    return "other"


def _json_response(status: int, payload: object) -> HttpResponse:
    return HttpResponse(
        status=status,
        headers={"content-type": JSON},
        body=json.dumps(payload, ensure_ascii=False).encode("utf-8"),
    )


def _text_response(status: int, content_type: str, text: str) -> HttpResponse:
    return HttpResponse(status=status, headers={"content-type": content_type}, body=text.encode("utf-8"))


class FakeUpstream:
    """Knowledge base plus request handlers for the three services."""

    is_live = False

    def __init__(self, token: str):
        self.token = token
        self.ads_bibcodes: dict[str, list[str]] = {}  # doi -> bibcodes, most relevant first
        self.ads_docs: dict[str, dict] = {}  # bibcode -> full search document
        self.ads_bibtex: dict[str, str] = {}  # bibcode -> ADS export entry
        self.negotiation: dict[str, dict[str, tuple[int, str]]] = {}  # doi -> media -> answer
        self.crossref_items: dict[str, dict] = {}  # doi -> works-API item

    # -- knowledge -----------------------------------------------------

    def add_work(self, work: Work, *, in_ads: bool, bibtex: bool) -> None:
        """Register a work at doi.org, and in ADS when ``in_ads``.

        ``bibtex=False`` makes doi.org answer 406 to BibTeX negotiation.
        """
        answers = {CSL_JSON: (200, json.dumps(work_to_csl(work), ensure_ascii=False))}
        if bibtex:
            answers[BIBTEX] = (200, work_to_doi_bibtex(work))
        self.negotiation[work.doi] = answers
        self.crossref_items[work.doi] = {
            "DOI": work.doi,
            "title": [work.title],
            "container-title": [work.journal] if work.journal else [],
        }
        if in_ads:
            if work.bibcode is None:
                raise ValueError(f"{work.doi} has no bibcode to serve from ADS")
            self.ads_bibcodes[work.doi] = [work.bibcode]
            self.ads_docs[work.bibcode] = work_to_ads_doc(work)
        else:
            self.ads_bibcodes[work.doi] = []

    @classmethod
    def from_fixture_dir(cls, path: str | Path, token: str) -> "FakeUpstream":
        """Learn works from recorded archives: facts, not URL replay.

        Recorded answers that describe a work (ADS documents, doi.org
        bodies with status 200 or 406, CrossRef items) enter the knowledge
        base. Recorded faults (5xx, 401, undecodable ADS bodies) are
        properties of one exchange, not of the work, and are left out.
        """
        fake = cls(token)
        for archive in sorted(Path(path).glob("*.json")):
            for entry in json.loads(archive.read_text(encoding="utf-8"))["entries"]:
                fake._learn(entry["request"], entry["response"])
        return fake

    def _learn(self, request: dict, response: dict) -> None:
        parts = urlsplit(request["url"])
        status, body = response["status"], response.get("body", "")
        if parts.hostname == ADS_HOST and status == 200:
            try:
                payload = json.loads(body)
            except ValueError:
                return
            if parts.path.endswith("/export/bibtex"):
                bibcodes = json.loads(request.get("body") or "{}").get("bibcode", [])
                if len(bibcodes) == 1:
                    self.ads_bibtex[bibcodes[0]] = payload["export"]
                return
            try:
                docs = payload["response"]["docs"]
                field, values = parse_ads_query(parse_qs(parts.query)["q"][0])
            except (KeyError, TypeError, QuerySyntaxError):
                return
            for doc in docs:
                self.ads_docs.setdefault(doc["bibcode"], {}).update(doc)
            if field == "doi" and len(values) == 1:
                self.ads_bibcodes[values[0].lower()] = [d["bibcode"] for d in docs]
        elif parts.hostname == DOI_HOST and status in (200, 406):
            doi = unquote(parts.path.lstrip("/")).lower()
            self.negotiation.setdefault(doi, {})[request.get("accept", "").lower()] = (status, body)
        elif parts.hostname == CROSSREF_HOST and status == 200:
            for item in json.loads(body)["message"]["items"]:
                self.crossref_items.setdefault(item["DOI"].lower(), item)

    def expected(self, doi: str) -> dict | None:
        """Path, title, first surname and year a correct resolution yields.

        Read straight from the upstream answers; None when the DOI cannot
        resolve (unregistered, undecodable or contradictory metadata).
        """
        bibcodes = self.ads_bibcodes.get(doi)
        if bibcodes is None:
            return None
        if bibcodes:
            doc = self.ads_docs.get(bibcodes[0], {})
            if not doc.get("title") or not doc.get("author"):
                return None
            return {
                "path": "ads",
                "title": " ".join(html.unescape(_first(doc["title"])).split()),
                "surname": _bibtex_surname(doc["author"][0]),
                "year": int(doc["year"]),
            }
        status, body = self.negotiation.get(doi, {}).get(CSL_JSON, (404, ""))
        if status != 200:
            return None
        try:
            csl = json.loads(body)
        except ValueError:
            return None
        if str(csl.get("DOI", "")).lower() != doi or not csl.get("author"):
            return None
        first = csl["author"][0]
        return {
            "path": "fallback",
            "title": " ".join(html.unescape(_first(csl.get("title"))).split()),
            "surname": first.get("family") or first.get("literal"),
            "year": int(csl["issued"]["date-parts"][0][0]),
        }

    # -- service ------------------------------------------------------

    def execute(self, request: HttpRequest) -> HttpResponse:
        parts = urlsplit(request.url)
        if parts.hostname == ADS_HOST:
            return self._ads(request, parts)
        if parts.hostname == DOI_HOST:
            return self._doi_org(request, parts)
        if parts.hostname == CROSSREF_HOST and parts.path == "/works":
            return self._crossref(parts)
        return _text_response(404, "text/plain", "Not Found")

    def _ads(self, request: HttpRequest, parts) -> HttpResponse:
        auth = next((v for k, v in request.headers.items() if k.lower() == "authorization"), "")
        if not self.token or auth != f"Bearer {self.token}":
            return _json_response(401, {"error": "Unauthorized"})
        if parts.path == "/v1/search/query" and request.method.upper() == "GET":
            return self._ads_search(parts)
        if parts.path == "/v1/export/bibtex" and request.method.upper() == "POST":
            return self._ads_export(request)
        return _json_response(404, {"error": "no such endpoint"})

    def _ads_search(self, parts) -> HttpResponse:
        params = parse_qs(parts.query)
        try:
            field, values = parse_ads_query(params.get("q", [""])[0])
            rows = int(params.get("rows", ["10"])[0])
            start = int(params.get("start", ["0"])[0])
        except (QuerySyntaxError, ValueError) as exc:
            return _json_response(400, {"error": str(exc)})
        fields = [f for f in params.get("fl", ["bibcode"])[0].split(",") if f]
        if field == "doi":
            hits = [b for v in values for b in self.ads_bibcodes.get(v.lower(), [])]
        else:
            hits = [v for v in values if v in self.ads_docs]
        hits = list(dict.fromkeys(hits))
        docs = []
        for bibcode in hits[start:start + rows]:
            doc = self.ads_docs.get(bibcode, {"bibcode": bibcode})
            docs.append({f: doc[f] for f in fields if f in doc})
        return _json_response(200, {
            "responseHeader": {"status": 0, "QTime": 1},
            "response": {"numFound": len(hits), "start": start, "docs": docs},
        })

    def _ads_export(self, request: HttpRequest) -> HttpResponse:
        try:
            bibcodes = json.loads(request.body or b"{}")["bibcode"]
        except (ValueError, KeyError, TypeError):
            return _json_response(400, {"error": "expected a JSON body with a bibcode list"})
        found = [b for b in bibcodes if b in self.ads_docs]
        entries = [self.ads_bibtex.get(b) or ads_doc_to_bibtex(self.ads_docs[b]) for b in found]
        return _json_response(200, {
            "export": "\n\n".join(entries),
            "msg": f"Retrieved {len(found)} abstracts, starting with number 1.",
        })

    def _doi_org(self, request: HttpRequest, parts) -> HttpResponse:
        doi = unquote(parts.path.lstrip("/")).lower()
        answers = self.negotiation.get(doi)
        if answers is None:
            return _text_response(404, "text/plain", "DOI Not Found")
        for media in parse_accept(request.accept):
            if media in answers:
                status, body = answers[media]
                return _text_response(status, media, body)
        return _text_response(406, "text/plain", "No acceptable resource")

    def _crossref(self, parts) -> HttpResponse:
        params = parse_qs(parts.query)
        words = set(_WORD.findall(params.get("query.bibliographic", [""])[0].lower()))
        rows = int(params.get("rows", ["20"])[0])
        scored = []
        for item in self.crossref_items.values():
            title = set(_WORD.findall(" ".join(item.get("title", [])).lower()))
            overlap = len(words & title) / len(words) if words else 0.0
            if overlap >= 0.5:
                scored.append((-overlap, item["DOI"], item))
        scored.sort(key=lambda s: (s[0], s[1]))
        items = [dict(item, score=-score) for score, _, item in scored[:rows]]
        return _json_response(200, {
            "status": "ok",
            "message-type": "work-list",
            "message": {"total-results": len(scored), "items": items},
        })


def _bibtex_surname(name: str) -> str:
    """BibTeX name rule: ``Last, First`` or else the last word of ``First Last``."""
    if "," in name:
        return name.split(",", 1)[0].strip()
    return name.split()[-1]


def _first(value) -> str:
    if isinstance(value, list):
        return str(value[0]) if value else ""
    return "" if value is None else str(value)


def work_to_ads_doc(work: Work) -> dict:
    """An ADS search document as the real API shapes it."""
    doc = {
        "bibcode": work.bibcode,
        "author": [f"{a.surname}, {a.given}" for a in work.authors],
        # ADS escapes ampersands in titles; upper-cases some DOIs.
        "title": [work.title.replace("&", "&amp;")],
        "doi": [work.doi.upper() if work.bibcode and work.bibcode[-1] in "AEIOU" else work.doi],
        "year": str(work.year),
    }
    if work.journal:
        doc["pub"] = work.journal
    if work.volume:
        doc["volume"] = work.volume
    if work.pages:
        doc["page"] = [work.pages]
    return doc


def work_to_csl(work: Work) -> dict:
    csl = {
        "type": work.csl_type,
        "DOI": work.doi,
        "title": work.title,
        "issued": {"date-parts": [[work.year]]},
        "author": [{"given": a.given, "family": a.surname} for a in work.authors],
    }
    if work.journal:
        csl["container-title"] = work.journal
    if work.volume:
        csl["volume"] = work.volume
    if work.pages:
        csl["page"] = work.pages
    if work.publisher:
        csl["publisher"] = work.publisher
    return csl


def work_to_doi_bibtex(work: Work) -> str:
    """BibTeX in doi.org's style: one line, key ``Surname_Year``."""
    key = re.sub(r"\W", "", work.first_surname) + f"_{work.year}"
    fields = [("title", work.title)]
    if work.volume:
        fields.append(("volume", work.volume))
    fields.append(("DOI", work.doi))
    if work.journal:
        fields.append(("journal", work.journal))
    if work.publisher:
        fields.append(("publisher", work.publisher))
    fields.append(("author", " and ".join(f"{a.surname}, {a.given}" for a in work.authors)))
    fields.append(("year", str(work.year)))
    if work.pages:
        fields.append(("pages", work.pages.replace("-", "–")))
    kind = "article" if work.csl_type == "journal-article" else "misc"
    return f"@{kind}{{{key}, " + ", ".join(f"{k}={{{v}}}" for k, v in fields) + "}\n"


def ads_doc_to_bibtex(doc: dict) -> str:
    lines = [f"@ARTICLE{{{doc['bibcode']},"]
    if doc.get("author"):
        lines.append("       author = {" + " and ".join(doc["author"]) + "},")
    if doc.get("title"):
        lines.append('        title = "{' + _first(doc["title"]) + '}",')
    if doc.get("pub"):
        lines.append("      journal = {" + doc["pub"] + "},")
    if doc.get("year"):
        lines.append(f"         year = {doc['year']},")
    if doc.get("doi"):
        lines.append("          doi = {" + _first(doc["doi"]) + "},")
    lines.append("}")
    return "\n".join(lines)


class LatencyTransport:
    """Sleeps ``rtt_ms`` before each request, then hands it to ``inner``.

    Counts requests by kind, bytes received and retries (a request
    identical to the one before it), and accumulates injected wait, sleep
    overshoot and the time the inner (fake) upstream took.
    """

    is_live = False

    def __init__(self, inner, rtt_ms: float):
        self.inner = inner
        self.rtt_s = rtt_ms / 1000.0
        self.requests: Counter[str] = Counter()
        self.bytes_in = 0
        self.retries = 0
        self.wait_s = 0.0
        self.overshoot_s = 0.0
        self.upstream_s = 0.0
        self._last = None

    @property
    def total_requests(self) -> int:
        return sum(self.requests.values())

    def execute(self, request: HttpRequest) -> HttpResponse:
        key = (request.method, request.url, request.accept, request.body)
        if key == self._last:
            self.retries += 1
        self._last = key
        t0 = time.perf_counter()
        time.sleep(self.rtt_s)
        t1 = time.perf_counter()
        response = self.inner.execute(request)
        t2 = time.perf_counter()
        self.wait_s += t1 - t0
        self.overshoot_s += (t1 - t0) - self.rtt_s
        self.upstream_s += t2 - t1
        self.requests[request_kind(request)] += 1
        self.bytes_in += len(response.body)
        return response
