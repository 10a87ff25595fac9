"""Resolver tests against the recorded fixture corpus."""

from __future__ import annotations

import ast
import inspect
import json
import re
from collections import Counter
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, strategies as st

from refs import (
    AuthError,
    FixtureTransport,
    HttpResponse,
    LiveTransport,
    NoMatchError,
    NoMetadataFormatError,
    RefsError,
    ResponseDecodeError,
    SourceType,
    UnknownDoiError,
    UnusableMetadataError,
    UpstreamError,
    UpstreamUnavailableError,
    bibtex_to_record,
    parse_bibcode,
    parse_doi,
    resolve_query_reference,
    resolve_reference,
)
import refs.pipeline as pipeline_mod
import refs.resolvers as resolvers_mod
from refs.resolvers import (
    ADS_FIELD_LIST,
    MAX_RETRY_AFTER_S,
    AdsConfig,
    Upstream,
    ads_doc_to_record,
    crossref_top_doi,
    csl_to_record,
    fetch_ads_docs,
    fetch_bibtex,
    fetch_csl_json,
)

from conftest import FIXTURE_DIR
from test_cli import NODE_CHANGES, RECORDED_ANSWERS, node_paths, with_node
from test_identifiers import accepted_dois

HITRAN_DOI = parse_doi("10.1016/j.jqsrt.2017.06.038")
HITRAN_BIB = parse_bibcode("2017JQSRT.203....3G")
ASTROPY_DOI = parse_doi("10.1051/0004-6361/201322068")
OVERLAP_DOIS = [
    "10.1016/j.jqsrt.2017.06.038",
    "10.1051/0004-6361/201322068",
    "10.1086/670067",
    "10.1016/j.jms.2016.06.007",
    "10.1093/mnras/stw2949",
    "10.3847/1538-4365/aa8e94",
]

NO_DOCS = HttpResponse(200, body=b'{"response": {"docs": []}}')
HITRAN_BIBCODE_DOC = HttpResponse(
    200, body=b'{"response": {"docs": [{"bibcode": "2017JQSRT.203....3G"}]}}'
)


def throttled(**headers: str) -> HttpResponse:
    return HttpResponse(429, headers=headers, body=b"Too Many Requests")


class ScriptedTransport:
    """Answers each request with the next of a fixed list of responses."""

    is_live = False

    def __init__(self, *responses: HttpResponse):
        self.responses = list(responses)
        self.requests = []

    def execute(self, request):
        self.requests.append(request)
        return self.responses.pop(0)


def read_doi_phrase(query: str) -> str:
    """The unescaped phrase of an ADS ``doi:"..."`` query that holds nothing else."""
    assert query.startswith('doi:"'), query
    chars, i = [], len('doi:"')
    while query[i] != '"':
        if query[i] == "\\":
            i += 1
        chars.append(query[i])
        i += 1
    assert i == len(query) - 1, f"the query goes on after the phrase: {query!r}"
    return "".join(chars)


def sent_query(transport: ScriptedTransport) -> str:
    (query,) = parse_qs(urlsplit(transport.requests[-1].url).query)["q"]
    return query


def bibcodes(docs: list[dict]) -> list[str]:
    return [doc["bibcode"] for doc in docs]


class TestResolveBibcode:
    """The ADS DOI search, fetch_ads_docs: the bibcodes it finds and the errors it raises."""

    def test_known_doi(self, upstream):
        docs = fetch_ads_docs(HITRAN_DOI, upstream)
        assert bibcodes(docs) == [str(HITRAN_BIB)]

    def test_empty_result_is_none(self, upstream):
        assert fetch_ads_docs(parse_doi("10.18434/t4w30f"), upstream) == []

    def test_multiple_matches_warn_and_take_first(self, upstream, transport, ads_config,
                                                  recwarn):
        doi = parse_doi("10.3847/1538-4365/aa8e94")
        docs = fetch_ads_docs(doi, upstream)
        assert bibcodes(docs) == ["2017ApJS..232...12W", "2017arXiv170300000W"]
        report = resolve_reference(doi, cfg=ads_config, transport=transport)
        assert str(report.bibcode) == "2017ApJS..232...12W"
        assert report.warnings == [f"DOI {doi} matches 2 bibcodes; using 2017ApJS..232...12W"]
        assert len(recwarn) == 0

    def test_live_with_empty_token_fails_before_any_request(self):
        with pytest.raises(AuthError):
            fetch_ads_docs(HITRAN_DOI, Upstream(LiveTransport(), AdsConfig(token="")))

    def test_rejected_token(self, upstream):
        with pytest.raises(AuthError):
            fetch_ads_docs(parse_doi("10.5555/authfail"), upstream)

    def test_malformed_body(self, upstream):
        with pytest.raises(ResponseDecodeError):
            fetch_ads_docs(parse_doi("10.5555/badads"), upstream)


class TestRetryPolicy:
    def test_5xx_retries_then_gives_up(self, counting_transport, monkeypatch):
        sleeps = []
        monkeypatch.setattr(resolvers_mod, "_sleep", sleeps.append)
        cfg = AdsConfig(token="", max_retries=3, backoff_base=1.0)
        with pytest.raises(UpstreamUnavailableError):
            fetch_ads_docs(parse_doi("10.5555/flaky"), Upstream(counting_transport, cfg))
        assert len(counting_transport.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_4xx_never_retried(self, counting_transport, ads_config):
        with pytest.raises(AuthError):
            fetch_ads_docs(parse_doi("10.5555/authfail"), Upstream(counting_transport, ads_config))
        assert len(counting_transport.requests) == 1

    def test_404_on_negotiation_not_retried(self, counting_transport):
        with pytest.raises(UnknownDoiError):
            fetch_csl_json(parse_doi("10.1000/unregistered"), Upstream(counting_transport))
        assert len(counting_transport.requests) == 1

    @pytest.fixture()
    def sleeps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(resolvers_mod, "_sleep", sleeps.append)
        return sleeps

    def test_429_waits_out_retry_after(self, sleeps):
        transport = ScriptedTransport(throttled(**{"Retry-After": "7"}), HITRAN_BIBCODE_DOC)
        docs = fetch_ads_docs(HITRAN_DOI, Upstream(transport, AdsConfig(token="")))
        assert bibcodes(docs) == [str(HITRAN_BIB)]
        assert len(transport.requests) == 2
        assert sleeps == [7.0]

    def test_429_without_delay_seconds_backs_off(self, sleeps):
        transport = ScriptedTransport(
            throttled(),
            throttled(**{"retry-after": "Wed, 21 Oct 2026 07:28:00 GMT"}),
            HITRAN_BIBCODE_DOC,
        )
        cfg = AdsConfig(token="", max_retries=3, backoff_base=1.0)
        assert bibcodes(fetch_ads_docs(HITRAN_DOI, Upstream(transport, cfg))) == [str(HITRAN_BIB)]
        assert sleeps == [1.0, 2.0]

    def test_429_longer_than_the_cap_fails_at_once(self, sleeps):
        transport = ScriptedTransport(throttled(**{"Retry-After": str(MAX_RETRY_AFTER_S + 1)}))
        with pytest.raises(UpstreamUnavailableError) as exc_info:
            fetch_ads_docs(HITRAN_DOI, Upstream(transport, AdsConfig(token="")))
        assert exc_info.value.status == 429
        assert len(transport.requests) == 1
        assert sleeps == []

    def test_429_on_every_attempt_gives_up_within_the_budget(self, sleeps):
        transport = ScriptedTransport(*[throttled(**{"Retry-After": "0"})] * 3)
        with pytest.raises(UpstreamUnavailableError) as exc_info:
            fetch_ads_docs(HITRAN_DOI, Upstream(transport, AdsConfig(token="", max_retries=3)))
        assert exc_info.value.status == 429
        assert len(transport.requests) == 3
        assert sleeps == [0.0, 0.0]


def _json_ok(payload: object) -> HttpResponse:
    return HttpResponse(200, body=json.dumps(payload).encode("utf-8"))


# Every kind of upstream request: (fetcher, its subject, a 200 answer it
# accepts, a status that must not be retried, the error that status raises).
# Each is called as fetcher(subject, upstream).
REQUEST_KINDS = [
    pytest.param(fetch_ads_docs, HITRAN_DOI,
                 HITRAN_BIBCODE_DOC, 401, AuthError, id="ads-search"),
    pytest.param(fetch_csl_json, HITRAN_DOI,
                 _json_ok({"DOI": HITRAN_DOI.canonical, "title": "T"}),
                 404, UnknownDoiError, id="doi-csl"),
    pytest.param(fetch_bibtex, HITRAN_DOI,
                 HttpResponse(200, body=b"@article{x, title={T}}"),
                 404, UnknownDoiError, id="doi-bibtex"),
    pytest.param(crossref_top_doi, "HITRAN2016",
                 _json_ok({"message": {"items": [{"DOI": HITRAN_DOI.canonical}]}}),
                 404, UpstreamError, id="crossref"),
]


@pytest.mark.parametrize("fetch, subject, ok, client_status, client_error", REQUEST_KINDS)
class TestOnePolicyForEveryRequest:
    @pytest.fixture()
    def sleeps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(resolvers_mod, "_sleep", sleeps.append)
        return sleeps

    def test_5xx_makes_max_retries_attempts_with_doubling_backoff(
            self, fetch, subject, ok, client_status, client_error, sleeps):
        transport = ScriptedTransport(*[HttpResponse(503)] * 3)
        cfg = AdsConfig(token="", max_retries=3, backoff_base=0.5)
        with pytest.raises(UpstreamUnavailableError) as exc_info:
            fetch(subject, Upstream(transport, cfg))
        assert exc_info.value.status == 503
        assert len(transport.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_client_error_makes_one_attempt(
            self, fetch, subject, ok, client_status, client_error, sleeps):
        transport = ScriptedTransport(HttpResponse(client_status))
        with pytest.raises(client_error):
            fetch(subject, Upstream(transport, AdsConfig(token="")))
        assert len(transport.requests) == 1
        assert sleeps == []

    def test_429_retry_after_is_waited_out(
            self, fetch, subject, ok, client_status, client_error, sleeps):
        transport = ScriptedTransport(throttled(**{"Retry-After": "7"}), ok)
        fetch(subject, Upstream(transport, AdsConfig(token="")))
        assert len(transport.requests) == 2
        assert sleeps == [7.0]


def _functions(module) -> list[tuple[str, ast.FunctionDef]]:
    """Every function of a module, methods included, with its qualified name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), "")
    return found


def test_one_function_sends_every_request():
    """A second copy of the retry loop would be a second caller of ``.execute(``."""
    senders = [
        name
        for name, function in _functions(resolvers_mod)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "execute"
    ]
    assert senders == ["Upstream.send"]


def test_only_the_entry_points_take_cfg_and_transport():
    """Below the public entry points, one Upstream carries the pair."""
    pairs = [
        f"{module.__name__}.{name}"
        for module in (resolvers_mod, pipeline_mod)
        for name, function in _functions(module)
        if {"cfg", "transport"} <= {a.arg for a in function.args.args + function.args.kwonlyargs}
    ]
    assert sorted(pairs) == [
        "refs.pipeline.resolve_and_store_report",
        "refs.pipeline.resolve_query_and_store_report",
        "refs.pipeline.resolve_query_reference",
        "refs.pipeline.resolve_reference",
        "refs.resolvers.Upstream.__init__",
    ]


def test_no_module_imports_warnings():
    """Resolution reports its warnings on the report, never through the process-global
    ``warnings`` state, so concurrent resolutions cannot see each other's."""
    importers = []
    for path in sorted(Path(resolvers_mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "warnings" for module in modules):
                importers.append(path.name)
    assert importers == []


def _names(tree: ast.AST) -> Counter:
    """How often ``tree`` names each identifier, docstrings left out.

    A name, an attribute, an imported name and a whole string all count.
    """
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    named: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            named[node.value] += 1
    return named


def test_every_definition_has_a_caller_or_is_documented():
    """Code that only the tests call is dead weight: delete it, call it, or document it."""
    package = Path(resolvers_mod.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    # refs._EXPORTS names every public name as a string; an export is not a caller.
    named = sum((_names(tree) for stem, tree in trees.items() if stem != "__init__"), Counter())
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {word for span in re.findall(r"`([^`]*)`", readme)
                  for word in re.findall(r"\w+", span)}
    uncalled = []

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and named[name] == _names(child)[name]:
                    uncalled.append(f"{module}.{prefix}{name}")
                visit(module, child, f"{prefix}{name}.")
            else:
                visit(module, child, prefix)

    for module, tree in trees.items():
        visit(module, tree, "")
    assert [q for q in uncalled if q.rpartition(".")[2] not in documented] == []
    # The library API that only README documents; anything else needs a caller.
    assert uncalled == ["bibtex.bibtex_to_record", "identifiers.format_bibcode",
                        "pipeline.ResolutionReport.renders", "pipeline.resolve_query_reference",
                        "store.RefStore.delete_entry", "store.RefStore.list_entries",
                        "store.RefStore.lookup_crossref"]


class TestUpstreamAds:
    """Upstream.ads, the one ADS request: a GET with the bearer header."""

    URL = "https://ads.example/v1/search/query?q=x"

    def test_one_get_with_the_bearer_header_and_no_body(self):
        transport = ScriptedTransport(NO_DOCS)
        assert Upstream(transport, AdsConfig(token="tok")).ads(self.URL) is not None
        (request,) = transport.requests
        assert (request.method, request.url, request.body) == ("GET", self.URL, None)
        assert request.headers == {"Authorization": "Bearer tok"}

    def test_takes_only_the_url(self):
        assert list(inspect.signature(Upstream.ads).parameters) == ["self", "url"]

    def test_401_is_an_auth_error_after_one_attempt(self):
        transport = ScriptedTransport(HttpResponse(401, body=b"Unauthorized"))
        with pytest.raises(AuthError) as exc_info:
            Upstream(transport, AdsConfig(token="tok", backoff_base=0)).ads(self.URL)
        assert exc_info.value.status == 401
        assert len(transport.requests) == 1

    def test_an_unavailable_ads_is_named_by_its_url(self):
        transport = ScriptedTransport(*[HttpResponse(503)] * 2)
        cfg = AdsConfig(token="tok", max_retries=2, backoff_base=0)
        with pytest.raises(UpstreamUnavailableError, match=re.escape(self.URL)):
            Upstream(transport, cfg).ads(self.URL)
        assert len(transport.requests) == 2


class TestAdsDoiQuery:
    def test_quotes_in_a_doi_cannot_add_query_terms(self):
        doi = parse_doi('10.1000/a"OR"doi:10.1086/670067')
        transport = ScriptedTransport(NO_DOCS)
        assert fetch_ads_docs(doi, Upstream(transport, AdsConfig(token=""))) == []
        assert sent_query(transport) == r'doi:"10.1000/a\"or\"doi:10.1086/670067"'

    @given(accepted_dois())
    def test_the_phrase_reads_back_as_the_doi(self, doi):
        transport = ScriptedTransport(NO_DOCS)
        fetch_ads_docs(doi, Upstream(transport, AdsConfig(token="")))
        assert read_doi_phrase(sent_query(transport)) == doi.canonical


class TestFetchCslJson:
    def test_known_doi(self, upstream):
        record = fetch_csl_json(HITRAN_DOI, upstream)
        assert record["container-title"] == (
            "Journal of Quantitative Spectroscopy and Radiative Transfer"
        )

    def test_doi_matched_case_insensitively(self, upstream):
        record = fetch_csl_json(parse_doi("10.3847/1538-4365/aa8e94"), upstream)
        assert record["DOI"] == "10.3847/1538-4365/AA8E94"

    def test_unregistered_doi(self, upstream):
        with pytest.raises(UnknownDoiError):
            fetch_csl_json(parse_doi("10.1000/unregistered"), upstream)

    def test_non_json_body(self, upstream):
        with pytest.raises(ResponseDecodeError):
            fetch_csl_json(parse_doi("10.5555/badjson"), upstream)

    def test_406_means_no_format(self, upstream):
        with pytest.raises(NoMetadataFormatError):
            fetch_csl_json(parse_doi("10.5555/noformat"), upstream)

    def test_mismatched_doi_in_body(self, upstream):
        with pytest.raises(ResponseDecodeError):
            fetch_csl_json(parse_doi("10.5555/mismatch"), upstream)


class TestFetchBibtex:
    def test_contains_the_bibliography_fields(self, upstream):
        raw = fetch_bibtex(HITRAN_DOI, upstream)
        for field in ("title", "author", "journal", "volume", "pages", "year", "publisher"):
            assert f"{field}={{" in raw
        assert "DOI={10.1016/j.jqsrt.2017.06.038}" in raw

    def test_unregistered_doi(self, upstream):
        with pytest.raises(UnknownDoiError):
            fetch_bibtex(parse_doi("10.1000/unregistered"), upstream)

    def test_empty_body_is_decode_error(self, upstream):
        with pytest.raises(ResponseDecodeError):
            fetch_bibtex(parse_doi("10.5555/emptybib"), upstream)


class TestQueryRoute:
    """The query route: the top CrossRef match's DOI route, reported as unverified."""

    def test_title_query_resolves_with_unverified_warning(self, transport, ads_config, recwarn):
        query = "The HITRAN2016 molecular spectroscopic database"
        report = resolve_query_reference(query, cfg=ads_config, transport=transport)
        by_doi = resolve_reference(HITRAN_DOI, cfg=ads_config, transport=transport)
        assert report.renders == by_doi.renders
        assert report.warnings == [
            f"bibliography for query {query!r} resolved by keyword match to {HITRAN_DOI}; "
            "it may belong to a different article"
        ]
        assert len(recwarn) == 0

    def test_empty_query_rejected(self, transport, ads_config):
        with pytest.raises(ValueError):
            resolve_query_reference("   ", cfg=ads_config, transport=transport)

    def test_zero_hits(self, transport, ads_config):
        with pytest.raises(NoMatchError):
            resolve_query_reference("xyzzy plugh no such paper", cfg=ads_config,
                                    transport=transport)


class TestCslToRecord:
    def test_hitran_mapping(self, upstream):
        record = csl_to_record(fetch_csl_json(HITRAN_DOI, upstream))
        assert record.year == 2017
        assert record.journal == "Journal of Quantitative Spectroscopy and Radiative Transfer"
        assert (record.pages.first, record.pages.last) == ("3", "69")
        assert record.volume == "203"
        assert record.doi == HITRAN_DOI
        assert record.doi_url == "https://doi.org/10.1016/j.jqsrt.2017.06.038"

    def test_single_page_without_dash(self):
        record = csl_to_record({"DOI": "10.1000/x", "title": "T", "page": "7"})
        assert (record.pages.first, record.pages.last) == ("7", None)

    def test_missing_author_and_title_rejected(self):
        with pytest.raises(UnusableMetadataError):
            csl_to_record({"DOI": "10.1000/x", "volume": "1"})

    @pytest.mark.parametrize("field, value", [
        ("title", {"a": 1}), ("title", [{"a": 1}]), ("container-title", [["J"]]),
        ("volume", True), ("issue", [None]), ("page", {"first": "1"}), ("publisher", [False]),
    ])
    def test_a_text_field_holding_neither_text_nor_a_number_is_refused(self, field, value):
        with pytest.raises(ResponseDecodeError) as exc_info:
            csl_to_record({"DOI": "10.1000/x", "title": "T", field: value})
        assert str(exc_info.value) == f"{field!r} holds {value!r}, not text or a number"

    def test_text_fields_take_text_or_a_number_bare_or_first_in_a_list(self):
        record = csl_to_record({"DOI": "10.1000/x", "title": ["T", "U"], "volume": 232,
                                "issue": [1.5], "page": [], "container-title": []})
        assert (record.title, record.volume, record.number) == ("T", "232", "1.5")
        assert (record.pages, record.journal) == (None, None)

    @pytest.mark.parametrize("kind, source_type", [
        ("journal-article", SourceType.ARTICLE), (["journal-article"], SourceType.ARTICLE),
        (["book", "x"], SourceType.BOOK), (None, SourceType.ARTICLE), ([], SourceType.ARTICLE),
        ("dataset", SourceType.OTHER),
    ])
    def test_the_type_is_read_as_every_text_field_is(self, kind, source_type):
        # Read as its str(), a list named no known type and was stored as OTHER.
        record = csl_to_record({"DOI": "10.1000/x", "title": "T", "type": kind})
        assert record.source_type is source_type

    def test_entities_decoded_at_ingestion(self, upstream):
        record = csl_to_record(fetch_csl_json(ASTROPY_DOI, upstream))
        assert record.journal == "Astronomy & Astrophysics"

    def test_literal_author_kept_as_consortium(self, upstream):
        record = csl_to_record(fetch_csl_json(ASTROPY_DOI, upstream))
        assert record.authors[0].surname == "Astropy Collaboration"
        assert record.authors[0].given_names == ()


# Each recorded ADS document and citation JSON answer, the function that maps it and
# the paths of its nodes below the root: a root that is not an object never reaches it.
RECORDED_DOCUMENTS = [
    (to_record, doc, node_paths(doc)[1:])
    for (kind, _), _, body, _ in RECORDED_ANSWERS if kind == "--doi"
    for to_record, doc in ([(ads_doc_to_record, d) for d in body["response"]["docs"]]
                           if "response" in body else [(csl_to_record, body)])
]


@st.composite
def changed_documents(draw):
    """A recorded document with one node replaced or deleted, and the function that maps it."""
    to_record, doc, paths = draw(st.sampled_from(RECORDED_DOCUMENTS))
    return to_record, with_node(doc, draw(st.sampled_from(paths)), draw(NODE_CHANGES))


class TestChangedDocuments:
    @given(changed_documents())
    def test_a_changed_node_is_mapped_or_refused_as_a_refs_error(self, changed):
        to_record, doc = changed
        try:
            to_record(doc)
        except RefsError:
            pass


class TestDualPathEquivalence:
    def test_hitran_records_agree_field_by_field(self, upstream):
        from_csl = csl_to_record(fetch_csl_json(HITRAN_DOI, upstream))
        from_bibtex = bibtex_to_record(fetch_bibtex(HITRAN_DOI, upstream))
        assert from_csl == from_bibtex

    @pytest.mark.parametrize("raw_doi", OVERLAP_DOIS)
    def test_overlap_corpus_agrees_on_key_fields(self, raw_doi, upstream):
        doi = parse_doi(raw_doi)
        ads_record = ads_doc_to_record(fetch_ads_docs(doi, upstream)[0],
                                       queried_doi=doi)
        csl_record = csl_to_record(fetch_csl_json(doi, upstream))
        assert ads_record.doi == csl_record.doi
        assert ads_record.year == csl_record.year
        assert ads_record.volume == csl_record.volume
        assert ads_record.pages.first == csl_record.pages.first


ADS_ARCHIVE = json.loads((FIXTURE_DIR / "ads.json").read_text(encoding="utf-8"))["entries"]


def ads_search(entry: dict) -> tuple[str, str]:
    """The (q, fl) parameters of an ADS search exchange; empty for an export."""
    params = parse_qs(urlsplit(entry["request"]["url"]).query)
    return params.get("q", [""])[0], params.get("fl", [""])[0]


def ads_docs_in(body: str) -> list[dict] | None:
    try:
        return json.loads(body)["response"]["docs"]
    except ValueError:
        return None


@pytest.mark.parametrize("synthesized", [e for e in ADS_ARCHIVE if e.get("synthesized")],
                         ids=lambda e: ads_search(e)[0])
def test_synthesized_doi_search_repeats_the_recorded_exchanges(synthesized):
    """A synthesized full-field DOI search answers as the recorded ``fl=bibcode`` one did,
    each doc carrying the fields recorded for its bibcode by a ``bibcode:(...)`` search."""
    query, fields = ads_search(synthesized)
    assert fields == ADS_FIELD_LIST
    (recorded,) = [e for e in ADS_ARCHIVE if ads_search(e) == (query, "bibcode")]
    field_docs = {doc["bibcode"]: doc
                  for e in ADS_ARCHIVE if ads_search(e)[0].startswith("bibcode:(")
                  for doc in ads_docs_in(e["response"]["body"])}
    ours, theirs = synthesized["response"], recorded["response"]
    assert ours["status"] == theirs["status"]
    recorded_docs = ads_docs_in(theirs["body"]) if theirs["status"] == 200 else None
    if recorded_docs is None:
        assert ours["body"] == theirs["body"]
    else:
        want = [field_docs.get(doc["bibcode"], doc) for doc in recorded_docs]
        assert ads_docs_in(ours["body"]) == want


class TestDeterminism:
    def test_resolver_outputs_are_byte_stable_across_runs(self, fixture_dir, ads_config):
        outputs = []
        for _ in range(2):
            transport = FixtureTransport.from_dir(fixture_dir)
            bibtex = fetch_bibtex(HITRAN_DOI, Upstream(transport))
            docs = fetch_ads_docs(HITRAN_DOI, Upstream(transport, ads_config))
            csl = fetch_csl_json(HITRAN_DOI, Upstream(transport))
            outputs.append((bibtex, json.dumps(docs, sort_keys=True),
                            json.dumps(csl, sort_keys=True)))
        assert outputs[0] == outputs[1]


class TestAdsDocToRecord:
    def test_maps_fields(self):
        doc = {
            "bibcode": "2017JQSRT.203....3G",
            "author": ["Gordon, Iouli E."],
            "title": ["The HITRAN2016 molecular spectroscopic database"],
            "pub": "JQSRT",
            "volume": "203",
            "page": ["3-69"],
            "year": "2017",
            "doi": ["10.1016/j.jqsrt.2017.06.038"],
        }
        record = ads_doc_to_record(doc)
        assert record.year == 2017
        assert str(record.bibcode) == "2017JQSRT.203....3G"
        assert record.authors[0].formatted == "I. E. Gordon"
        assert (record.pages.first, record.pages.last) == ("3", "69")

    def test_queried_doi_fills_gap(self):
        doc = {"bibcode": "2017JQSRT.203....3G", "title": ["T"], "year": "2017"}
        record = ads_doc_to_record(doc, queried_doi=HITRAN_DOI)
        assert record.doi == HITRAN_DOI

    def test_empty_doc_rejected(self):
        with pytest.raises(UnusableMetadataError):
            ads_doc_to_record({"bibcode": "2017JQSRT.203....3G"})
