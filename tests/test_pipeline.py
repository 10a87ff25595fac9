"""Orchestrator tests: branch selection, fallback behavior, persistence."""

from __future__ import annotations

import ast
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

import pytest
from conftest import FIXTURE_DIR, CountingTransport, exchange, fallback_exchanges

from refs import (
    AdsConfig,
    BibRecord,
    FixtureTransport,
    HttpRequest,
    HttpResponse,
    LiveTransport,
    RefsError,
    RefStore,
    RenderFormat,
    RenderedCitation,
    ResolutionFailedError,
    ResolutionPath,
    ResolutionReport,
    Upstream,
    UpstreamUnavailableError,
    parse_doi,
    render_all,
    resolve_and_store_report,
    resolve_query_and_store_report,
    resolve_query_reference,
    resolve_reference,
    resolvers,
)
import refs.pipeline
import refs.render
import refs.transport
from refs.pipeline import store_report
from refs.resolvers import ads_search_url
from refs.transport import write_archive

from fakes import FakeNetwork, FakeResponse
from recorded import MATCHED, RECORDED, fixture_matches

HITRAN = parse_doi("10.1016/j.jqsrt.2017.06.038")
NIST = parse_doi("10.18434/t4w30f")
HITRAN_TITLE = "The HITRAN2016 molecular spectroscopic database"


def fixture_dois() -> list:
    """Every DOI the archives hold an answer for, at doi.org or from an ADS DOI search."""
    found = set()
    for archive in sorted(FIXTURE_DIR.glob("*.json")):
        for entry in json.loads(archive.read_text(encoding="utf-8"))["entries"]:
            parts = urlsplit(entry["request"]["url"])
            query = parse_qs(parts.query).get("q", [""])[0]
            if parts.hostname == "doi.org":
                found.add(unquote(parts.path[1:]))
            elif query.startswith('doi:"'):
                found.add(query[len('doi:"'):-1])
    return [parse_doi(raw) for raw in sorted(found)]


def fixture_queries() -> list[str]:
    """Every free-text query the CrossRef archive holds an answer for."""
    return list(fixture_matches())


class _AlwaysUnavailable:
    is_live = False

    def execute(self, request):
        return HttpResponse(status=503, body=b"Service Unavailable")


class _ThrottledOnce:
    """Answers the first request with 429 and Retry-After, then replays fixtures. It counts
    as the network, so send waits the Retry-After out."""

    is_live = True

    def __init__(self, inner):
        self.inner = inner
        self.throttled = False

    def execute(self, request):
        if not self.throttled:
            self.throttled = True
            return HttpResponse(status=429, headers={"Retry-After": "2"})
        return self.inner.execute(request)


class _Warns:
    """Issues a DeprecationWarning on every request, as a transport library may."""

    is_live = False

    def __init__(self, inner):
        self.inner = inner

    def execute(self, request):
        warnings.warn(f"deprecated call for {request.url}", DeprecationWarning)
        return self.inner.execute(request)


class _AdsAnswers:
    """Answers every ADS request with one response; replays fixtures for the rest."""

    is_live = False

    def __init__(self, inner, response):
        self.inner = inner
        self.response = response

    def execute(self, request):
        if "adsabs.harvard.edu" in request.url:
            return self.response
        return self.inner.execute(request)


class _BibtexAnswers(_AdsAnswers):
    """Answers every BibTeX negotiation with one response; replays fixtures for the rest."""

    def execute(self, request):
        if request.accept == resolvers.BIBTEX_ACCEPT:
            return self.response
        return self.inner.execute(request)


class TestAdsPath:
    def test_resolves_with_bibcode_and_four_renders(self, transport, ads_config):
        report = resolve_reference(HITRAN, cfg=ads_config, transport=transport)
        assert report.path_taken is ResolutionPath.ADS
        assert str(report.bibcode) == "2017JQSRT.203....3G"
        assert set(report.renders) == set(RenderFormat)
        assert report.unverified is False

    def test_never_touches_negotiation_endpoints(self, counting_transport, ads_config):
        resolve_reference(HITRAN, cfg=ads_config, transport=counting_transport)
        assert counting_transport.count("doi.org") == 0
        assert counting_transport.count("adsabs.harvard.edu") == 1  # the fields come with the search

    def test_throttled_search_is_retried_not_fallen_back(self, transport, monkeypatch):
        sleeps = []
        monkeypatch.setattr(resolvers, "_sleep", sleeps.append)
        # A backoff_base of 0 sets the backoff alone: a Retry-After is still waited out.
        cfg = AdsConfig(token="tok", backoff_base=0)
        report = resolve_reference(HITRAN, cfg=cfg, transport=_ThrottledOnce(transport))
        assert report.path_taken is ResolutionPath.ADS
        assert str(report.record.bibcode) == "2017JQSRT.203....3G"
        assert sleeps == [2.0]

    def test_record_fields_come_from_ads(self, transport, ads_config):
        report = resolve_reference(HITRAN, cfg=ads_config, transport=transport)
        assert report.record.volume == "203"
        assert report.record.year == 2017
        assert str(report.record.bibcode) == "2017JQSRT.203....3G"

    def test_note_is_rendered(self, transport, ads_config):
        report = resolve_reference(HITRAN, note="Background data.", cfg=ads_config,
                                   transport=transport)
        assert report.renders[RenderFormat.HTML].body.startswith("Background data. ")


class TestFallbackPath:
    def test_absent_doi_takes_fallback(self, transport, ads_config):
        report = resolve_reference(NIST, cfg=ads_config, transport=transport)
        assert report.path_taken is ResolutionPath.FALLBACK
        assert report.bibcode is None
        assert set(report.renders) == set(RenderFormat)

    def test_performs_one_csl_and_one_bibtex_fetch(self, counting_transport, ads_config):
        resolve_reference(NIST, cfg=ads_config, transport=counting_transport)
        negotiations = [r for r in counting_transport.requests if "doi.org" in r.url]
        accepts = sorted(r.accept for r in negotiations)
        assert accepts == ["application/vnd.citationstyles.csl+json", "application/x-bibtex"]

    def test_fetched_bibtex_is_authoritative(self, transport, ads_config):
        report = resolve_reference(NIST, cfg=ads_config, transport=transport)
        assert report.renders[RenderFormat.BIBTEX].body.startswith("@misc{Kramida_2022,")

    def test_partial_fallback_generates_bibtex_locally(self, transport, ads_config):
        report = resolve_reference(parse_doi("10.5555/emptybib"), cfg=ads_config,
                                   transport=transport)
        assert report.path_taken is ResolutionPath.FALLBACK
        assert any("BibTeX fetch failed" in w for w in report.warnings)
        assert report.renders[RenderFormat.BIBTEX].body.startswith("@article{Lovelace2001,")

    def test_a_bibtex_body_that_is_not_utf8_is_generated_locally(self, transport, ads_config):
        report = resolve_reference(NIST, cfg=ads_config, transport=_BibtexAnswers(
            transport, HttpResponse(200, body=b"@misc{K, title={J\xe4ger}}")))
        assert (report.path_taken, report.bibtex) == (ResolutionPath.FALLBACK, None)
        assert report.warnings == [f"BibTeX fetch failed (BibTeX for {NIST} is not valid UTF-8);"
                                   " generated locally from the record"]
        assert report.renders[RenderFormat.BIBTEX] == refs.render.render_bibtex(report.entry)

    def test_both_paths_failing_aggregates_causes(self, transport, ads_config):
        with pytest.raises(ResolutionFailedError) as exc_info:
            resolve_reference(parse_doi("10.1000/unregistered"), cfg=ads_config,
                              transport=transport)
        assert exc_info.value.ads_cause
        assert exc_info.value.fallback_cause

    def test_multiple_bibcode_warning_lands_in_report(self, transport, ads_config):
        report = resolve_reference(parse_doi("10.3847/1538-4365/aa8e94"), cfg=ads_config,
                                   transport=transport)
        assert any("matches 2 bibcodes" in w for w in report.warnings)

    def test_multiple_bibcodes_cost_one_request_and_take_the_first(self, counting_transport,
                                                                  ads_config):
        report = resolve_reference(parse_doi("10.3847/1538-4365/aa8e94"), cfg=ads_config,
                                   transport=counting_transport)
        assert len(counting_transport.requests) == 1
        assert report.path_taken is ResolutionPath.ADS
        assert str(report.bibcode) == "2017ApJS..232...12W"
        assert any("matches 2 bibcodes" in w for w in report.warnings)

    def test_bibcodes_wrapped_in_lists_are_named_as_text(self, transport, ads_config):
        # Read raw, the first bibcode was named in the warning as a Python list.
        docs = [{"bibcode": ["2017JQSRT.203....3G"], "title": ["T"], "doi": [str(HITRAN)]},
                {"bibcode": ["2013A&A...558A..33A"], "title": ["U"]}]
        answer = HttpResponse(200, body=json.dumps({"response": {"docs": docs}}).encode())
        report = resolve_reference(HITRAN, cfg=ads_config,
                                   transport=_AdsAnswers(transport, answer))
        assert (report.path_taken, str(report.bibcode)) == (ResolutionPath.ADS,
                                                            "2017JQSRT.203....3G")
        assert report.warnings == [f"DOI {HITRAN} matches 2 bibcodes; using 2017JQSRT.203....3G"]

    def test_an_ads_doc_reporting_another_doi_is_used_with_a_warning(self, transport,
                                                                     ads_config):
        docs = [{"bibcode": "2017JQSRT.203....3G", "title": ["T"], "doi": ["10.1234/Other"]}]
        answer = HttpResponse(200, body=json.dumps({"response": {"docs": docs}}).encode())
        report = resolve_reference(HITRAN, cfg=ads_config,
                                   transport=_AdsAnswers(transport, answer))
        assert (report.path_taken, str(report.record.doi)) == (ResolutionPath.ADS, "10.1234/other")
        assert report.warnings == ["ADS reports DOI 10.1234/other for bibcode 2017JQSRT.203....3G,"
                                   f" queried {HITRAN}"]

    def test_ads_doc_without_author_or_title_falls_back_with_cause(self, ads_config):
        bare = {"responseHeader": {"status": 0}, "response": {"numFound": 1, "start": 0, "docs": [
            {"bibcode": "2022nist.data....1K", "doi": ["10.18434/t4w30f"], "year": "2022"}]}}
        url = ads_search_url(ads_config, 'doi:"10.18434/t4w30f"')
        # Loaded first, this answer wins over the recorded empty search result.
        transport = FixtureTransport([exchange(url, json.dumps(bare)), *RECORDED])
        report = resolve_reference(NIST, cfg=ads_config, transport=transport)
        assert report.path_taken is ResolutionPath.FALLBACK
        assert any("2022nist.data....1K" in w and "neither author nor title" in w
                   for w in report.warnings)


class TestAdsFailureIsReported:
    """A failed ADS search falls back, and the report says why."""

    @pytest.mark.parametrize("response, cause", [
        (HttpResponse(503), "answered 503 on all 3 attempts"),
        (HttpResponse(401), "ADS rejected the token"),
        (HttpResponse(429, headers={"Retry-After": "0"}), "answered 429 on all 3 attempts"),
    ], ids=["503", "401", "429-exhausted"])
    def test_failed_search_falls_back_with_the_cause(self, response, cause, transport,
                                                      ads_config, monkeypatch):
        monkeypatch.setattr(resolvers, "_sleep", lambda s: None)
        report = resolve_reference(HITRAN, cfg=ads_config,
                                   transport=_AdsAnswers(transport, response))
        assert report.path_taken is ResolutionPath.FALLBACK
        assert report.bibcode is None
        ads_warnings = [w for w in report.warnings if w.startswith("ADS DOI search failed: ")]
        assert len(ads_warnings) == 1 and cause in ads_warnings[0]

    @pytest.mark.parametrize("docs", [[1], "ab", {"bibcode": "x"}],
                             ids=["list-of-int", "str", "object"])
    def test_docs_that_are_not_objects_fall_back_with_the_cause(self, docs, transport,
                                                                ads_config):
        answer = HttpResponse(200, body=json.dumps({"response": {"docs": docs}}).encode())
        report = resolve_reference(HITRAN, cfg=ads_config,
                                   transport=_AdsAnswers(transport, answer))
        url = ads_search_url(ads_config, f'doi:"{HITRAN}"')
        assert (report.path_taken, report.record.title) == (ResolutionPath.FALLBACK, HITRAN_TITLE)
        assert report.warnings == [f"ADS DOI search failed: malformed ADS response from {url}:"
                                   " docs is not a list of objects"]

    def test_an_answer_nested_past_the_recursion_limit_falls_back_with_the_cause(
            self, transport, ads_config):
        answer = HttpResponse(200, body=b'{"response":{"docs":' + b"[" * 100_000)
        report = resolve_reference(HITRAN, cfg=ads_config,
                                   transport=_AdsAnswers(transport, answer))
        url = ads_search_url(ads_config, f'doi:"{HITRAN}"')
        assert (report.path_taken, report.record.title) == (ResolutionPath.FALLBACK, HITRAN_TITLE)
        assert report.warnings == [f"ADS DOI search failed: malformed ADS response from {url}:"
                                   " JSON nested too deeply"]

    def test_an_ads_title_that_is_an_object_falls_back_with_the_cause(self, transport,
                                                                      ads_config):
        doc = {"bibcode": "2017JQSRT.203....3G", "title": {"a": 1}, "year": "2017"}
        answer = HttpResponse(200, body=json.dumps({"response": {"docs": [doc]}}).encode())
        report = resolve_reference(HITRAN, cfg=ads_config,
                                   transport=_AdsAnswers(transport, answer))
        assert (report.path_taken, report.record.title) == (ResolutionPath.FALLBACK, HITRAN_TITLE)
        assert report.warnings == ["ADS document for 2017JQSRT.203....3G is unusable:"
                                   " 'title' holds {'a': 1}, not text or a number"]

    def test_a_lone_surrogate_in_the_ads_answer_falls_back_with_the_cause(self, ads_config):
        # JSON may escape a lone surrogate, which no store can hold.
        doc = '{"bibcode": "2017JQSRT.203....3G", "title": ["A \\ud800 B"], "year": "2017"}'
        url = ads_search_url(ads_config, f'doi:"{HITRAN}"')
        # Loaded first, this answer wins over the recorded one.
        transport = FixtureTransport([exchange(url, '{"response": {"docs": [%s]}}' % doc),
                                      *RECORDED])
        report = resolve_reference(HITRAN, cfg=ads_config, transport=transport)
        assert (report.path_taken, report.record.title) == (ResolutionPath.FALLBACK, HITRAN_TITLE)
        (cause,) = [w for w in report.warnings if w.startswith("ADS DOI search failed: ")]
        assert "surrogates not allowed" in cause

    def test_clean_miss_carries_no_ads_warning(self, transport, ads_config):
        report = resolve_reference(NIST, cfg=ads_config, transport=transport)
        assert report.path_taken is ResolutionPath.FALLBACK
        assert not any("ADS" in w for w in report.warnings)


class TestTokenStaysOnAds:
    def test_only_ads_requests_carry_the_token_and_no_message_shows_it(
            self, transport, counting_transport, monkeypatch):
        monkeypatch.setattr(resolvers, "_sleep", lambda s: None)
        cfg = AdsConfig(token="s3cret")
        rejected = CountingTransport(_AdsAnswers(transport, HttpResponse(401)))
        reports = [
            resolve_reference(HITRAN, cfg=cfg, transport=counting_transport),
            resolve_reference(NIST, cfg=cfg, transport=counting_transport),
            resolve_query_reference("The HITRAN2016 molecular spectroscopic database",
                                    cfg=cfg, transport=counting_transport),
            resolve_reference(HITRAN, cfg=cfg, transport=rejected),
        ]
        errors = []
        for raw in ("10.1000/unregistered", "10.5555/authfail", "10.5555/flaky"):
            with pytest.raises(ResolutionFailedError) as exc_info:
                resolve_reference(parse_doi(raw), cfg=cfg, transport=counting_transport)
            errors.append(exc_info.value)

        hosts = set()
        for request in counting_transport.requests + rejected.requests:
            hosts.add(urlsplit(request.url).hostname)
            carries_token = any(name.lower() == "authorization" for name in request.headers)
            assert carries_token == request.url.startswith(cfg.base_url), request.url
            if carries_token:
                assert request.headers["Authorization"] == "Bearer s3cret"
        assert hosts == {"api.adsabs.harvard.edu", "doi.org", "api.crossref.org"}
        messages = [w for r in reports for w in r.warnings]
        messages += [str(e) for e in errors] + [e.ads_cause for e in errors]
        assert any("ADS rejected the token" in m for m in messages)
        assert not any("s3cret" in m for m in messages)

    def test_a_live_token_no_header_can_carry_falls_back_without_asking_ads(
            self, transport, monkeypatch):
        def answer(sent):
            url = f"{sent.conn.scheme}://{sent.conn.netloc}{sent.target}"
            response = transport.execute(HttpRequest(sent.method, url, sent.headers))
            return FakeResponse(response.status, response.headers.items(), response.body)

        network = FakeNetwork(answer)
        monkeypatch.setattr(refs.transport, "_connect", network)
        report = resolve_reference(NIST, cfg=AdsConfig(token="s3cret\nX"),
                                   transport=LiveTransport())
        assert report.path_taken is ResolutionPath.FALLBACK
        assert report.warnings[0] == ("ADS DOI search failed: the ADS token holds a character"
                                      " that an HTTP header cannot carry")
        assert not any("s3cret" in w for w in report.warnings)
        assert [s.conn.netloc for s in network.sent] == ["doi.org"] * 2


class TestCrossFormatAgreement:
    @pytest.mark.parametrize("doi", [HITRAN, NIST])
    def test_every_render_embeds_the_canonical_doi(self, doi, transport, ads_config):
        report = resolve_reference(doi, cfg=ads_config, transport=transport)
        for rendered in report.renders.values():
            assert doi.canonical in rendered.body


class TestQueryMode:
    def test_query_route_obeys_the_callers_retry_policy(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(resolvers, "_sleep", sleeps.append)
        counting = CountingTransport(_AlwaysUnavailable())
        with pytest.raises(UpstreamUnavailableError):
            resolve_query_reference("anything at all", cfg=AdsConfig(max_retries=1, backoff_base=0),
                                    transport=counting)
        assert len(counting.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("text, doi", MATCHED, ids=[str(doi) for _, doi in MATCHED])
    def test_a_query_is_its_matchs_doi_route_marked_unverified(self, text, doi,
                                                                counting_transport, ads_config):
        report = resolve_query_reference(text, "A note.", ads_config, counting_transport)
        searched = counting_transport.requests.pop(0)
        assert urlsplit(searched.url).hostname == "api.crossref.org"
        sent = [r.url for r in counting_transport.requests]
        counting_transport.requests.clear()
        by_doi = resolve_reference(doi, "A note.", ads_config, counting_transport)
        assert sent == [r.url for r in counting_transport.requests]
        assert report.warnings[0] == (f"bibliography for query {text!r} resolved by keyword"
                                      f" match to {doi}; it may belong to a different article")
        assert report.unverified is True
        by_doi.warnings.insert(0, report.warnings[0])
        by_doi.unverified = True
        assert report == by_doi
        assert report.renders == by_doi.renders

    def test_a_match_whose_citation_json_the_model_refuses_fails_as_its_doi_does(
            self, ads_config):
        doi = parse_doi("10.1234/query-year")
        search = exchange(resolvers.crossref_query_url("Old"),
                          json.dumps({"message": {"items": [{"DOI": doi.canonical}]}}),
                          accept="application/json")
        csl = json.dumps({"DOI": doi.canonical, "title": "Old", "issued": {"date-parts": [[1200]]}})
        transport = FixtureTransport([search, *fallback_exchanges(doi, csl, "@misc{Q}")])
        failures = []
        for resolve in (partial(resolve_query_reference, "Old"), partial(resolve_reference, doi)):
            with pytest.raises(ResolutionFailedError) as exc_info:
                resolve(cfg=ads_config, transport=transport)
            failures.append(str(exc_info.value))
        assert failures[0] == failures[1]
        assert failures[0].endswith("; fallback path: year out of range [1500, 2999]: 1200")


class TestResolveAndStore:
    def test_fresh_doi_gets_new_id(self, transport, ads_config, store):
        gid, _ = resolve_and_store_report(HITRAN, None, store, ads_config, transport)
        assert gid == 1

    def test_same_doi_twice_returns_same_id(self, transport, ads_config, store):
        first, _ = resolve_and_store_report(HITRAN, None, store, ads_config, transport)
        again, report = resolve_and_store_report(HITRAN, None, store, ads_config, transport)
        assert again == first
        assert any("already stored" in w for w in report.warnings)

    def test_batch_assigns_consecutive_ids(self, transport, ads_config, store):
        dois = [HITRAN, parse_doi("10.1086/670067"), parse_doi("10.1093/mnras/stw2949")]
        ids = [resolve_and_store_report(d, None, store, ads_config, transport)[0] for d in dois]
        assert ids == [1, 2, 3]

    def test_stored_entry_carries_note(self, transport, ads_config, store):
        gid, _ = resolve_and_store_report(HITRAN, "For the line list.", store, ads_config,
                                          transport)
        assert store.get_entry(gid).note == "For the line list."

    @pytest.mark.parametrize("doi, path", [(HITRAN, ResolutionPath.ADS),
                                           (NIST, ResolutionPath.FALLBACK)])
    def test_stored_doi_is_answered_from_the_store_without_requests(
            self, doi, path, counting_transport, ads_config, store):
        first, added = resolve_and_store_report(doi, "First note.", store, ads_config,
                                                counting_transport)
        counting_transport.requests.clear()
        again, report = resolve_and_store_report(doi, "Second note.", store, ads_config,
                                                 counting_transport)
        assert counting_transport.requests == []
        assert again == first
        assert report.warnings == [f"DOI {doi} is already stored as entry {first}"]
        assert report.path_taken is path
        assert report.record == store.get_entry(first).records[0]
        # The BibTeX the first add reported: doi.org's text on the fallback path.
        expected = render_all(store.get_entry(first))
        expected[RenderFormat.BIBTEX] = RenderedCitation(
            RenderFormat.BIBTEX, added.renders[RenderFormat.BIBTEX].body, str(first))
        assert report.renders == expected
        assert report.renders[RenderFormat.HTML].body.startswith(f"{first}. First note. ")

    @pytest.mark.parametrize("route, fetched", [
        (HITRAN, False), (NIST, True), (parse_doi("10.5555/emptybib"), False), ("query", True)])
    def test_the_store_keeps_the_bibtex_the_add_reported(self, route, fetched, transport,
                                                         ads_config, store):
        if route == "query":
            report = resolve_query_reference("NIST Atomic Spectra Database",
                                             cfg=ads_config, transport=transport)
            gid = store_report(store, report)
        else:
            gid, report = resolve_and_store_report(route, None, store, ads_config, transport)
        assert (report.bibtex is not None) is fetched
        added = report.renders[RenderFormat.BIBTEX].body
        assert store.get_rendered(gid, RenderFormat.BIBTEX).body == added
        assert (added == render_all(store.get_entry(gid))[RenderFormat.BIBTEX].body) != fetched

    def test_query_for_a_stored_doi_is_answered_from_the_store(self, counting_transport,
                                                               ads_config, store):
        gid, _ = resolve_and_store_report(HITRAN, None, store, ads_config, counting_transport)
        counting_transport.requests.clear()
        again, report = resolve_query_and_store_report(HITRAN_TITLE, "Ignored.", store,
                                                       ads_config, counting_transport)
        assert again == gid
        assert [urlsplit(r.url).hostname for r in counting_transport.requests] == [
            "api.crossref.org"]
        assert report.unverified is True
        assert report.warnings == [
            f"bibliography for query {HITRAN_TITLE!r} resolved by keyword match to {HITRAN}; "
            "it may belong to a different article",
            f"DOI {HITRAN} is already stored as entry {gid}",
        ]
        assert report.path_taken is ResolutionPath.ADS
        assert report.record == store.get_entry(gid).records[0]
        assert report.renders[RenderFormat.BIBTEX] == store.get_rendered(gid,
                                                                         RenderFormat.BIBTEX)
        assert store.get_entry(gid).note is None

    def test_query_for_a_new_doi_is_resolved_and_stored(self, counting_transport, ads_config,
                                                        store, transport):
        gid, report = resolve_query_and_store_report(HITRAN_TITLE, None, store, ads_config,
                                                     counting_transport)
        assert gid == 1
        assert [urlsplit(r.url).hostname for r in counting_transport.requests] == [
            "api.crossref.org", "api.adsabs.harvard.edu"]
        # The same report as an unstored resolution's, but for the entry's new ID.
        unstored = resolve_query_reference(HITRAN_TITLE, cfg=ads_config, transport=transport)
        assert unstored.entry.global_id is None
        unstored.entry.global_id = gid
        assert report == unstored
        assert store.get_rendered(gid, RenderFormat.BIBTEX).body == (
            report.renders[RenderFormat.BIBTEX].body)

    def test_query_match_deleted_before_the_repeat_add_is_resolved_afresh(
            self, counting_transport, ads_config, store):
        first, _ = resolve_and_store_report(HITRAN, None, store, ads_config, counting_transport)
        store.delete_entry(first)
        counting_transport.requests.clear()
        again, report = resolve_query_and_store_report(HITRAN_TITLE, None, store, ads_config,
                                                       counting_transport)
        assert again != first
        assert [urlsplit(r.url).hostname for r in counting_transport.requests] == [
            "api.crossref.org", "api.adsabs.harvard.edu"]
        assert report.unverified and report.path_taken is ResolutionPath.ADS
        assert len(report.warnings) == 1
        assert store.get_entry(again).records == [report.record]

    def test_entry_deleted_before_the_repeat_add_is_resolved_afresh(
            self, counting_transport, ads_config, store):
        first, _ = resolve_and_store_report(HITRAN, None, store, ads_config, counting_transport)
        store.delete_entry(first)
        counting_transport.requests.clear()
        again, report = resolve_and_store_report(HITRAN, None, store, ads_config,
                                                 counting_transport)
        assert again != first
        assert len(counting_transport.requests) == 1
        assert report.warnings == []
        assert store.get_entry(again).records == [report.record]

    def test_a_doi_whose_old_set_key_named_another_entry_is_stored_in_either_order(
            self, tmp_path, ads_config):
        # Up to schema version 5 the DOI-set key joined DOIs with "|", which a DOI may hold.
        joined = parse_doi("10.1234/a|10.1234/b")
        parts = [BibRecord(title="A", doi=parse_doi("10.1234/a")),
                 BibRecord(title="B", doi=parse_doi("10.1234/b"))]
        csl = json.dumps({"type": "journal-article", "DOI": joined.canonical, "title": "Joined"})
        transport = FixtureTransport(fallback_exchanges(joined, csl, "@misc{J, title={Joined}}"))
        for parts_first in (True, False):
            with RefStore(tmp_path / f"{parts_first}.db") as store:
                parts_id = store.add_entry(parts) if parts_first else None
                gid, report = resolve_and_store_report(joined, None, store, ads_config, transport)
                parts_id = parts_id or store.add_entry(parts)
                assert gid != parts_id
                assert report.path_taken is ResolutionPath.FALLBACK
                assert report.record.title == "Joined"
                assert store.find_entry_by_dois([joined]) == gid
                assert store.find_entry_by_dois([r.doi for r in parts]) == parts_id
                again, report = resolve_and_store_report(joined, None, store, ads_config, transport)
                assert (again, report.record.title) == (gid, "Joined")
                assert report.warnings == [f"DOI {joined} is already stored as entry {gid}"]

    def test_add_race_is_still_answered_with_the_existing_id(self, transport, ads_config, store):
        report = resolve_reference(HITRAN, cfg=ads_config, transport=transport)
        gid = store.add_entry([report.record])
        assert store_report(store, report) == gid
        assert report.warnings[-1] == f"DOI {HITRAN} is already stored as entry {gid}"
        assert report.entry.global_id is None  # the report's entry is not the stored one
        assert len(store.list_entries()) == 1


class TestRendersAreTheStoredEntry:
    """A report renders its entry on each read: once stored, exactly what the store serves."""

    def test_first_add_repeat_add_and_store_agree(self, tmp_path, ads_config):
        resolved, paths = [], set()
        subjects = [(resolve_and_store_report, doi) for doi in fixture_dois()]
        subjects += [(resolve_query_and_store_report, text) for text in fixture_queries()]
        for n, (resolve_and_store, subject) in enumerate(subjects):
            transport = FixtureTransport.from_dir(FIXTURE_DIR)
            with RefStore(tmp_path / f"{n}.db") as store:
                try:
                    gid, first = resolve_and_store(subject, "A note.", store, ads_config,
                                                   transport)
                except RefsError:
                    assert store.live_ids() == []
                    continue
                again, repeat = resolve_and_store(subject, "A note.", store, ads_config,
                                                  transport)
                stored = {fmt: store.get_rendered(gid, fmt) for fmt in RenderFormat}
            assert again == gid
            assert first.renders == repeat.renders == stored, subject
            assert first.renders[RenderFormat.HTML].body.startswith(f"{gid}. A note. ")
            resolved.append(subject)
            paths.add(first.path_taken)
        assert len(resolved) == 11 and HITRAN_TITLE in resolved
        assert paths == set(ResolutionPath)

    @pytest.mark.parametrize("route, bibtex_renders", [
        (HITRAN, 1), (NIST, 0), (parse_doi("10.5555/emptybib"), 1), (HITRAN_TITLE, 1)],
        ids=["ads", "fallback", "fallback-without-bibtex", "query"])
    def test_a_new_add_renders_only_what_the_store_keeps(self, route, bibtex_renders,
                                                        transport, ads_config, store,
                                                        monkeypatch):
        calls = dict.fromkeys(["render_all", "render_html", "render_json", "render_text",
                               "render_bibtex"], 0)

        def counting(module, name):
            inner = getattr(module, name)

            def counted(entry):
                calls[name] += 1
                return inner(entry)
            monkeypatch.setattr(module, name, counted)

        for name in calls:
            counting(refs.pipeline if name == "render_all" else refs.render, name)
        if route == HITRAN_TITLE:
            resolve_query_and_store_report(route, None, store, ads_config, transport)
        else:
            resolve_and_store_report(route, None, store, ads_config, transport)
        assert calls == {"render_all": 0, "render_html": 1, "render_json": 0, "render_text": 0,
                         "render_bibtex": bibtex_renders}

    def test_only_the_renders_property_names_a_renderer(self):
        tree = ast.parse(Path(refs.pipeline.__file__).read_text(encoding="utf-8"))
        report = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "ResolutionReport")
        renders = next(node for node in report.body
                       if isinstance(node, ast.FunctionDef) and node.name == "renders")

        def renderers(node):
            return [sub for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
                    and (getattr(sub, "id", None) or sub.attr).startswith("render_")]

        assert renderers(renders)
        inside = set(map(id, renderers(renders)))
        assert [sub.lineno for sub in renderers(tree) if id(sub) not in inside] == []
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.name.startswith("render")]
        assert imported == ["render_all"]


class TestWarningsStayTheCallers:
    @pytest.mark.parametrize("resolve", [
        partial(resolve_reference, HITRAN),
        partial(resolve_reference, NIST),
        partial(resolve_query_reference, HITRAN_TITLE),
    ], ids=["ads", "fallback", "query"])
    def test_a_transport_warning_reaches_the_caller(self, resolve, transport, ads_config):
        with pytest.warns(DeprecationWarning, match="deprecated call for https://"):
            report = resolve(cfg=ads_config, transport=_Warns(transport))
        assert not any("deprecated" in w for w in report.warnings)

    def test_threads_sharing_a_transport_get_their_sequential_reports(self, transport,
                                                                      ads_config):
        def outcome(resolve):
            try:
                return resolve(cfg=ads_config, transport=transport)
            except Exception as exc:  # a failed resolution is part of the outcome
                return type(exc), str(exc)

        jobs = [partial(resolve_reference, doi) for doi in fixture_dois()]
        jobs.append(partial(resolve_query_reference, HITRAN_TITLE))
        sequential = [outcome(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(4):
                assert list(pool.map(outcome, jobs)) == sequential
        warned = [w for r in sequential if isinstance(r, ResolutionReport) for w in r.warnings]
        multiple = "DOI 10.3847/1538-4365/aa8e94 matches 2 bibcodes; using 2017ApJS..232...12W"
        assert multiple in warned
        assert any(isinstance(r, tuple) for r in sequential)


class TestUpstreamContext:
    """What the public entry points build their one Upstream from."""

    def test_a_left_out_cfg_sends_the_environment_token_to_ads_only(
            self, counting_transport, monkeypatch):
        monkeypatch.setenv("REFS_ADS_TOKEN", "s3cret")
        report = resolve_reference(NIST, transport=counting_transport)
        assert report.path_taken is ResolutionPath.FALLBACK
        ads = [r for r in counting_transport.requests if "adsabs.harvard.edu" in r.url]
        negotiated = [r for r in counting_transport.requests if "doi.org" in r.url]
        assert [r.headers["Authorization"] for r in ads] == ["Bearer s3cret"]
        assert len(negotiated) == 2
        assert not any("Authorization" in r.headers for r in negotiated)

    @pytest.mark.parametrize("call", [
        partial(Upstream, None),
        partial(resolve_reference, HITRAN),
        partial(resolve_query_reference, "x"),
    ], ids=["upstream", "doi", "query"])
    def test_no_transport_is_refused(self, call):
        with pytest.raises(ValueError, match="a transport is required"):
            call()

    def test_a_stored_doi_is_answered_without_a_transport(self, transport, ads_config, store):
        gid, _ = resolve_and_store_report(HITRAN, None, store, ads_config, transport)
        again, report = resolve_and_store_report(HITRAN, None, store)
        assert again == gid
        assert report.warnings == [f"DOI {HITRAN} is already stored as entry {gid}"]


class TestPathExclusivity:
    def test_exactly_one_branch_fetches(self, fixture_dir, ads_config):
        for doi, expect_ads_fetches, expect_negotiations in [
            (HITRAN, 1, 0),
            (NIST, 1, 2),  # the absent-DOI search plus the two negotiation calls
        ]:
            counting = CountingTransport(FixtureTransport.from_dir(fixture_dir))
            resolve_reference(doi, cfg=ads_config, transport=counting)
            assert counting.count("adsabs.harvard.edu") == expect_ads_fetches
            assert counting.count("doi.org") == expect_negotiations


class TestRecordThenReplay:
    def test_a_recorded_archive_alone_replays_every_resolution(self, tmp_path):
        """Every fixture DOI and query resolves the same through an archive written from the
        exchanges of its run, and every exchange recorded is a GET without a request body."""
        cfg = AdsConfig(token="s3cret")
        subjects = ([(refs.pipeline._resolve, doi) for doi in fixture_dois()]
                    + [(refs.pipeline._resolve_query, text) for text in fixture_queries()])

        def outcomes(transport) -> tuple[list, list]:
            found, exchanges = [], []
            for resolve, subject in subjects:
                upstream = Upstream(transport, cfg)
                try:
                    report = resolve(subject, None, upstream)
                except RefsError as exc:
                    found.append((type(exc), str(exc)))
                else:
                    found.append((report.path_taken, report.record,
                                  report.renders[RenderFormat.BIBTEX].body, report.warnings))
                exchanges += upstream.exchanges
            return found, exchanges

        archive = tmp_path / "recorded" / "archive.json"
        archive.parent.mkdir()
        live, exchanges = outcomes(FixtureTransport.from_dir(FIXTURE_DIR))
        write_archive(archive, [], exchanges)
        replayed, again = outcomes(FixtureTransport.from_dir(archive.parent))
        assert replayed == live
        assert [(r.url, r.accept) for r, _ in again] == [(r.url, r.accept) for r, _ in exchanges]
        assert any(isinstance(o[0], ResolutionPath) for o in live)
        requests = [e["request"] for e in json.loads(archive.read_text())["entries"]]
        assert len(requests) == len(exchanges) >= len(subjects)
        assert all(r["method"] == "GET" and "body" not in r for r in requests)
