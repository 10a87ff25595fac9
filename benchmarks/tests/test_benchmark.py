"""Tests of the benchmark itself: fake upstream, percentiles, generator, counters.

Run with: python -m pytest benchmarks/tests
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from urllib.parse import urlencode, urlsplit, unquote, parse_qs

import pytest

from refs import AdsConfig, FixtureTransport, ResolutionFailedError, parse_doi
from refs.pipeline import resolve_query_reference, resolve_reference
from refs.render import RenderFormat
from refs.transport import HttpRequest

from stats import percentile, tail
from tracing import SpanStats, Tracer
from upstream import (
    BIBTEX,
    CSL_JSON,
    FakeUpstream,
    LatencyTransport,
    QuerySyntaxError,
    parse_accept,
    parse_ads_query,
)
from workgen import WorkGenerator, registry_entry
from workloads import TOKEN, _import_plan, recorded_dois

FIXTURES = Path(__file__).resolve().parents[2] / "tests" / "fixtures"
ADS = "https://api.adsabs.harvard.edu/v1"
CFG = AdsConfig(token=TOKEN, backoff_base=0.0)


def ads_search(q: str, fl: str = "bibcode", rows: int = 10, token: str | None = TOKEN) -> HttpRequest:
    headers = {} if token is None else {"Authorization": f"Bearer {token}"}
    url = f"{ADS}/search/query?" + urlencode({"q": q, "fl": fl, "rows": str(rows)})
    return HttpRequest("GET", url, headers=headers)


@pytest.fixture
def fake():
    fake = FakeUpstream(TOKEN)
    gen = WorkGenerator(5, "test")
    works = [gen.work() for _ in range(3)]
    fake.add_work(works[0], in_ads=True, bibtex=True)
    fake.add_work(works[1], in_ads=False, bibtex=True)
    fake.add_work(works[2], in_ads=False, bibtex=False)
    fake.works = works
    return fake


# -- query parsing and status answers -----------------------------------


def test_parse_single_and_or_queries():
    assert parse_ads_query('doi:"10.1/x"') == ("doi", ["10.1/x"])
    assert parse_ads_query('doi:("10.1/a" OR "10.1/b")') == ("doi", ["10.1/a", "10.1/b"])
    assert parse_ads_query('bibcode:("2017JQSRT.203....3G" OR "2013A&A...558A..33A")') == (
        "bibcode", ["2017JQSRT.203....3G", "2013A&A...558A..33A"])


@pytest.mark.parametrize("q", ['title:"x"', 'doi:("a" "b")', "doi:x", 'doi:"a" OR "b"', ""])
def test_parse_rejects_other_queries(q):
    with pytest.raises(QuerySyntaxError):
        parse_ads_query(q)


def test_accept_header_ranking():
    assert parse_accept(f"{BIBTEX};q=0.5, {CSL_JSON}") == [CSL_JSON, BIBTEX]
    assert parse_accept(f"{BIBTEX};q=0") == []


def test_ads_requires_the_bearer_token(fake):
    doi = fake.works[0].doi
    assert fake.execute(ads_search(f'doi:"{doi}"', token=None)).status == 401
    assert fake.execute(ads_search(f'doi:"{doi}"', token="wrong")).status == 401
    assert fake.execute(ads_search(f'doi:"{doi}"')).status == 200


def test_ads_bad_query_is_400(fake):
    assert fake.execute(ads_search('title:"anything"')).status == 400


def test_ads_search_projects_fields_and_limits_rows(fake):
    work = fake.works[0]
    docs = fake.execute(ads_search(f'doi:"{work.doi}"', fl="bibcode,title,year")).json()["response"]["docs"]
    assert docs == [{"bibcode": work.bibcode, "title": [work.title.replace("&", "&amp;")],
                     "year": str(work.year)}]
    assert fake.execute(ads_search(f'doi:"{fake.works[1].doi}"')).json()["response"]["docs"] == []


def test_ads_or_query_answers_every_named_doi():
    fake = FakeUpstream(TOKEN)
    gen = WorkGenerator(6, "test")
    works = [gen.work() for _ in range(3)]
    for w in works:
        fake.add_work(w, in_ads=True, bibtex=True)
    q = "doi:(" + " OR ".join(f'"{w.doi.upper()}"' for w in works) + ")"
    body = fake.execute(ads_search(q, rows=2)).json()["response"]
    assert body["numFound"] == 3
    assert [d["bibcode"] for d in body["docs"]] == [works[0].bibcode, works[1].bibcode]


def test_doi_org_404_and_406(fake):
    def negotiate(doi, accept):
        return fake.execute(HttpRequest("GET", f"https://doi.org/{doi}", headers={"Accept": accept}))

    assert negotiate("10.5072/never.registered", CSL_JSON).status == 404
    assert negotiate(fake.works[1].doi, CSL_JSON).status == 200
    assert negotiate(fake.works[1].doi.upper(), BIBTEX).status == 200
    assert negotiate(fake.works[2].doi, BIBTEX).status == 406
    assert negotiate(fake.works[1].doi, "text/x-unknown").status == 406


# -- the fake is honest on the recorded fixtures -------------------------


def _fixture_dois() -> list[str]:
    dois = set()
    for archive in FIXTURES.glob("*.json"):
        for entry in json.loads(archive.read_text(encoding="utf-8"))["entries"]:
            parts = urlsplit(entry["request"]["url"])
            if parts.hostname == "doi.org":
                dois.add(unquote(parts.path.lstrip("/")).lower())
            q = parse_qs(parts.query).get("q", [""])[0]
            if q.startswith("doi:"):
                dois.update(v.lower() for v in parse_ads_query(q)[1])
    return sorted(dois)


def _outcome(doi: str, transport):
    try:
        report = resolve_reference(parse_doi(doi), cfg=CFG, transport=transport)
    except ResolutionFailedError:
        return "ResolutionFailedError"
    return report.path_taken, report.record, report.renders[RenderFormat.BIBTEX].body


def test_fake_resolves_every_recorded_doi_like_the_fixtures():
    dois = _fixture_dois()
    assert len(dois) >= 10
    fake = FakeUpstream.from_fixture_dir(FIXTURES, TOKEN)
    recorded = FixtureTransport.from_dir(FIXTURES)
    resolved = 0
    for doi in dois:
        expected = _outcome(doi, recorded)
        assert _outcome(doi, fake) == expected, doi
        resolved += expected != "ResolutionFailedError"
    assert resolved >= 7


def test_fake_answers_recorded_keyword_queries_like_the_fixtures():
    fake = FakeUpstream.from_fixture_dir(FIXTURES, TOKEN)
    recorded = FixtureTransport.from_dir(FIXTURES)
    report = resolve_query_reference("The HITRAN2016 molecular spectroscopic database",
                                     transport=recorded)
    via_fake = resolve_query_reference("The HITRAN2016 molecular spectroscopic database",
                                       transport=fake)
    assert via_fake.record == report.record


# -- latency wrapper counters ------------------------------------------


def test_request_counts_on_recorded_dois_are_2_for_ads_and_3_for_fallback():
    fake = FakeUpstream.from_fixture_dir(FIXTURES, TOKEN)
    paths = set()
    for doi, expected in recorded_dois(FIXTURES):
        transport = LatencyTransport(fake, rtt_ms=0)
        resolve_reference(parse_doi(doi), cfg=CFG, transport=transport)
        if expected["path"] == "ads":
            assert transport.requests == {"ads_search": 1, "ads_export": 1}, doi
            assert transport.total_requests == 2
        else:
            assert transport.requests == {"ads_search": 1, "doi_csl": 1, "doi_bibtex": 1}, doi
            assert transport.total_requests == 3
        assert transport.retries == 0
        paths.add(expected["path"])
    assert paths == {"ads", "fallback"}


def test_latency_wrapper_injects_its_delay():
    fake = FakeUpstream.from_fixture_dir(FIXTURES, TOKEN)
    transport = LatencyTransport(fake, rtt_ms=5)
    resolve_reference(parse_doi("10.18434/t4w30f"), cfg=CFG, transport=transport)
    assert transport.wait_s >= 3 * 0.005
    assert transport.overshoot_s >= 0


# -- percentiles ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1, 101))) == (90.0, 90)
    assert tail(list(range(1, 1001))) == (99.0, 990)
    assert tail(list(range(1, 10001))) == (99.9, 9990)
    assert tail(list(range(1, 21))) == (50.0, 10)
    assert tail(list(range(1, 16))) is None
    shuffled = list(range(1, 101))
    random.Random(0).shuffle(shuffled)
    assert tail(shuffled) == (90.0, 90)


# -- seeded generation ---------------------------------------------------


def test_generator_is_deterministic_for_a_seed():
    def stream(seed):
        gen = WorkGenerator(seed, "det")
        return [(registry_entry(gen), gen.raw_doi(gen.work())) for _ in range(50)]

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)


def test_import_plan_is_deterministic_and_holds_the_mix():
    def plan(seed):
        fake = FakeUpstream(TOKEN)
        return _import_plan(WorkGenerator(seed, "rtt"), fake), fake

    (a, fake_a), (b, fake_b) = plan(9), plan(9)
    assert a == b
    assert fake_a.negotiation == fake_b.negotiation and fake_a.ads_docs == fake_b.ads_docs
    kinds = [k for k, _ in a]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "ads": 35, "fallback": 8, "fallback406": 2, "unregistered": 1, "repeat": 4}
    seen = set()
    for kind, work in a:
        if kind == "repeat":
            assert work.doi in seen
        seen.add(work.doi)


def test_generated_bibcodes_and_dois_are_valid_and_distinct():
    from refs import parse_bibcode

    gen = WorkGenerator(1, "valid")
    works = [gen.work() for _ in range(2000)]
    assert len({w.bibcode for w in works}) == len(works)
    assert len({w.doi for w in works}) == len(works)
    for w in works:
        assert str(parse_bibcode(w.bibcode)) == w.bibcode
        assert parse_doi(gen.raw_doi(w)).canonical == w.doi


# -- tracing ---------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    stats = SpanStats()
    stats.add([
        ["pipeline.a", 0, 100, -1, 1, None],
        ["resolvers.b", 10, 40, 0, 1, None],
        ["transport.c", 15, 35, 1, 1, None],
        ["resolvers.b", 50, 60, 0, 1, "UpstreamError"],
    ])
    assert stats.self_ns["pipeline.a"] == [60]
    assert stats.self_ns["resolvers.b"] == [10, 10]
    assert stats.outcome_ns[("resolvers.b", "UpstreamError")] == [10]
    assert stats.layer_request_self_ns["resolvers"][1] == 20


def test_missing_target_is_absent_not_fatal():
    tracer = Tracer()
    tracer.install([("refs.store:RefStore.no_such_method", "store.gone"),
                    ("refs.no_such_module:f", "gone.too"),
                    ("refs.identifiers:parse_doi", "identifiers.parse_doi")])
    try:
        import refs.identifiers

        refs.identifiers.parse_doi("10.1000/x")
    finally:
        tracer.uninstall()
    assert tracer.absent == {"store.gone", "gone.too"}
    assert [s[0] for s in tracer.spans] == ["identifiers.parse_doi"]
    assert not hasattr(refs.identifiers.parse_doi, "__wrapped__")


def test_ads_bibtex_export_matches_the_fixtures():
    from refs.resolvers import ExportFormat, fetch_ads_export
    from refs import parse_bibcode

    fake = FakeUpstream.from_fixture_dir(FIXTURES, TOKEN)
    recorded = FixtureTransport.from_dir(FIXTURES)
    bibcodes = [parse_bibcode("2017JQSRT.203....3G")]
    assert fetch_ads_export(bibcodes, ExportFormat.BIBTEX, CFG, fake) == fetch_ads_export(
        bibcodes, ExportFormat.BIBTEX, CFG, recorded)


def test_only_time_outside_injected_wait_is_scaled():
    from calibrate import NOMINAL_US
    from workloads import Window

    window = Window(ops=[(50.0, 40.0), (2.0, 0.0)], reference_us=[2 * NOMINAL_US])
    assert window.scaled_ms() == [45.0, 1.0]


def test_op_latency_is_the_median_of_group_means():
    from calibrate import NOMINAL_US
    from workloads import Outcome, Window

    def op_ms(group):
        out = Outcome(group=group, child_peak_kb=1024)
        out.windows = [Window(ops=[(ms, 0.0)], reference_us=[NOMINAL_US]) for ms in (1, 5, 3, 8, 30, 40, 7)]
        return out.end_to_end()["op_ms_p50"]

    assert op_ms(1) == 7.0
    # Pairs (1, 5), (3, 8), (30, 40); the unpaired 7 is a cycle cut short.
    assert op_ms(2) == 5.5
    assert op_ms(3) == pytest.approx((3.0 + 78.0 / 3) / 2)


def test_setup_time_is_scaled_by_the_commit_reference(tmp_path):
    from calibrate import NOMINAL_COMMIT_MS, CommitReference
    from workloads import SetupClock

    commit_ref = CommitReference(tmp_path / "reference.db")
    try:
        clock = SetupClock(commit_ref, program_s=3.0, reference_ms=[NOMINAL_COMMIT_MS * 2] * 3)
        assert clock.scaled_s() == 1.5
        clock.calibrate()
        assert len(clock.reference_ms) == 4 and clock.reference_ms[-1] > 0
    finally:
        commit_ref.close()
    assert list(tmp_path.iterdir()) == []


def test_every_span_metric_and_overhead_is_named_in_benchmark_json():
    from layers import E2E_UNITS, PER_LAYER_UNITS, SPAN_METRICS

    assert set(SPAN_METRICS) <= set(PER_LAYER_UNITS)
    assert {f"overhead.{name}" for name in E2E_UNITS} <= set(PER_LAYER_UNITS)
    assert {PER_LAYER_UNITS[name] for name in SPAN_METRICS} <= {"us", "ms"}
