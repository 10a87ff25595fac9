"""The acceptance gate: one test per criterion, each at its stated tolerance.

A summary section at the end of the pytest run prints one PASS/FAIL line
per criterion (see conftest.pytest_terminal_summary).
"""

from __future__ import annotations

import random
import socket
import time

import pytest

from refs import (
    BibRecord,
    FixtureTransport,
    Pages,
    RefEntry,
    RefStore,
    RenderFormat,
    ResolutionPath,
    bibtex_to_record,
    escape_html,
    make_author,
    parse_bibcode,
    parse_doi,
    render_bibtex,
    render_html,
    resolve_reference,
)
from refs.resolvers import (
    Upstream,
    ads_doc_to_record,
    csl_to_record,
    fetch_ads_docs,
    fetch_csl_json,
)

from conftest import FIXTURE_DIR, GOLDEN_DIR, CountingTransport, NetworkBlockedError, unsynced
from corpus import build_corpus_entries

OVERLAP_DOIS = [
    "10.1016/j.jqsrt.2017.06.038",
    "10.1051/0004-6361/201322068",
    "10.1086/670067",
    "10.1016/j.jms.2016.06.007",
    "10.1093/mnras/stw2949",
    "10.3847/1538-4365/aa8e94",
]


def random_bibcode(rng: random.Random) -> str:
    """One structurally valid 19-character bibcode, built column by column."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    year = f"{rng.randrange(1000, 3000):04d}"
    journal = "".join(rng.choice(letters + "&") for _ in range(rng.randrange(1, 6))).ljust(5, ".")
    volume = rng.choice(
        ["".join(rng.choice("0123456789") for _ in range(rng.randrange(1, 5))),
         "conf", "meet", "book", "proc"]
    ).rjust(4, ".")
    if rng.random() < 0.1:
        middle = "".join(rng.choice("0123456789") for _ in range(5))  # page overflow
    else:
        qualifier = rng.choice(".ELP" + "QRSTUVWXYZ")
        page = "".join(rng.choice("0123456789") for _ in range(rng.randrange(0, 5))).rjust(4, ".")
        middle = qualifier + page
    author = rng.choice(letters + ".")
    return year + journal + volume + middle + author


def test_criterion_1_bibcode_grammar():
    b = parse_bibcode("2017JQSRT.203....3G")
    assert b.year == 2017
    assert b.volume == "203"
    assert b.page == "3"
    assert b.author_initial == "G"
    assert b.journal == "JQSRT"

    rng = random.Random(1986)
    codes = [random_bibcode(rng) for _ in range(10_000)]
    t0 = time.perf_counter()
    failures = sum(1 for raw in codes if parse_bibcode(raw).text != raw)
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 1.0, f"roundtrip of 10,000 bibcodes took {elapsed:.2f}s"


def test_criterion_2_escape_table():
    table = {"&": "&amp;", "<": "&lt;", '"': "&quot;", "'": "&#x27;", ">": "&gt;"}

    def oracle(s: str) -> str:
        return "".join(table.get(c, c) for c in s)

    rng = random.Random(2019)

    def random_unicode(n: int) -> str:
        out = []
        while len(out) < n:
            cp = rng.randrange(0x110000)
            if 0xD800 <= cp <= 0xDFFF:
                continue
            out.append(chr(cp))
        return "".join(out)

    t0 = time.perf_counter()
    for i in range(128):
        assert escape_html(chr(i)) == oracle(chr(i))
    every_ascii = "".join(chr(i) for i in range(128))
    assert escape_html(every_ascii) == oracle(every_ascii)
    for _ in range(1000):
        s = random_unicode(rng.randrange(0, 64))
        assert escape_html(s) == oracle(s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"escape checks took {elapsed:.2f}s"


def test_criterion_3_field_order_and_goldens():
    entries = build_corpus_entries()
    assert len(entries) == 20
    for entry in entries:
        body = render_html(entry).body
        record = entry.records[0]
        pieces = []
        if entry.note:
            pieces.append(escape_html(entry.note))
        if record.authors:
            pieces.append(", ".join(escape_html(a.formatted) for a in record.authors))
        if record.title:
            pieces.append("&quot;" + escape_html(record.title) + "&quot;")
        if record.journal:
            pieces.append("<i>" + escape_html(record.journal) + "</i>")
        if record.volume:
            pieces.append("<b>" + escape_html(record.volume) + "</b>")
        if record.pages:
            pieces.append(record.pages.formatted)
        pieces.append(f"({record.year})" if record.year else "(n.d.)")
        if record.doi_url:
            pieces.append(f'<a href="{record.doi_url}">')
        if record.ads_url:
            pieces.append(f'<a href="{record.ads_url}">')
        pos = 0
        for piece in pieces:
            idx = body.index(piece, pos)
            assert idx >= pos, f"{piece!r} out of order in {body!r}"
            pos = idx + len(piece)

    rendered = "\n".join(render_html(e).body for e in entries) + "\n"
    golden = (GOLDEN_DIR / "html_corpus.html").read_text(encoding="utf-8")
    assert rendered == golden, "HTML corpus deviates from the checked-in golden file"


def test_criterion_4_bibtex_completeness_and_roundtrip():
    record = BibRecord(
        title="A fully populated record: 100% of fields & then_some",
        authors=[make_author("Iouli E.", "Gordon"), make_author("Laurence S.", "Rothman")],
        journal="Journal of Quantitative Spectroscopy and Radiative Transfer",
        volume="203",
        number="C",
        pages=Pages("3", "69"),
        year=2017,
        publisher="Elsevier BV",
        doi=parse_doi("10.1016/j.jqsrt.2017.06.038"),
    )
    body = render_bibtex(RefEntry(records=[record])).body
    for field in ("title", "author", "journal", "volume", "number", "pages", "year", "publisher"):
        assert f"\n    {field} = {{" in body, f"missing field {field}"
    assert bibtex_to_record(body) == record


def test_criterion_5_pipeline_branching():
    cfg = _cfg()
    counting = CountingTransport(FixtureTransport.from_dir(FIXTURE_DIR))
    report = resolve_reference(parse_doi(OVERLAP_DOIS[0]), cfg=cfg, transport=counting)
    assert report.path_taken is ResolutionPath.ADS
    assert counting.count("doi.org") == 0
    assert set(report.renders) == set(RenderFormat)

    counting = CountingTransport(FixtureTransport.from_dir(FIXTURE_DIR))
    report = resolve_reference(parse_doi("10.18434/t4w30f"), cfg=cfg, transport=counting)
    assert report.path_taken is ResolutionPath.FALLBACK
    negotiations = [r for r in counting.requests if "doi.org" in r.url]
    assert sorted(r.accept for r in negotiations) == [
        "application/vnd.citationstyles.csl+json",
        "application/x-bibtex",
    ]
    assert set(report.renders) == set(RenderFormat)


def test_criterion_6_dual_path_equivalence():
    assert len(OVERLAP_DOIS) >= 5
    upstream = Upstream(FixtureTransport.from_dir(FIXTURE_DIR), _cfg())
    for raw in OVERLAP_DOIS:
        doi = parse_doi(raw)
        docs = fetch_ads_docs(doi, upstream)
        assert docs, f"{doi} missing from the ADS fixtures"
        via_ads = ads_doc_to_record(docs[0], queried_doi=doi)
        via_fallback = csl_to_record(fetch_csl_json(doi, upstream))
        assert via_ads.doi == via_fallback.doi, raw
        assert via_ads.year == via_fallback.year, raw
        assert via_ads.volume == via_fallback.volume, raw
        assert via_ads.pages.first == via_fallback.pages.first, raw


def test_criterion_7_store_durability_and_id_permanence(tmp_path):
    path = tmp_path / "refs.db"
    rng = random.Random(160)
    expected: dict[int, tuple] = {}
    allocated: list[int] = []

    def snapshot(entry: RefEntry):
        return (tuple(entry.records), entry.note)

    t0 = time.perf_counter()
    store = RefStore(path)
    for cycle in range(500):
        action = rng.random()
        if action < 0.6 or not expected:
            n = rng.randrange(1, 4)
            records = [
                BibRecord(
                    title=f"Cycle {cycle} record {j} éΔ",
                    authors=[make_author("A. B.", f"Surname{cycle}")],
                    journal=rng.choice(["JQSRT", "A&A", None]),
                    volume=rng.choice([str(rng.randrange(1, 999)), "A7", None]),
                    pages=rng.choice([Pages(str(rng.randrange(1, 9999))), None]),
                    year=rng.choice([rng.randrange(1500, 2999), None]),
                    doi=parse_doi(f"10.7777/c{cycle}.{j}"),
                )
                for j in range(n)
            ]
            note = f"note {cycle}" if rng.random() < 0.3 else None
            gid = store.add_entry(records, note=note)
            assert gid not in allocated, "global ID reused"
            assert not allocated or gid > allocated[-1], "global ID decreased"
            allocated.append(gid)
            expected[gid] = snapshot(store.get_entry(gid))
        elif action < 0.8:
            victim = rng.choice(sorted(expected))
            store.delete_entry(victim)
            del expected[victim]
        else:
            store.close()
            store = RefStore(path)

    store.close()
    store = RefStore(path)
    assert [e.global_id for e in store.list_entries()] == sorted(expected)
    for gid, snap in expected.items():
        assert snapshot(store.get_entry(gid)) == snap, f"entry {gid} changed across reopen"

    ids = sorted(expected)[:10]
    a1, b1 = store.export_bundle(ids, tmp_path / "one")
    a2, b2 = store.export_bundle(ids, tmp_path / "two")
    assert a1.read_bytes() == a2.read_bytes()
    assert b1.read_bytes() == b2.read_bytes()
    store.close()

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"500 store cycles took {elapsed:.2f}s"


@pytest.mark.parametrize("target_id", [2, 663])
def test_criterion_8_nested_labeling(tmp_path, target_id):
    with RefStore(tmp_path / "refs.db") as store:
        with unsynced(store):
            for i in range(1, target_id):
                store.add_entry([BibRecord(title=f"Filler {i}", year=2000,
                                           doi=parse_doi(f"10.8888/fill.{i}"))])
        gid = store.add_entry(
            [
                BibRecord(title="Nested one", authors=[make_author("A.", "One")],
                          year=2001, doi=parse_doi("10.8888/nested.1")),
                BibRecord(title="Nested two", authors=[make_author("B.", "Two")],
                          year=2002, doi=parse_doi("10.8888/nested.2")),
            ]
        )
        assert gid == target_id
        html_path, _ = store.export_bundle([gid], tmp_path / "out")
    html = html_path.read_text(encoding="utf-8")
    assert f"{target_id}a. " in html
    assert f"{target_id}b. " in html


def test_criterion_9_offline_enforcement():
    # The session-wide guard must make any socket connection attempt fail.
    with pytest.raises(NetworkBlockedError):
        socket.create_connection(("127.0.0.1", 9))
    transport = FixtureTransport.from_dir(FIXTURE_DIR)
    assert transport.is_live is False
    # The suite's wall-time budget is reported in the terminal summary.


def _cfg():
    from refs import AdsConfig

    return AdsConfig(token="", backoff_base=0.0)
