"""End-to-end CLI tests, all offline against the fixture corpus."""

from __future__ import annotations

import ast
import contextlib
import html
import io
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

import refs
import refs.cli
import refs.fileio
import refs.formats
import refs.render
import refs.resolvers
import refs.store
import refs.transport
from refs import (
    BibRecord,
    CrossRefConflictError,
    FixtureMissingError,
    FixtureTransport,
    HttpRequest,
    InvalidDoiError,
    MissingEntryError,
    RefsError,
    RefStore,
    StoreError,
    make_author,
    parse_doi,
)
from refs.bibtex import clean_value
from refs.cli import EXIT_RESOLUTION, UsageError, main
from refs.model import Pages

from conftest import FIXTURE_DIR, GOLDEN_DIR, exchange, fallback_exchanges, unsynced
from fakes import MALFORMED_ARCHIVES, MALFORMED_EXCHANGES, FakeNetwork, FakeResponse, header
from recorded import (
    MATCHED, NODE_CHANGES, RECORDED, RECORDED_ANSWERS, REPLACEMENTS, with_node,
)

HITRAN = "10.1016/j.jqsrt.2017.06.038"
NIST = "10.18434/t4w30f"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("REFS_DB", "REFS_FIXTURES", "REFS_ADS_TOKEN"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "refs.db")


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def offline(*argv: str, db: str) -> list[str]:
    return [*argv, "--db", db, "--offline", "--fixtures", str(FIXTURE_DIR)]


def write_fixtures(tmp_path: Path, exchanges: list[dict]) -> Path:
    """A fixture directory holding one archive of these recorded exchanges."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "recorded.json").write_text(json.dumps({"entries": exchanges}))
    return fixtures


def hitran_search_answered(tmp_path: Path, answer) -> tuple[Path, int]:
    """The recorded ADS archive, in a fixture directory of its own, with the response to
    the HITRAN DOI search replaced by ``answer(response)``: the archive and that entry's index."""
    entries = json.loads((FIXTURE_DIR / "ads.json").read_text(encoding="utf-8"))["entries"]
    search = refs.resolvers.ads_search_url(refs.resolvers.AdsConfig(),
                                           refs.resolvers.ads_doi_query(parse_doi(HITRAN)))
    index = next(i for i, e in enumerate(entries) if e["request"]["url"] == search)
    entries[index]["response"] = answer(entries[index]["response"])
    return write_fixtures(tmp_path, entries) / "recorded.json", index


class TestAdd:
    def test_add_by_doi_prints_id_and_path(self, capsys, db_path):
        code, out, _ = run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        assert code == 0
        assert out == "id=1 path=ads\n"

    def test_add_fallback_doi(self, capsys, db_path):
        code, out, _ = run(capsys, *offline("add", "--doi", "10.18434/t4w30f", db=db_path))
        assert code == 0
        assert out == "id=1 path=fallback\n"

    def test_a_lone_surrogate_in_a_recorded_body_exits_2_naming_the_entry(self, capsys, db_path,
                                                                          tmp_path):
        archive, index = hitran_search_answered(
            tmp_path, lambda response: {**response, "body": "\ud800" + response["body"]})
        assert run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline",
                   "--fixtures", str(archive.parent)) == (
            EXIT_RESOLUTION, "", f"refs: {archive} entry {index} is not a recorded exchange:"
            " the response body holds a lone surrogate, which UTF-8 cannot encode\n")

    def test_a_recorded_header_that_is_not_text_exits_2_naming_the_entry(self, capsys, db_path,
                                                                          tmp_path):
        # Replayed, the number reached the Retry-After reader and ended the add in a traceback.
        archive, index = hitran_search_answered(
            tmp_path, lambda response: {"status": 429, "headers": {"Retry-After": 5}})
        assert run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline",
                   "--fixtures", str(archive.parent)) == (
            EXIT_RESOLUTION, "", f"refs: {archive} entry {index} is not a recorded exchange:"
            " the response header Retry-After is not text\n")
        assert not Path(db_path).exists()

    def test_failed_ads_search_is_a_warning_on_stderr(self, capsys, db_path, tmp_path,
                                                      monkeypatch):
        import refs.resolvers

        monkeypatch.setattr(refs.resolvers, "_sleep", lambda s: None)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "doi_org.json").write_text((FIXTURE_DIR / "doi_org.json").read_text())
        url = refs.resolvers.ads_search_url(refs.resolvers.AdsConfig(), f'doi:"{HITRAN}"')
        unavailable = exchange(url, "Service Unavailable", status=503)
        (fixtures / "ads.json").write_text(json.dumps({"entries": [unavailable]}))
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert code == 0
        assert out == "id=1 path=fallback\n"
        assert "warning: ADS DOI search failed: " in err
        assert "answered 503 on all 3 attempts" in err

    def test_offline_replay_retries_without_waiting(self, capsys, db_path, monkeypatch):
        import refs.resolvers

        sleeps = []
        monkeypatch.setattr(refs.resolvers, "_sleep", sleeps.append)
        code, out, err = run(capsys, *offline("add", "--doi", "10.5555/flaky", db=db_path))
        assert code == 2
        assert out == ""
        assert "resolution failed" in err and "answered 500 on all 3 attempts" in err
        assert sleeps == []

    def test_offline_replay_waits_out_no_retry_after(self, capsys, db_path, tmp_path,
                                                     monkeypatch):
        import refs.resolvers

        sleeps = []
        monkeypatch.setattr(refs.resolvers, "_sleep", sleeps.append)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "doi_org.json").write_text((FIXTURE_DIR / "doi_org.json").read_text())
        url = refs.resolvers.ads_search_url(refs.resolvers.AdsConfig(), f'doi:"{HITRAN}"')
        throttled = exchange(url, "", status=429, headers={"Retry-After": "2"})
        (fixtures / "ads.json").write_text(json.dumps({"entries": [throttled]}))
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert code == 0
        assert out == "id=1 path=fallback\n"
        assert "answered 429 on all 3 attempts" in err
        assert sleeps == []

    def test_neither_doi_nor_query_is_usage_error(self, capsys, db_path):
        code, out, err = run(capsys, "add", "--db", db_path, "--offline",
                             "--fixtures", str(FIXTURE_DIR))
        assert code == 64
        assert out == ""
        assert "exactly one" in err

    def test_both_doi_and_query_is_usage_error(self, capsys, db_path):
        code, _, _ = run(capsys, *offline("add", "--doi", HITRAN, "--query", "t", db=db_path))
        assert code == 64

    def test_blank_query_is_usage_error_and_creates_no_store(self, capsys, db_path):
        code, out, err = run(capsys, *offline("add", "--query", " \t ", db=db_path))
        assert code == 64
        assert out == ""
        assert err == "refs: --query needs text that is not blank\n"
        assert not Path(db_path).exists()

    def test_invalid_doi_exits_1(self, capsys, db_path):
        code, _, err = run(capsys, *offline("add", "--doi", "not-a-doi", db=db_path))
        assert code == 1
        assert "not-a-doi" in err

    def test_resolution_failure_exits_2(self, capsys, db_path):
        code, _, err = run(capsys, *offline("add", "--doi", "10.1000/unregistered", db=db_path))
        assert code == 2
        assert "resolution failed" in err

    def test_query_mode_marks_unverified(self, capsys, db_path):
        query = "The HITRAN2016 molecular spectroscopic database"
        code, out, err = run(capsys, *offline("add", "--query", query, db=db_path))
        assert code == 0
        assert out == "id=1 path=ads unverified\n"
        assert err == (
            f"refs: warning: bibliography for query {query!r} resolved by keyword match to "
            f"{HITRAN}; it may belong to a different article\n"
        )

    @pytest.mark.parametrize("text, doi", MATCHED, ids=[str(doi) for _, doi in MATCHED])
    def test_a_query_stores_and_renders_what_add_doi_of_its_match_does(
            self, capsys, tmp_path, text, doi):
        """Only the unverified mark and the first warning tell the two adds apart."""
        results = []
        for option, subject in (("--doi", str(doi)), ("--query", text)):
            db = str(tmp_path / f"{option[2:]}.db")
            added = run(capsys, *offline("add", option, subject, db=db))
            renders = [run(capsys, "render", "1", "--format", fmt.value, "--db", db)
                       for fmt in refs.formats.RenderFormat]
            out_dir = tmp_path / option[2:]
            run(capsys, "export", "--all", "-o", str(out_dir), "--db", db)
            bundle = [path.read_bytes() for path in sorted(out_dir.iterdir())]
            results.append((added, renders, bundle))
        (by_doi, renders, bundle), (by_query, *rest) = results
        assert rest == [renders, bundle]
        keyword = (f"refs: warning: bibliography for query {text!r} resolved by keyword match"
                   f" to {doi}; it may belong to a different article\n")
        code, out, err = by_doi
        assert code == 0
        assert by_query == (code, out.replace("\n", " unverified\n"), keyword + err)

    def test_query_for_a_stored_doi_is_answered_from_the_store(self, capsys, db_path,
                                                               monkeypatch):
        from refs.transport import FixtureTransport

        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        urls = []
        execute = FixtureTransport.execute

        def counting(self, request):
            urls.append(request.url)
            return execute(self, request)

        monkeypatch.setattr(FixtureTransport, "execute", counting)
        query = "The HITRAN2016 molecular spectroscopic database"
        code, out, err = run(capsys, *offline("add", "--query", query, db=db_path))
        assert code == 0
        assert out == "id=1 path=ads unverified\n"
        assert [url.split("?")[0] for url in urls] == ["https://api.crossref.org/works"]
        assert err == (
            f"refs: warning: bibliography for query {query!r} resolved by keyword match to "
            f"{HITRAN}; it may belong to a different article\n"
            f"refs: warning: DOI {HITRAN} is already stored as entry 1\n"
        )
        with RefStore(db_path) as store:
            assert store.live_ids() == [1]

    def test_a_doi_whose_old_set_key_named_another_entry_is_added_in_either_order(
            self, capsys, tmp_path):
        # Up to schema version 5 the DOI-set key joined DOIs with "|", which a DOI may hold.
        joined = "10.1234/a|10.1234/b"
        csl = json.dumps({"type": "journal-article", "DOI": joined, "title": "Joined"})
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "joined.json").write_text(json.dumps(
            {"entries": fallback_exchanges(parse_doi(joined), csl, "@misc{J, title={Joined}}")}))
        parts = [BibRecord(title="A", doi=parse_doi("10.1234/a")),
                 BibRecord(title="B", doi=parse_doi("10.1234/b"))]
        for parts_first, listed in ((True, "1\tA\n2\tJoined\n"), (False, "1\tJoined\n2\tA\n")):
            db = str(tmp_path / f"{parts_first}.db")
            if parts_first:
                with RefStore(db) as store:
                    store.add_entry(parts)
            code, out, err = run(capsys, "add", "--doi", joined, "--db", db, "--offline",
                                 "--fixtures", str(fixtures))
            assert (code, out, err) == (0, f"id={1 + parts_first} path=fallback\n", "")
            if not parts_first:
                with RefStore(db) as store:
                    assert store.add_entry(parts) == 2
            assert run(capsys, "list", "--db", db) == (0, listed, "")

    def test_a_lone_surrogate_in_the_citation_json_exits_2_and_leaves_the_store(
            self, capsys, db_path, tmp_path):
        # doi.org may escape a lone surrogate in its JSON, and no store can hold one.
        doi = "10.1234/surrogate"
        csl = '{"type": "journal-article", "DOI": "%s", "title": "A \\ud800 B"}' % doi
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "surrogate.json").write_text(json.dumps(
            {"entries": fallback_exchanges(parse_doi(doi), csl, "@misc{S, title={A B}}")}))
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        before = Path(db_path).read_bytes()
        code, out, err = run(capsys, "add", "--doi", doi, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert (code, out) == (2, "")
        assert err.startswith("refs: reference resolution failed: ") and err.count("\n") == 1
        assert f"citation JSON for {doi} does not parse: " in err
        assert "surrogates not allowed" in err
        assert Path(db_path).read_bytes() == before

    def test_citation_json_nested_past_the_recursion_limit_exits_2_and_leaves_the_store(
            self, capsys, db_path, tmp_path):
        doi = "10.1234/nested"
        exchanges = fallback_exchanges(parse_doi(doi), "[" * 100_000, "@misc{N, title={N}}")
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        before = Path(db_path).read_bytes()
        code, out, err = run(capsys, "add", "--doi", doi, "--db", db_path, "--offline",
                             "--fixtures", str(write_fixtures(tmp_path, exchanges)))
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err.endswith(f"; fallback path: citation JSON for {doi} does not parse:"
                            " JSON nested too deeply\n")
        assert err.count("\n") == 1
        assert Path(db_path).read_bytes() == before

    def test_a_crossref_answer_nested_past_the_recursion_limit_exits_2_and_leaves_the_store(
            self, capsys, db_path, tmp_path):
        nested = exchange(refs.resolvers.crossref_query_url("A title"),
                          '{"message": {"items": ' + "[" * 100_000, accept="application/json")
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        before = Path(db_path).read_bytes()
        code, out, err = run(capsys, "add", "--query", "A title", "--db", db_path, "--offline",
                             "--fixtures", str(write_fixtures(tmp_path, [nested])))
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err == "refs: malformed CrossRef response: JSON nested too deeply\n"
        assert Path(db_path).read_bytes() == before

    # A string author was read as a list of names: one author per letter.
    @pytest.mark.parametrize("fields, cause", [
        ({"year": "1200"}, "year out of range [1500, 2999]: 1200"),
        ({"year": "20x7"}, "'year' holds '20x7', not a year"),
        ({"author": "Gordon"}, "author is not a list of text"),
        ({"bibcode": "2017JQ{RT.203....3G"},
         "bibcode holds '{', '}' or ',', which its BibTeX key cannot: '2017JQ{RT.203....3G'"),
        ({"bibcode": "2017JQSRT 203....3G"},
         "bibcode holds whitespace or a control character, which its BibTeX key cannot:"
         " '2017JQSRT 203....3G'"),
    ], ids=["year-1200", "year-20x7", "author-str", "bibcode-brace", "bibcode-space"])
    def test_an_ads_doc_with_a_value_the_model_refuses_falls_back(self, capsys, db_path,
                                                                  tmp_path, fields, cause):
        doi = "10.1234/ads-year"
        csl = json.dumps({"type": "journal-article", "DOI": doi, "title": "From doi.org"})
        exchanges = fallback_exchanges(parse_doi(doi), csl, "@misc{D, title={From doi.org}}")
        doc = {"bibcode": "2017JQSRT.203....3G", "title": ["From ADS"], "doi": [doi], **fields}
        exchanges[0]["response"]["body"] = json.dumps({"response": {"numFound": 1, "docs": [doc]}})
        code, out, err = run(capsys, "add", "--doi", doi, "--db", db_path, "--offline",
                             "--fixtures", str(write_fixtures(tmp_path, exchanges)))
        assert (code, out) == (0, "id=1 path=fallback\n")
        assert err == f"refs: warning: ADS document for {doc['bibcode']} is unusable: {cause}\n"
        with RefStore(db_path) as store:
            assert store.get_entry(1).records[0].title == "From doi.org"

    @pytest.mark.parametrize("fields, cause", [
        ({"issued": {"date-parts": [[99999]]}}, "year out of range [1500, 2999]: 99999"),
        ({"issued": {"date-parts": [["abc"]]}}, "'issued' holds 'abc', not a year"),
        ({"issued": {"date-parts": [[float("nan")]]}}, "'issued' holds nan, not a year"),
        ({"author": "x"}, "author is not a list of objects"),
    ], ids=["year-99999", "year-abc", "year-nan", "author-str"])
    def test_citation_json_with_a_value_the_model_refuses_exits_2_and_leaves_the_store(
            self, capsys, db_path, tmp_path, fields, cause):
        doi = "10.1234/csl-refused"
        csl = json.dumps({"type": "journal-article", "DOI": doi, "title": "T", **fields})
        fixtures = write_fixtures(tmp_path, fallback_exchanges(parse_doi(doi), csl, "@misc{C}"))
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        before = Path(db_path).read_bytes()
        code, out, err = run(capsys, "add", "--doi", doi, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err.startswith("refs: reference resolution failed: ") and err.count("\n") == 1
        assert err.endswith(f"; fallback path: {cause}\n")
        assert Path(db_path).read_bytes() == before

    def test_a_query_match_with_a_year_the_model_refuses_exits_2_and_leaves_the_store(
            self, capsys, db_path, tmp_path):
        doi = parse_doi("10.1234/query-year")
        query = "An old title"
        csl = json.dumps({"DOI": doi.canonical, "title": query, "issued": {"date-parts": [[1200]]}})
        exchanges = [
            exchange(refs.resolvers.crossref_query_url(query),
                     json.dumps({"message": {"items": [{"DOI": doi.canonical}]}}),
                     accept="application/json"),
            *fallback_exchanges(doi, csl, "@misc{Q}"),
        ]
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        before = Path(db_path).read_bytes()
        code, out, err = run(capsys, "add", "--query", query, "--db", db_path, "--offline",
                             "--fixtures", str(write_fixtures(tmp_path, exchanges)))
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err == ("refs: reference resolution failed: ADS path: DOI not in ADS (empty DOI"
                       " search result); fallback path: year out of range [1500, 2999]: 1200\n")
        assert Path(db_path).read_bytes() == before

    @pytest.mark.parametrize("items", [[1], "abc", {"a": 1}, [{"DOI": HITRAN}, None]],
                             ids=["list-of-int", "str", "object", "second-not-object"])
    def test_a_crossref_answer_whose_items_are_not_objects_exits_2(self, capsys, db_path,
                                                                    tmp_path, items):
        exchanges = [exchange(refs.resolvers.crossref_query_url("A title"),
                              json.dumps({"message": {"items": items}}), accept="application/json")]
        code, out, err = run(capsys, "add", "--query", "A title", "--db", db_path, "--offline",
                             "--fixtures", str(write_fixtures(tmp_path, exchanges)))
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err == "refs: malformed CrossRef response: items is not a list of objects\n"
        with RefStore(db_path) as store:
            assert store.live_ids() == []

    @pytest.mark.parametrize("docs", [[1], "ab"], ids=["list-of-int", "str"])
    def test_a_query_whose_ads_answer_has_docs_that_are_not_objects_falls_back(
            self, capsys, db_path, tmp_path, docs):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURE_DIR, fixtures)
        url = refs.resolvers.ads_search_url(refs.resolvers.AdsConfig(), f'doi:"{HITRAN}"')
        # Loaded first, this answer wins over the recorded one.
        (fixtures / "0-ads.json").write_text(json.dumps(
            {"entries": [exchange(url, json.dumps({"response": {"docs": docs}}))]}))
        query = "The HITRAN2016 molecular spectroscopic database"
        code, out, err = run(capsys, "add", "--query", query, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert (code, out) == (0, "id=1 path=fallback unverified\n")
        assert err.splitlines()[1:] == [
            f"refs: warning: ADS DOI search failed: malformed ADS response from {url}:"
            " docs is not a list of objects"]

    def test_citation_json_whose_title_is_an_object_exits_2_and_leaves_the_store(
            self, capsys, db_path, tmp_path):
        doi = "10.1234/csl-title"
        csl = json.dumps({"type": "journal-article", "DOI": doi, "title": {"a": 1}})
        fixtures = write_fixtures(tmp_path, fallback_exchanges(parse_doi(doi), csl, "@misc{C}"))
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        before = Path(db_path).read_bytes()
        code, out, err = run(capsys, "add", "--doi", doi, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err.endswith("; fallback path: 'title' holds {'a': 1}, not text or a number\n")
        assert err.count("\n") == 1
        assert Path(db_path).read_bytes() == before

    def test_a_query_match_with_no_doi_exits_2(self, capsys, db_path, tmp_path):
        query = "A title"
        exchanges = [exchange(refs.resolvers.crossref_query_url(query),
                              json.dumps({"message": {"items": [{"title": [query]}]}}),
                              accept="application/json")]
        assert run(capsys, "add", "--query", query, "--db", db_path, "--offline",
                   "--fixtures", str(write_fixtures(tmp_path, exchanges))) == (
            EXIT_RESOLUTION, "", "refs: top CrossRef hit carries no DOI\n")
        with RefStore(db_path) as store:
            assert store.live_ids() == []

    def test_a_query_match_with_an_invalid_doi_exits_2(self, capsys, db_path, tmp_path):
        query = "A title"
        exchanges = [exchange(refs.resolvers.crossref_query_url(query),
                              json.dumps({"message": {"items": [{"DOI": "not a DOI"}]}}),
                              accept="application/json")]
        code, out, err = run(capsys, "add", "--query", query, "--db", db_path, "--offline",
                             "--fixtures", str(write_fixtures(tmp_path, exchanges)))
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err == ("refs: top CrossRef hit carries an invalid DOI:"
                       " not a valid DOI: 'not a DOI'\n")

    def test_repeat_add_returns_same_id_with_warning(self, capsys, db_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        code, out, err = run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        assert code == 0
        assert out == "id=1 path=ads\n"
        assert "already stored" in err

    def test_note_is_persisted(self, capsys, db_path):
        run(capsys, *offline("add", "--doi", HITRAN, "--note", "For intensities.", db=db_path))
        with RefStore(db_path) as store:
            assert store.get_entry(1).note == "For intensities."

    def test_offline_without_fixtures_is_usage_error(self, capsys, db_path):
        code, _, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline")
        assert code == 64
        assert "REFS_FIXTURES" in err

    def test_recording_while_offline_is_usage_error(self, capsys, db_path, tmp_path):
        archive = tmp_path / "recorded.json"
        assert run(capsys, *offline("add", "--doi", HITRAN, "--record-fixtures", str(archive),
                                    db=db_path)) == (
            64, "", "refs: --record-fixtures only makes sense in live mode\n")
        assert not archive.exists() and not Path(db_path).exists()

    @pytest.mark.parametrize("text", ["not json", '{"items": []}'], ids=["not-json", "no-entries"])
    def test_a_malformed_fixture_archive_exits_2_naming_it(self, capsys, db_path, tmp_path, text):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "bad.json").write_text(text)
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert (code, out) == (2, "")
        assert err.startswith(f"refs: {fixtures / 'bad.json'} is not a fixture archive: ")
        assert not Path(db_path).exists()

    @pytest.mark.parametrize("malformed, problem", [
        (lambda search: {"request": {"method": "GET"}}, "no request url"),
        (lambda search: {"request": search["request"]}, "no response object"),
        (lambda search: "x", "a str, not an object"),
    ], ids=["no-url", "no-response", "not-an-object"])
    def test_a_malformed_exchange_exits_2_naming_the_file_and_entry(
            self, capsys, db_path, tmp_path, malformed, problem):
        # Entry 1 is made from the recorded ADS search that the add sends; entry 0 is
        # another well-formed exchange.
        recorded = json.loads((FIXTURE_DIR / "ads.json").read_text(encoding="utf-8"))["entries"]
        search = next(e for e in recorded if "fl=author" in e["request"]["url"]
                      and "jqsrt.2017.06.038" in e["request"]["url"])
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "bad.json").write_text(json.dumps({"entries": [recorded[0], malformed(search)]}))
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline",
                             "--fixtures", str(fixtures))
        assert (code, out) == (2, "")
        assert err == f"refs: {fixtures / 'bad.json'} entry 1 is not a recorded exchange: {problem}\n"
        assert not Path(db_path).exists()

    def test_live_mode_without_token_fails_fast(self, capsys, db_path, no_connection):
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path)
        assert (code, out) == (64, "")
        assert err == "refs: the ADS token ($REFS_ADS_TOKEN or AdsConfig.token) is not set\n"
        assert not Path(db_path).exists()

    @pytest.mark.parametrize("token", ["s3cret\nX", "s3cret\r", "s3cret\x00", "s3cret\u00e9"],
                             ids=["newline", "carriage-return", "nul", "non-ascii"])
    def test_live_mode_with_a_token_no_header_can_carry_is_usage_error(
            self, capsys, db_path, monkeypatch, no_connection, token):
        # A dict, because os.environ cannot hold a NUL.
        monkeypatch.setattr(os, "environ", dict(os.environ, REFS_ADS_TOKEN=token))
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path)
        assert (code, out) == (64, "")
        assert err == ("refs: the ADS token ($REFS_ADS_TOKEN or AdsConfig.token) holds a character"
                       " that an HTTP header cannot carry\n")
        assert not Path(db_path).exists()

    def test_fixtures_from_environment(self, capsys, db_path, monkeypatch):
        monkeypatch.setenv("REFS_FIXTURES", str(FIXTURE_DIR))
        code, out, _ = run(capsys, "add", "--doi", HITRAN, "--db", db_path, "--offline")
        assert code == 0
        assert out == "id=1 path=ads\n"

    def test_stdout_is_byte_identical_across_runs(self, capsys, tmp_path):
        outs = []
        for name in ("one.db", "two.db"):
            code, out, _ = run(
                capsys, *offline("add", "--doi", HITRAN, db=str(tmp_path / name))
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


def scalar_texts(node) -> set[str]:
    """Each string or number node as text, raw and as the readers clean it."""
    if isinstance(node, (dict, list)):
        return set().union(*map(scalar_texts, node.values() if isinstance(node, dict) else node))
    if node is None or isinstance(node, bool):
        return set()
    return {str(node), " ".join(html.unescape(str(node)).split())}


RECORDED_SCALARS = {index: scalar_texts(body) for _, index, body, _ in RECORDED_ANSWERS}


@st.composite
def one_node_changed(draw) -> tuple[tuple[str, str], int, object]:
    """A recorded answer with one node, drawn at any depth, replaced or deleted: the add's
    subject, the answer's index in RECORDED and its changed body."""
    subject, index, body, paths = draw(st.sampled_from(RECORDED_ANSWERS))
    path = draw(st.sampled_from(paths))
    value = draw(NODE_CHANGES if path else st.sampled_from(REPLACEMENTS))
    return subject, index, with_node(body, path, value)


def record_texts(record: BibRecord) -> list[str]:
    """Every text field a stored record holds."""
    texts = [record.title, record.journal, record.volume, record.number, record.publisher]
    if record.pages:
        texts += [record.pages.first, record.pages.last]
    if record.bibcode:
        texts.append(record.bibcode.text)
    for author in record.authors:
        texts += [author.surname, *author.given_names]
    return [text for text in texts if text]


@pytest.fixture(scope="module")
def stored_before(tmp_path_factory) -> Path:
    """A store that already holds one entry, alone in its directory."""
    path = tmp_path_factory.mktemp("hostile") / "before.db"
    with RefStore(path) as store:
        store.add_entry([BibRecord(title="Stored before", doi=parse_doi("10.1234/before"))])
    return path


class TestHostileUpstream:
    def test_the_answers_changed_are_ads_searches_citation_json_and_crossref_searches(self):
        kinds = {(subject[0], "response" in body) for subject, _, body, _ in RECORDED_ANSWERS}
        assert kinds == {("--doi", True), ("--doi", False), ("--query", False)}

    @settings(max_examples=100, deadline=None)
    @given(one_node_changed())
    def test_one_changed_node_exits_0_or_2_and_stores_only_what_scalars_say(
            self, stored_before, changed):
        (kind, subject), index, body = changed
        entry = RECORDED[index]
        exchanges = [*RECORDED[:index], dict(entry, response=dict(entry["response"],
                                                                  body=json.dumps(body))),
                     *RECORDED[index + 1:]]
        before = stored_before.read_bytes()
        with tempfile.TemporaryDirectory(dir=stored_before.parent) as work:
            db = Path(work) / "refs.db"
            db.write_bytes(before)
            fixtures = write_fixtures(Path(work), exchanges)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["add", kind, subject, "--db", str(db), "--offline",
                             "--fixtures", str(fixtures)])
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, EXIT_RESOLUTION), err
            assert all(line.startswith("refs: ") for line in err.splitlines())
            if code:
                assert (out, err.count("\n")) == ("", 1)
                assert db.read_bytes() == before
                return
            with RefStore(db) as store:
                records = store.get_entry(int(out.split()[0].removeprefix("id="))).records
        scalars = set().union(scalar_texts(body), *(
            texts for i, texts in RECORDED_SCALARS.items() if i != index))
        for text in record_texts(records[0]):
            assert any(text in scalar for scalar in scalars), text


class TestRender:
    @pytest.fixture()
    def seeded(self, capsys, db_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        return db_path

    def test_bibtex_to_stdout(self, capsys, seeded):
        code, out, _ = run(capsys, "render", "1", "--format", "bibtex", "--db", seeded)
        assert code == 0
        assert out.startswith("@article{2017JQSRT.203....3G,")

    def test_html_line_has_two_trailing_links(self, capsys, seeded):
        code, out, _ = run(capsys, "render", "1", "--format", "html", "--db", seeded)
        assert code == 0
        body = out.rstrip("\n")
        assert body.count("<a href=") == 2
        assert body.rstrip().endswith("</a>")
        assert "doi.org" in body and "adsabs.harvard.edu" in body

    def test_only_the_requested_format_is_rendered(self, capsys, seeded, monkeypatch):
        def not_asked_for(entry):
            raise AssertionError("rendered a format that was not asked for")

        for name in ("render_html", "render_json", "render_bibtex"):
            monkeypatch.setattr(refs.render, name, not_asked_for)
        code, out, _ = run(capsys, "render", "1", "--format", "text", "--db", seeded)
        assert code == 0
        assert "HITRAN2016" in out

    @pytest.mark.parametrize("fmt", ["html", "bibtex"])
    def test_html_and_bibtex_are_read_not_rendered(self, capsys, seeded, monkeypatch, fmt):
        expected = run(capsys, "render", "1", "--format", fmt, "--db", seeded)

        def not_rendered(entry):
            raise AssertionError("rendered a stored format")

        for name in ("render_html", "render_bibtex"):
            monkeypatch.setattr(refs.render, name, not_rendered)
        assert run(capsys, "render", "1", "--format", fmt, "--db", seeded) == expected

    def test_fallback_entry_emits_the_bibtex_fetched_from_doi_org(self, capsys, db_path,
                                                                  tmp_path):
        archive = json.loads((FIXTURE_DIR / "doi_org.json").read_text(encoding="utf-8"))
        (fetched,) = [e["response"]["body"] for e in archive["entries"]
                      if e["request"]["url"] == "https://doi.org/10.18434/t4w30f"
                      and e["request"]["accept"] == "application/x-bibtex"]
        assert fetched.startswith("@misc{Kramida_2022,")
        for _ in range(2):
            code, out, _ = run(capsys, *offline("add", "--doi", "10.18434/t4w30f", db=db_path))
            assert (code, out) == (0, "id=1 path=fallback\n")
        # doi.org ends the entry with a newline, which is not kept.
        assert fetched.endswith("}\n")
        code, out, _ = run(capsys, "render", "1", "--format", "bibtex", "--db", db_path)
        assert (code, out) == (0, fetched.strip() + "\n")
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        code, hitran, _ = run(capsys, "render", "2", "--format", "bibtex", "--db", db_path)
        assert code == 0
        code, _, _ = run(capsys, "export", "--all", "-o", str(tmp_path / "out"), "--db", db_path)
        assert code == 0
        assert (tmp_path / "out" / "refs.bib").read_text(encoding="utf-8") == out + "\n" + hitran

    def test_unknown_id_exits_2(self, capsys, seeded):
        code, _, err = run(capsys, "render", "999", "--format", "json", "--db", seeded)
        assert code == 2
        assert "999" in err

    def test_default_format_is_text(self, capsys, seeded):
        code, out, _ = run(capsys, "render", "1", "--db", seeded)
        assert code == 0
        assert "<" not in out


class TestExport:
    def test_export_all_writes_bundle(self, capsys, db_path, tmp_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "export", "--all", "-o", str(out_dir), "--db", db_path)
        assert code == 0
        assert (out_dir / "refs.html").exists()
        assert (out_dir / "refs.bib").exists()
        assert str(out_dir / "refs.html") in out
        assert str(out_dir / "refs.bib") in out

    def test_export_all_loads_each_entry_once(self, capsys, db_path, tmp_path, monkeypatch):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))

        def list_entries(self, scope=None):
            raise AssertionError("export --all decoded every entry to find the IDs")

        monkeypatch.setattr(RefStore, "list_entries", list_entries)
        code, _, _ = run(capsys, "export", "--all", "-o", str(tmp_path), "--db", db_path)
        assert code == 0
        assert "HITRAN2016" in (tmp_path / "refs.html").read_text(encoding="utf-8")

    def test_export_all_reads_the_ids_and_the_texts_in_one_read(self, capsys, db_path, tmp_path,
                                                                 monkeypatch):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        run(capsys, *offline("add", "--doi", "10.1086/670067", db=db_path))
        live_ids, tried = RefStore.live_ids, []

        def live_ids_then_a_delete(self, scope=None):
            ids = live_ids(self, scope)
            other = sqlite3.connect(db_path, timeout=0.1, isolation_level=None)
            try:
                other.execute("UPDATE entries SET deleted = 1 WHERE global_id = 2")
                tried.append("committed")
            except sqlite3.OperationalError as exc:
                tried.append(str(exc))
            finally:
                other.close()
            return ids

        monkeypatch.setattr(RefStore, "live_ids", live_ids_then_a_delete)
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "export", "--all", "-o", str(out_dir), "--db", db_path)
        assert (code, err, len(tried)) == (0, "", 1)
        html_text = (out_dir / "refs.html").read_text(encoding="utf-8")
        assert "<p>1. " in html_text and "<p>2. " in html_text
        assert (out_dir / "refs.bib").read_text(encoding="utf-8").count("\n@") == 1

    def test_empty_store_exits_2(self, capsys, db_path, tmp_path):
        code, _, err = run(capsys, "export", "--all", "-o", str(tmp_path), "--db", db_path)
        assert code == 2
        assert "no entries" in err

    def test_unknown_ids_exit_2(self, capsys, db_path, tmp_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        code, _, _ = run(capsys, "export", "7", "-o", str(tmp_path), "--db", db_path)
        assert code == 2

    def test_neither_ids_nor_all_is_usage_error(self, capsys, db_path, tmp_path):
        code, _, _ = run(capsys, "export", "-o", str(tmp_path), "--db", db_path)
        assert code == 64

    def test_export_663_and_665_labels(self, capsys, db_path, tmp_path):
        # Seed a store whose IDs genuinely reach 663 and 665.
        with RefStore(db_path) as store, unsynced(store):
            for i in range(1, 663):
                store.add_entry([BibRecord(title=f"Filler {i}", year=2000,
                                           doi=parse_doi(f"10.9999/fill.{i}"))])
            gid_a = store.add_entry(
                [
                    BibRecord(title="Acetone cross sections, part one",
                              authors=[make_author("A.", "One")], journal="JQSRT",
                              volume="10", pages=Pages("1", "5"), year=2011,
                              doi=parse_doi("10.9999/acetone.1")),
                    BibRecord(title="Acetone cross sections, part two",
                              authors=[make_author("B.", "Two")], journal="JQSRT",
                              volume="11", pages=Pages("6", "9"), year=2012,
                              doi=parse_doi("10.9999/acetone.2")),
                ],
                note="Combined retrieval.",
            )
            store.add_entry([BibRecord(title="Filler 664", year=2001,
                                       doi=parse_doi("10.9999/fill.664"))])
            gid_b = store.add_entry([BibRecord(title="Formaldehyde cross sections",
                                               authors=[make_author("C.", "Three")],
                                               journal="JQSRT", volume="12",
                                               pages=Pages("10", "20"), year=2013,
                                               doi=parse_doi("10.9999/h2co.1"))])
        assert (gid_a, gid_b) == (663, 665)

        code, _, _ = run(capsys, "export", "663", "665", "-o", str(tmp_path), "--db", db_path)
        assert code == 0
        html = (tmp_path / "refs.html").read_text(encoding="utf-8")
        assert "663a. " in html and "663b. " in html
        assert "665. " in html
        assert "664" not in html


class TestCrossref:
    @pytest.fixture()
    def seeded(self, capsys, db_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        run(capsys, *offline("add", "--doi", "10.1086/670067", db=db_path))
        return db_path

    def test_attach_and_reattach(self, capsys, seeded):
        code, out, _ = run(capsys, "crossref", "H2C18O", "nu", "5", "1", "--db", seeded)
        assert code == 0 and out == ""
        code, _, _ = run(capsys, "crossref", "H2C18O", "nu", "5", "1", "--db", seeded)
        assert code == 0
        with RefStore(seeded) as store:
            assert store.lookup_crossref("H2C18O", "nu", 5) == 1

    def test_conflicting_remap_exits_3(self, capsys, seeded):
        run(capsys, "crossref", "H2C18O", "nu", "5", "1", "--db", seeded)
        code, _, err = run(capsys, "crossref", "H2C18O", "nu", "5", "2", "--db", seeded)
        assert code == 3
        assert "already mapped" in err

    def test_unknown_global_id_exits_2(self, capsys, seeded):
        code, _, _ = run(capsys, "crossref", "H2C18O", "nu", "5", "42", "--db", seeded)
        assert code == 2

    @pytest.mark.parametrize("argv, code", [
        (["crossref", "H2O", "nu", "1", "1"], 2), (["list"], 0), (["list", "--scope", "H2O"], 0),
        (["render", "1"], 2), (["export", "--all"], 2),
    ], ids=["crossref", "list", "list-scope", "render", "export"])
    def test_a_command_refused_or_reading_on_a_new_path_leaves_an_empty_file(
            self, capsys, tmp_path, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)  # where export would write
        db = tmp_path / "refs.db"
        assert run(capsys, *argv, "--db", str(db))[0] == code
        assert db.read_bytes() == b""
        assert [p.name for p in tmp_path.iterdir()] == ["refs.db"]

    @pytest.mark.parametrize("key, message", [
        (["", "nu", "5", "1"], "dataset_scope must be non-empty"),
        (["H2O", "", "5", "1"], "parameter must be non-empty"),
        (["H2O", "nu", "-1", "1"], "local_id must be >= 0, got -1"),
        (["H2O", "nu", "5", "0"], "global_id must be >= 1, got 0"),
    ], ids=["empty-scope", "empty-parameter", "negative-local-id", "global-id-below-1"])
    def test_a_key_the_model_refuses_is_usage_error_and_creates_no_store(self, capsys, db_path,
                                                                        key, message):
        code, out, err = run(capsys, "crossref", *key, "--db", db_path)
        assert (code, out, err) == (64, "", f"refs: {message}\n")
        assert not Path(db_path).exists()


class TestList:
    def test_lists_ids_and_titles(self, capsys, db_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        run(capsys, *offline("add", "--doi", "10.1086/670067", db=db_path))
        code, out, _ = run(capsys, "list", "--db", db_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("1\tThe HITRAN2016")
        assert lines[1].startswith("2\temcee")

    def test_scope_filter(self, capsys, db_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        run(capsys, *offline("add", "--doi", "10.1086/670067", db=db_path))
        run(capsys, "crossref", "H2O", "nu", "0", "2", "--db", db_path)
        code, out, _ = run(capsys, "list", "--scope", "H2O", "--db", db_path)
        assert code == 0
        assert out.startswith("2\t")
        assert "1\t" not in out

    def test_labels_of_untitled_and_authorless_entries(self, capsys, db_path):
        def label(entry):
            first = entry.records[0]
            return first.title or (first.authors[0].formatted if first.authors else "(untitled)")

        with RefStore(db_path) as store:
            store.add_entry([BibRecord(title="Titled", authors=[make_author("A.", "Bee")])])
            store.add_entry([BibRecord(authors=[make_author("Iouli E.", "Gordon"),
                                                make_author("L.", "Rothman")])])
            store.add_entry([BibRecord(authors=[make_author("", "HITRAN Collaboration")])])
            store.add_entry([BibRecord(year=2001)])
            store.add_entry([BibRecord(year=2002), BibRecord(title="Second record")])
            gone = store.add_entry([BibRecord(title="Deleted")])
            store.delete_entry(gone)
            store.attach_crossref("H2O", "nu", 0, 2)
            store.attach_crossref("H2O", "nu", 1, 4)
            expected = {
                scope: "".join(f"{e.global_id}\t{label(e)}\n"
                               for e in store.list_entries(scope=scope))
                for scope in (None, "H2O")
            }
        code, out, _ = run(capsys, "list", "--db", db_path)
        assert code == 0
        assert out == expected[None]
        assert out.splitlines()[1:5] == ["2\tI. E. Gordon", "3\tHITRAN Collaboration",
                                         "4\t(untitled)", "5\t(untitled)"]
        code, out, _ = run(capsys, "list", "--scope", "H2O", "--db", db_path)
        assert code == 0
        assert out == expected["H2O"] == "2\tI. E. Gordon\n4\t(untitled)\n"

    def test_a_line_break_or_tab_in_a_label_prints_as_a_space(self, capsys, db_path):
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        breaks = "".join(line[-1] for line in text.splitlines(keepends=True)[:-1])
        titles = ["Line one\nline\ttwo", f"A{breaks}\tB", clean_value("A&#8232;B")]
        with RefStore(db_path) as store:
            for title in titles:
                store.add_entry([BibRecord(title=title)])
            assert store.list_labels() == list(enumerate(titles, 1))
        code, out, _ = run(capsys, "list", "--db", db_path)
        assert code == 0
        assert out.splitlines() == ["1\tLine one line two", "2\tA" + " " * (len(breaks) + 1) + "B",
                                    "3\tA B"]

    def test_list_is_one_query_and_decodes_no_entry(self, capsys, tmp_path, monkeypatch,
                                                    statements):
        decoded = []

        def counting(global_id, note, records_json):
            decoded.append(global_id)
            return entry_from_row(global_id, note, records_json)

        entry_from_row = refs.store._entry_from_row
        monkeypatch.setattr(refs.store, "_entry_from_row", counting)
        queries = []
        for size in (5, 50):
            db = str(tmp_path / f"{size}.db")
            with RefStore(db) as store, unsynced(store):
                for i in range(size):
                    store.add_entry([BibRecord(title=f"T{i}", doi=parse_doi(f"10.1000/{i}"))])
                    store.attach_crossref("H2O", "nu", i, i + 1)
            for scope in ([], ["--scope", "H2O"]):
                statements.clear()
                code, out, _ = run(capsys, "list", *scope, "--db", db)
                assert code == 0
                assert len(out.splitlines()) == size
                queries.append([q for q in statements if not q.startswith("PRAGMA")])
        assert all(len(q) == 1 for q in queries)
        assert decoded == []


class TestUnreadableEntry:
    """A stored row that does not decode: untitled, its first author ``[["A."]]``."""

    @pytest.fixture()
    def damaged(self, capsys, db_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        conn = sqlite3.connect(db_path)
        (records_json,) = conn.execute("SELECT records FROM entries").fetchone()
        rows = json.loads(records_json)
        rows[0][:2] = ["", [["A."]]]
        with conn:
            conn.execute("UPDATE entries SET records = ?", (json.dumps(rows),))
        conn.close()
        return db_path

    @pytest.mark.parametrize("argv", [
        ["render", "1", "--format", "json"],
        ["render", "1", "--format", "text"],
        ["add", "--doi", HITRAN, "--offline", "--fixtures", str(FIXTURE_DIR)],
    ], ids=["render-json", "render-text", "repeat-add"])
    def test_reading_it_exits_3_and_leaves_the_file_unchanged(self, capsys, damaged, argv):
        before = Path(damaged).read_bytes()
        code, out, err = run(capsys, *argv, "--db", damaged)
        assert (code, out) == (3, "")
        assert err.startswith("refs: the records of entry 1 cannot be read: ")
        assert err.count("\n") == 1
        assert Path(damaged).read_bytes() == before

    def test_records_nested_past_the_recursion_limit_exit_3_and_leave_the_file_unchanged(
            self, capsys, damaged):
        with contextlib.closing(sqlite3.connect(damaged)) as conn, conn:
            conn.execute("UPDATE entries SET records = ?", ("[" * 100_000,))
        before = Path(damaged).read_bytes()
        code, out, err = run(capsys, "render", "1", "--format", "json", "--db", damaged)
        assert (code, out) == (3, "")
        assert err.startswith("refs: the records of entry 1 cannot be read: RecursionError: ")
        assert err.count("\n") == 1
        assert Path(damaged).read_bytes() == before

    # Each decoded, then rendered wrong or ended in a traceback with exit 1.
    @pytest.mark.parametrize("fmt, index, value", [
        ("text", 0, 5), ("json", 7, 2001.0), ("text", 1, [["Élodie", "Gordon"]]),
    ], ids=["title-int", "year-float", "given-names-text"])
    def test_a_field_of_a_json_type_the_row_codec_never_writes_exits_3(
            self, capsys, db_path, fmt, index, value):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        with contextlib.closing(sqlite3.connect(db_path)) as conn, conn:
            (records_json,) = conn.execute("SELECT records FROM entries").fetchone()
            rows = json.loads(records_json)
            rows[0][index] = value
            conn.execute("UPDATE entries SET records = ?", (json.dumps(rows),))
        before = Path(db_path).read_bytes()
        code, out, err = run(capsys, "render", "1", "--format", fmt, "--db", db_path)
        assert (code, out) == (3, "")
        assert err.startswith("refs: the records of entry 1 cannot be read: TypeError: ")
        assert err.count("\n") == 1
        assert Path(db_path).read_bytes() == before

    def test_list_prints_the_stored_label_and_leaves_the_file_unchanged(self, capsys, damaged):
        # The label was written at add, so listing decodes no records.
        before = Path(damaged).read_bytes()
        assert run(capsys, "list", "--db", damaged) == (
            0, "1\tThe HITRAN2016 molecular spectroscopic database\n", "")
        assert Path(damaged).read_bytes() == before


class TestArgumentErrors:
    @pytest.mark.parametrize("argv, message", [
        ([], "refs: error: the following arguments are required: command"),
        (["render", "abc"], "refs render: error: argument id: invalid int value: 'abc'"),
        (["render", "1", "--format", "xml"],
         "refs render: error: argument --format: invalid choice: 'xml'"),
    ], ids=["no-command", "non-integer-id", "unknown-format"])
    def test_argparse_refusals_exit_64_with_its_own_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage: refs")
        assert err.splitlines()[-1].startswith(message)

    # "\udcff" is how Python decodes the argv byte 0xff, which is not UTF-8.
    @pytest.mark.parametrize("argv, name", [
        (["add", "--doi", HITRAN, "--note", "bad \udcff note"], "--note"),
        (["add", "--query", "HITRAN \udcff"], "--query"),
        (["crossref", "H2O\udcff", "nu", "1", "1"], "scope"),
        (["crossref", "H2O", "nu\udcff", "1", "1"], "parameter"),
        (["list", "--scope", "\udcffH2O"], "--scope"),
    ], ids=["note", "query", "crossref-scope", "crossref-parameter", "list-scope"])
    def test_a_text_argument_that_is_not_utf8_exits_64_naming_it(self, capsys, db_path, argv,
                                                                   name):
        code, out, err = run(capsys, *argv, "--db", db_path)
        assert (code, out) == (64, "")
        assert f"error: argument {name}: " in err and err.endswith(" is not UTF-8 text\n")
        assert "Traceback" not in err
        assert not Path(db_path).exists()

    def test_path_arguments_that_are_not_utf8_still_work(self, capsys, tmp_path, monkeypatch):
        db = str(tmp_path / "refs\udcff.db")
        fixtures = tmp_path / "fixtures\udcff"
        shutil.copytree(FIXTURE_DIR, fixtures)
        assert run(capsys, "add", "--doi", HITRAN, "--db", db, "--offline",
                   "--fixtures", str(fixtures)) == (0, "id=1 path=ads\n", "")
        out_dir = tmp_path / "out\udcff"
        # A process's stdout writes such a path back as the bytes it came from.
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["export", "--all", "--db", db, "-o", str(out_dir)]) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == os.fsencode(
            f"{out_dir / 'refs.html'}\n{out_dir / 'refs.bib'}\n")
        monkeypatch.undo()
        assert (out_dir / "refs.bib").read_text(encoding="utf-8").startswith("@article{")
        # Live, over a fake network answering from the recorded fixtures.
        monkeypatch.setenv("REFS_ADS_TOKEN", "s3cret")
        recorded = FixtureTransport.from_dir(FIXTURE_DIR)

        def answer(sent):
            url = f"{sent.conn.scheme}://{sent.conn.netloc}{sent.target}"
            response = recorded.execute(HttpRequest(sent.method, url, sent.headers))
            return FakeResponse(response.status, response.headers.items(), response.body)

        network = FakeNetwork()
        network.answer = answer
        monkeypatch.setattr(refs.transport, "_connect", network)
        archive = tmp_path / "recorded\udcff.json"
        code, out, _ = run(capsys, "add", "--doi", "10.18434/t4w30f", "--db", db,
                           "--record-fixtures", str(archive))
        assert (code, out) == (0, "id=2 path=fallback\n")
        recorded = json.loads(archive.read_text(encoding="utf-8"))["entries"]
        assert [e["request"]["url"] for e in recorded][-2:] == ["https://doi.org/10.18434/t4w30f"] * 2

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: refs")

    @pytest.mark.parametrize("argv", [
        ["render", "9223372036854775808"],
        ["export", "1", "-9223372036854775809"],
        ["crossref", "H2O", "nu", "99999999999999999999", "1"],
        ["crossref", "H2O", "nu", "0", "99999999999999999999"],
    ], ids=["render", "export", "crossref-local-id", "crossref-global-id"])
    def test_an_integer_sqlite_cannot_bind_is_usage_error(self, capsys, db_path, argv):
        code, out, err = run(capsys, *argv, "--db", db_path)
        assert (code, out) == (64, "")
        assert err.endswith("is outside the signed 64-bit range\n")
        assert not Path(db_path).exists()

    def test_the_largest_sqlite_integer_is_an_id(self, capsys, db_path):
        code, _, err = run(capsys, "render", "9223372036854775807", "--db", db_path)
        assert (code, err) == (2, "refs: no entry 9223372036854775807\n")


class TestLiveFailures:
    """Live ``refs add`` over a fake network: no socket is opened."""

    @pytest.fixture()
    def network(self, monkeypatch):
        monkeypatch.setenv("REFS_ADS_TOKEN", "s3cret")
        monkeypatch.setattr(refs.resolvers, "_sleep", lambda s: None)
        fake = FakeNetwork()
        monkeypatch.setattr(refs.transport, "_connect", fake)
        return fake

    def test_a_redirect_loop_fails_the_resolution(self, capsys, db_path, network):
        network.answer = lambda sent: FakeResponse(302, [("Location", sent.target)])
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path)
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err.startswith("refs: reference resolution failed: ") and err.count("\n") == 1
        assert err.count("redirected more than 10 times") == 2

    def test_a_reset_connection_fails_the_resolution(self, capsys, db_path, network):
        def answer(sent):
            raise ConnectionResetError(104, "Connection reset by peer")

        network.answer = answer
        code, out, err = run(capsys, "add", "--doi", HITRAN, "--db", db_path)
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err.startswith("refs: reference resolution failed: ") and err.count("\n") == 1
        assert err.count("kept timing out after 3 attempts") == 2

    def test_an_ads_search_that_fails_in_transport_falls_back_to_doi_org(self, capsys, db_path,
                                                                         network):
        recorded = FixtureTransport.from_dir(FIXTURE_DIR)

        def answer(sent):
            if sent.conn.netloc == "api.adsabs.harvard.edu":
                raise ConnectionResetError(104, "Connection reset by peer")
            url = f"{sent.conn.scheme}://{sent.conn.netloc}{sent.target}"
            response = recorded.execute(HttpRequest(sent.method, url, sent.headers))
            return FakeResponse(response.status, response.headers.items(), response.body)

        network.answer = answer
        code, out, err = run(capsys, "add", "--doi", "10.18434/t4w30f", "--db", db_path)
        assert (code, out) == (0, "id=1 path=fallback\n")
        assert "refs: warning: ADS DOI search failed: " in err
        assert [s.conn.netloc for s in network.sent] == ["api.adsabs.harvard.edu"] * 3 + [
            "doi.org"] * 2
        assert [header(s, "Authorization") for s in network.sent[3:]] == [None, None]


# The fixtures' answers, keyed on (url, accept) as playback keys them.
ANSWERS = FixtureTransport.from_dir(FIXTURE_DIR)


def answer_from_fixtures(sent) -> FakeResponse:
    """A live request answered as the fixtures recorded it, or with a 404 when they hold none.

    LiveTransport sends ``Accept: */*`` on a request that names no Accept, which the
    fixtures record as "".
    """
    url = f"{sent.conn.scheme}://{sent.conn.netloc}{sent.target}"
    accept = "" if sent.headers["accept"] == "*/*" else sent.headers["accept"]
    try:
        response = ANSWERS.execute(HttpRequest("GET", url, {"Accept": accept}))
    except FixtureMissingError:
        return FakeResponse(404, body=b"not found")
    return FakeResponse(response.status, response.headers.items(), response.body)


def recorded(archive: Path) -> list[tuple[str, int]]:
    """Each recorded exchange of an archive as its request URL and response status."""
    entries = json.loads(archive.read_text(encoding="utf-8"))["entries"]
    return [(e["request"]["url"], e["response"]["status"]) for e in entries]


class TestRecordFixtures:
    """Live ``refs add --record-fixtures`` over a fake network that answers from the fixtures."""

    @pytest.fixture()
    def network(self, monkeypatch):
        monkeypatch.setenv("REFS_ADS_TOKEN", "s3cret")
        monkeypatch.setattr(refs.resolvers, "_sleep", lambda s: None)
        fake = FakeNetwork(answer_from_fixtures)
        monkeypatch.setattr(refs.transport, "_connect", fake)
        return fake

    @pytest.fixture()
    def archive(self, tmp_path) -> Path:
        (tmp_path / "recorded").mkdir()
        return tmp_path / "recorded" / "archive.json"

    def add(self, capsys, db_path, archive, *argv):
        return run(capsys, "add", *argv, "--db", db_path, "--record-fixtures", str(archive))

    def test_a_fallback_add_writes_the_pinned_archive_in_one_replace(
            self, capsys, db_path, archive, network, monkeypatch):
        replaced = []

        def replace_files(paths, rows):
            replaced.append(list(paths))
            refs.fileio.replace_files(paths, rows)

        monkeypatch.setattr(refs.transport, "replace_files", replace_files)
        assert self.add(capsys, db_path, archive, "--doi", NIST) == (
            0, "id=1 path=fallback\n", "")
        assert len(network.sent) == 3
        assert replaced == [[archive]]
        assert archive.read_bytes() == (GOLDEN_DIR / "recorded_fallback.json").read_bytes()

    @pytest.mark.parametrize("doi, statuses", [
        ("10.1000/unregistered", [("api.adsabs.harvard.edu", 200), ("doi.org", 404)]),
        ("10.5555/flaky", [("api.adsabs.harvard.edu", 500)] * 3 + [("doi.org", 404)]),
    ], ids=["unregistered", "flaky"])
    def test_a_failed_resolution_records_every_answered_attempt(
            self, capsys, db_path, archive, network, doi, statuses):
        code, out, err = self.add(capsys, db_path, archive, "--doi", doi)
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err.startswith("refs: reference resolution failed: ") and err.count("\n") == 1
        assert [(urlsplit(url).hostname, status) for url, status in recorded(archive)] == statuses

    def test_a_query_records_the_search_then_the_doi_route_in_order(
            self, capsys, db_path, archive, network):
        query = "NIST Atomic Spectra Database"
        code, out, _ = self.add(capsys, db_path, archive, "--query", query)
        assert (code, out) == (0, "id=1 path=fallback unverified\n")
        doi = parse_doi(NIST)
        assert [url for url, _ in recorded(archive)] == [
            refs.resolvers.crossref_query_url(query),
            refs.resolvers.ads_search_url(refs.resolvers.AdsConfig(),
                                          refs.resolvers.ads_doi_query(doi)),
            refs.resolvers.doi_negotiation_url(doi),
            refs.resolvers.doi_negotiation_url(doi),
        ]

    def test_a_second_add_extends_the_archive_and_it_replays_both(
            self, capsys, db_path, archive, network, tmp_path):
        self.add(capsys, db_path, archive, "--doi", NIST)
        first = recorded(archive)
        assert self.add(capsys, db_path, archive, "--doi", HITRAN) == (0, "id=2 path=ads\n", "")
        assert recorded(archive)[:3] == first and len(recorded(archive)) == 4
        replay_db = str(tmp_path / "replay.db")
        for gid, doi, path in ((1, NIST, "fallback"), (2, HITRAN, "ads")):
            assert run(capsys, "add", "--doi", doi, "--db", replay_db, "--offline",
                       "--fixtures", str(archive.parent)) == (0, f"id={gid} path={path}\n", "")
            assert (run(capsys, "render", str(gid), "--format", "json", "--db", replay_db)
                    == run(capsys, "render", str(gid), "--format", "json", "--db", db_path))

    def test_an_add_answered_from_the_store_leaves_the_archive_alone(
            self, capsys, db_path, archive, network, tmp_path):
        self.add(capsys, db_path, archive, "--doi", NIST)
        before, sent = archive.read_bytes(), len(network.sent)
        assert self.add(capsys, db_path, archive, "--doi", NIST) == (
            0, "id=1 path=fallback\n", f"refs: warning: DOI {NIST} is already stored as entry 1\n")
        assert archive.read_bytes() == before and len(network.sent) == sent
        unwritten = tmp_path / "unwritten.json"
        assert self.add(capsys, db_path, unwritten, "--doi", NIST)[0] == 0
        assert not unwritten.exists()
        assert sorted(p.name for p in archive.parent.iterdir()) == ["archive.json"]

    def test_an_archive_with_no_directory_is_refused_before_any_request(
            self, capsys, db_path, archive, network):
        archive = archive.parent / "missing" / "archive.json"
        assert self.add(capsys, db_path, archive, "--doi", NIST) == (
            3, "", f"refs: cannot record into {archive}: its directory is missing or read-only\n")
        assert network.sent == [] and not Path(db_path).exists()

    @MALFORMED_ARCHIVES
    def test_a_file_that_is_no_archive_is_refused_before_any_request(
            self, capsys, db_path, archive, network, text, cause):
        archive.write_text(text)
        code, out, err = self.add(capsys, db_path, archive, "--doi", HITRAN)
        assert (code, out) == (EXIT_RESOLUTION, "")
        assert err.startswith(f"refs: {archive} is not a fixture archive: {cause}")
        assert err.count("\n") == 1
        assert network.sent == [] and not Path(db_path).exists()
        assert archive.read_text() == text

    @MALFORMED_EXCHANGES
    def test_an_exchange_playback_cannot_read_is_refused_before_any_request(
            self, capsys, db_path, archive, network, malformed, problem):
        text = json.dumps({"entries": [malformed]})
        archive.write_text(text)
        assert self.add(capsys, db_path, archive, "--doi", HITRAN) == (
            EXIT_RESOLUTION, "", f"refs: {archive} entry 0 is not a recorded exchange: {problem}\n")
        assert network.sent == [] and not Path(db_path).exists()
        assert archive.read_text() == text


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (UsageError("boom"), 64),
        (MissingEntryError("boom"), 2),  # a StoreError, mapped ahead of it
        (CrossRefConflictError("boom"), 3),
        (StoreError("boom"), 3),
        (sqlite3.OperationalError("boom"), 3),
        (OSError("boom"), 3),
        (FixtureMissingError("boom"), 2),
        (InvalidDoiError("boom"), 1),  # the user's --doi; an upstream one is a decode error
        (RefsError("boom"), 2),
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
    def test_main_maps_what_a_command_raises(self, capsys, db_path, monkeypatch, error, code):
        def list_labels(self, scope=None):
            raise error

        monkeypatch.setattr(RefStore, "list_labels", list_labels)
        assert run(capsys, "list", "--db", db_path) == (code, "", "refs: boom\n")

    def test_no_command_catches_an_error_the_table_maps(self):
        """Only main turns errors into exit codes; cmd_crossref's key check is the one catch."""
        tree = ast.parse(Path(refs.cli.__file__).read_text(encoding="utf-8"))
        commands = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
        mapped = tuple(refs.cli._EXIT_CODES)
        caught = []
        for command in commands:
            for handler in ast.walk(command):
                if not isinstance(handler, ast.ExceptHandler):
                    continue
                kinds = BaseException if handler.type is None else eval(
                    ast.unparse(handler.type), vars(refs.cli))
                for kind in kinds if isinstance(kinds, tuple) else (kinds,):
                    # A class the table maps, or one that would catch such a class.
                    if issubclass(kind, mapped) or any(issubclass(m, kind) for m in mapped):
                        caught.append((command.name, kind.__name__))
        assert sorted(c.name for c in commands) == [
            "cmd_add", "cmd_crossref", "cmd_export", "cmd_list", "cmd_render"]
        # check_crossref_key refuses a key with a plain ValueError, which becomes a UsageError.
        # The handler is flagged only because InvalidDoiError, mapped, is a ValueError too.
        assert caught == [("cmd_crossref", "ValueError")]


class TestStoreFailures:
    def test_unreadable_db_exits_3(self, capsys, tmp_path):
        target = tmp_path / "not-a-db"
        target.write_bytes(b"\x00" * 32)
        code, _, _ = run(capsys, "list", "--db", str(target))
        assert code == 3

    def test_unwritable_export_dir_exits_3(self, capsys, db_path, tmp_path):
        run(capsys, *offline("add", "--doi", HITRAN, db=db_path))
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        code, _, _ = run(capsys, "export", "--all", "-o", str(blocker / "out"), "--db", db_path)
        assert code == 3


# What reading an entry's stored text needs none of: the model, the DOI
# parser, the renderers and the migration steps.
NOT_FOR_STORED_TEXT = ["refs.identifiers", "refs.migrations", "refs.model", "refs.render"]


def loaded_by(argv: list[str], watched: list[str]) -> tuple[int, str, list[str]]:
    """Run one command in a fresh interpreter with no bytecode cache.

    Returns its exit code, its stdout, and which of ``watched`` it imported.
    """
    script = (
        "import sys\n"
        "from refs.cli import main\n"
        f"code = main({argv!r})\n"
        f"print((code, sorted(m for m in {watched!r} if m in sys.modules)), file=sys.stderr)\n"
    )
    env = {"PYTHONPATH": str(Path(refs.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    code, loaded = ast.literal_eval(done.stderr.splitlines()[-1])
    return code, done.stdout, loaded


class TestImports:
    @pytest.fixture()
    def stored(self, capsys, db_path):
        for doi in (HITRAN, "10.18434/t4w30f"):
            run(capsys, *offline("add", "--doi", doi, db=db_path))
        return db_path

    @pytest.mark.parametrize("argv", [
        ["render", "1", "--format", "html"],
        ["render", "2", "--format", "bibtex"],
        ["list"],
        ["export", "--all", "-o", "{out}"],
    ], ids=["render-html", "render-bibtex", "list", "export-all"])
    def test_reading_stored_text_loads_no_model_renderer_or_migrations(self, capsys, stored,
                                                                       tmp_path, argv):
        argv = [arg.format(out=tmp_path / "out") for arg in argv] + ["--db", stored]
        code, out, loaded = loaded_by(argv, NOT_FOR_STORED_TEXT)
        assert (code, out) == run(capsys, *argv)[:2]
        assert code == 0 and out
        assert loaded == []

    @pytest.mark.parametrize("argv", [
        ["render", "3", "--format", "html"],
        ["export", "--all", "-o", "{out}"],
    ], ids=["render-html", "export-all"])
    def test_an_entry_with_no_html_is_refused_from_its_row(self, capsys, stored, tmp_path, argv):
        with RefStore(stored) as store:
            assert store.add_entry([BibRecord(title="", doi=parse_doi("10.1000/blank"))]) == 3
        argv = [arg.format(out=tmp_path / "out") for arg in argv] + ["--db", stored]
        code, out, loaded = loaded_by(argv, NOT_FOR_STORED_TEXT)
        assert (code, out, loaded) == (2, "", [])
        assert run(capsys, *argv) == (2, "", "refs: record has no renderable fields\n")

    def test_crossref_loads_no_model_renderer_or_migrations(self, capsys, stored):
        argv = ["crossref", "H2O", "nu", "1", "1", "--db", stored]
        assert loaded_by(argv, NOT_FOR_STORED_TEXT) == (0, "", [])
        with RefStore(stored) as store:
            assert store.lookup_crossref("H2O", "nu", 1) == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_rendering_from_the_records_still_works(self, capsys, stored, fmt):
        argv = ["render", "1", "--format", fmt, "--db", stored]
        code, out, loaded = loaded_by(argv, NOT_FOR_STORED_TEXT)
        assert (code, out) == run(capsys, *argv)[:2]
        assert code == 0 and out
        assert loaded == ["refs.identifiers", "refs.model", "refs.render"]

    def test_add_still_works(self, db_path):
        code, out, loaded = loaded_by(offline("add", "--doi", HITRAN, db=db_path),
                                      NOT_FOR_STORED_TEXT)
        assert (code, out) == (0, "id=1 path=ads\n")
        assert loaded == ["refs.identifiers", "refs.model", "refs.render"]

    def test_offline_add_loads_no_http_client_or_ssl(self, db_path):
        code, out, loaded = loaded_by(offline("add", "--doi", HITRAN, db=db_path),
                                      ["http.client", "ssl"])
        assert (code, out, loaded) == (0, "id=1 path=ads\n", [])

    def test_a_live_transport_loads_no_third_party_http_module(self):
        third_party = ["requests", "urllib3", "idna", "charset_normalizer", "chardet"]
        script = (
            "import sys, refs.cli, refs.pipeline, refs.transport\n"
            "refs.transport.LiveTransport()\n"
            f"print(sorted(m for m in {third_party!r} if m in sys.modules))\n"
        )
        env = {"PYTHONPATH": str(Path(refs.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_opening_a_current_store_loads_no_migrations(self, tmp_path):
        path = str(tmp_path / "refs.db")
        script = (
            "import sys\n"
            "from refs.store import RefStore\n"
            f"RefStore({path!r}).close()\n"
            f"RefStore({path!r}).close()\n"
            f"print(sorted(m for m in {NOT_FOR_STORED_TEXT!r} if m in sys.modules))\n"
        )
        env = {"PYTHONPATH": str(Path(refs.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_format_names_have_one_home(self):
        assert refs.render.RenderFormat is refs.formats.RenderFormat is refs.RenderFormat
        assert (refs.render.RenderedCitation is refs.formats.RenderedCitation
                is refs.RenderedCitation)

    def test_cli_start_up_leaves_the_network_and_parser_modules_unloaded(self):
        network = ["refs.pipeline", "refs.resolvers", "refs.transport", "refs.bibtex", "html"]
        script = (
            "import sys, refs.cli\n"
            f"print(sorted(m for m in {network!r} if m in sys.modules))\n"
        )
        env = {"PYTHONPATH": str(Path(refs.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_no_command_loads_dataclasses_or_inspect(self, tmp_path):
        guarded = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
        db, out_dir = str(tmp_path / "refs.db"), str(tmp_path / "bundle")
        commands = [
            ["add", "--doi", HITRAN, "--offline", "--fixtures", str(FIXTURE_DIR)],
            *(["render", "1", "--format", fmt] for fmt in ("html", "json", "bibtex", "text")),
            ["list"],
            ["export", "--all", "-o", out_dir],
        ]
        script = (
            "import sys\n"
            "from refs.cli import main\n"
            f"codes = [main(argv + ['--db', {db!r}]) for argv in {commands!r}]\n"
            f"print(codes, sorted(m for m in {guarded!r} if m in sys.modules))\n"
        )
        env = {"PYTHONPATH": str(Path(refs.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines()[-1] == f"{[0] * len(commands)} []"

    def test_no_module_imports_dataclasses(self):
        importers = []
        for path in sorted(Path(refs.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.partition(".")[0] == "dataclasses" for m in modules):
                    importers.append(path.name)
        assert importers == []

    def test_every_public_name_resolves(self):
        assert refs.__all__
        for name in refs.__all__:
            assert getattr(refs, name) is not None, name
        assert set(refs.__all__) <= set(dir(refs))

    def test_star_import_binds_all_public_names(self):
        namespace: dict = {}
        exec("from refs import *", namespace)
        assert set(refs.__all__) <= set(namespace)
        assert namespace["RefStore"] is RefStore

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            refs.no_such_name


class TestParser:
    def test_the_parser_is_built_once_per_process(self):
        assert refs.cli.build_parser() is refs.cli.build_parser()

    def test_a_reused_parser_carries_no_option_into_the_next_parse(self):
        parser = refs.cli.build_parser()
        first = parser.parse_args(["list", "--scope", "S", "--db", "a.sqlite"])
        second = parser.parse_args(["list"])
        assert (first.scope, first.db) == ("S", "a.sqlite")
        assert (second.scope, second.db) == (None, None)
        assert second.func is refs.cli.cmd_list
