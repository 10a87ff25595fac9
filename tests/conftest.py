"""Shared fixtures: offline enforcement, fixture transports, tmp stores."""

from __future__ import annotations

import contextlib
import socket
import sqlite3
import time
from pathlib import Path

import pytest

from refs import AdsConfig, FixtureTransport, RefStore, Upstream
from refs.resolvers import (ADS_FIELD_LIST, BIBTEX_ACCEPT, CSL_JSON_ACCEPT, ads_doi_query,
                            ads_search_url, doi_negotiation_url)

FIXTURE_DIR = Path(__file__).parent / "fixtures"
GOLDEN_DIR = Path(__file__).parent / "goldens"

SUITE_T0 = time.perf_counter()
SUITE_TIME_BUDGET = 60.0
_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS.items()):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status} {name}")
    elapsed = time.perf_counter() - SUITE_T0
    status = "PASS" if elapsed < SUITE_TIME_BUDGET else "FAIL"
    terminalreporter.write_line(
        f"{status} offline suite wall time {elapsed:.1f}s (budget {SUITE_TIME_BUDGET:.0f}s)"
    )


class NetworkBlockedError(RuntimeError):
    pass


@pytest.fixture(autouse=True, scope="session")
def no_network_sockets():
    """The whole suite must run without opening a single network socket."""

    def _blocked(self, *args, **kwargs):
        # Closed here: socket.create_connection closes its socket only on an OSError.
        self.close()
        raise NetworkBlockedError("test attempted to open a network socket")

    original = socket.socket.connect
    socket.socket.connect = _blocked
    yield
    socket.socket.connect = original


class CountingTransport:
    """Delegating transport that remembers every request it carried."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    @property
    def is_live(self):
        return getattr(self.inner, "is_live", False)

    def execute(self, request):
        self.requests.append(request)
        return self.inner.execute(request)

    def count(self, url_fragment: str) -> int:
        return sum(1 for r in self.requests if url_fragment in r.url)


@contextlib.contextmanager
def unsynced(store: RefStore):
    """``store`` writing with no sync and no journal file until the block ends, for a test
    that fills a store only to read it. The file's bytes record neither setting."""
    conn = store._conn
    saved = [conn.execute(f"PRAGMA {name}").fetchone()[0]
             for name in ("journal_mode", "synchronous")]
    conn.execute("PRAGMA journal_mode = MEMORY")
    conn.execute("PRAGMA synchronous = OFF")
    try:
        yield store
    finally:
        conn.execute(f"PRAGMA journal_mode = {saved[0]}")
        conn.execute(f"PRAGMA synchronous = {saved[1]}")


def fallback_exchanges(doi, csl_body: str, bibtex: str) -> list[dict]:
    """Recorded exchanges that resolve a DOI on the fallback path: ADS finds nothing, then
    doi.org sends ``csl_body`` and ``bibtex`` as they are."""
    def exchange(url: str, accept: str, body: str) -> dict:
        return {"request": {"method": "GET", "url": url, "accept": accept},
                "response": {"status": 200, "body": body}}

    search = ads_search_url(AdsConfig(), ads_doi_query(doi), ADS_FIELD_LIST, rows=10)
    return [exchange(search, "", '{"response": {"numFound": 0, "docs": []}}'),
            exchange(doi_negotiation_url(doi), CSL_JSON_ACCEPT, csl_body),
            exchange(doi_negotiation_url(doi), BIBTEX_ACCEPT, bibtex)]


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture()
def transport() -> FixtureTransport:
    return FixtureTransport.from_dir(FIXTURE_DIR)


@pytest.fixture()
def counting_transport(transport) -> CountingTransport:
    return CountingTransport(transport)


@pytest.fixture()
def ads_config() -> AdsConfig:
    return AdsConfig(token="", backoff_base=0.0)


@pytest.fixture()
def upstream(transport, ads_config) -> Upstream:
    return Upstream(transport, ads_config)


@pytest.fixture()
def store(tmp_path) -> RefStore:
    s = RefStore(tmp_path / "refs.db")
    yield s
    s.close()


@pytest.fixture()
def statements(monkeypatch):
    """Every SQL statement run on connections opened during the test, in order."""
    seen: list[str] = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(seen.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced)
    return seen
