"""Fixed tasks that measure how fast the shared machine is right now.

Other tenants slow a shared machine by up to half for minutes at a time,
and every timing slows with it. The benchmark runs these tasks between
operations and scales what it measures to the speed at which the task
takes its nominal time. The tasks use only the standard library, so no
change to refs can make them faster or slower.

``Reference`` is CPU-bound (JSON, a regular expression, an in-memory
SQLite query, string building) and calibrates operation latencies.
``CommitReference`` commits to an SQLite file beside the workload's store,
with the journal and ``synchronous`` setting the store uses, and
calibrates set-up, which is mostly commits.
"""

from __future__ import annotations

import json
import re
import sqlite3
import time
from pathlib import Path

NOMINAL_US = 300.0
NOMINAL_COMMIT_MS = 1.0

_DOC = {"title": "Reference task", "authors": [{"given": ["A", "B"], "surname": "Smith"}] * 3, "year": 2001}
_PATTERN = re.compile(r"^10\.[0-9]{4,9}/\S+$")
_COMMITS = 10
_SCANNED_ROWS = 5000


class Reference:
    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        self._db.executemany("INSERT INTO t VALUES (?, ?)", [(i, "x" * 50) for i in range(1000)])

    def run_us(self) -> float:
        """Time one run of the task, in microseconds."""
        t0 = time.perf_counter()
        for i in range(20):
            json.loads(json.dumps(_DOC))
            _PATTERN.match(f"10.5072/ref.{i}")
            self._db.execute("SELECT b FROM t WHERE a = ?", (i * 37 % 1000,)).fetchone()
            "-".join(str(j) for j in range(20))
        return (time.perf_counter() - t0) * 1e6


class CommitReference:
    """Commits like the store's, to its own SQLite file; removed on ``close``.

    Each commit first looks a key up by a full scan of 5 000 rows, then
    inserts one row, as ``add_entry`` scans for a duplicate DOI set and
    then writes. So the task slows with the CPU as well as with fsync.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._db = sqlite3.connect(str(path))
        self._db.execute("PRAGMA synchronous = NORMAL")
        with self._db:
            self._db.execute("CREATE TABLE scanned (a INTEGER PRIMARY KEY, b TEXT)")
            self._db.execute("CREATE TABLE written (a INTEGER PRIMARY KEY, b TEXT)")
            self._db.executemany("INSERT INTO scanned (b) VALUES (?)",
                                 [(f"10.5072/reference.{i:08d}",) for i in range(_SCANNED_ROWS)])

    def run_ms(self) -> float:
        """Time ten commits, in milliseconds per commit."""
        t0 = time.perf_counter()
        for _ in range(_COMMITS):
            with self._db:
                self._db.execute("SELECT a FROM scanned WHERE b = ?", ("10.5072/absent",)).fetchone()
                self._db.execute("INSERT INTO written (b) VALUES (?)", ("x" * 200,))
        return (time.perf_counter() - t0) * 1000.0 / _COMMITS

    def close(self) -> None:
        self._db.close()
        for suffix in ("", "-journal"):
            Path(str(self.path) + suffix).unlink(missing_ok=True)
