"""Schema migrations: each step turns a store file of one version into the next.

``RefStore`` imports this module only when it opens a file older than
``SCHEMA_VERSION``; opening a current file never loads it.
"""

from __future__ import annotations

import sqlite3
from itertools import groupby
from operator import itemgetter
from typing import Iterator

from . import render
from .errors import StoreError
from .model import RefEntry
from .store import (
    _ENTRIES_TABLE,
    _INSERT_TEXTS,
    _LIVE_DOI_SET_INDEX,
    _SELECT_ROWS,
    _TEXTS_TABLE,
    _entry_from_rows,
    _html_or_none,
)


def _v1_to_v2(conn: sqlite3.Connection) -> None:
    """IDs from AUTOINCREMENT, one live entry per DOI set, no stored links.

    Runs inside the opening transaction with foreign keys off, as SQLite's
    procedure for changing a table's definition requires.
    """
    shared = conn.execute(
        "SELECT doi_set, global_id FROM entries WHERE deleted = 0 AND doi_set IN"
        " (SELECT doi_set FROM entries WHERE deleted = 0 GROUP BY doi_set HAVING COUNT(*) > 1)"
        " ORDER BY doi_set, global_id"
    ).fetchall()
    if shared:
        groups = [
            f"{', '.join(str(row[1]) for row in rows)} (DOIs {doi_set})"
            for doi_set, rows in groupby(shared, key=itemgetter(0))
        ]
        raise StoreError(
            "cannot migrate to schema version 2: live entries share a DOI set: "
            + "; ".join(groups) + ". Delete all but one of each group first."
        )
    (next_id,) = conn.execute("SELECT next_id FROM id_sequence").fetchone()
    conn.execute(_ENTRIES_TABLE.format(name="new_entries"))
    conn.execute(
        "INSERT INTO new_entries (global_id, doi_set, deleted)"
        " SELECT global_id, doi_set, deleted FROM entries"
    )
    conn.execute("DROP TABLE entries")
    conn.execute("ALTER TABLE new_entries RENAME TO entries")
    # The next ID stays above every ID the old sequence handed out.
    conn.execute("DELETE FROM sqlite_sequence WHERE name = 'entries'")
    conn.execute(
        "INSERT INTO sqlite_sequence (name, seq)"
        " SELECT 'entries', MAX(?, COALESCE(MAX(global_id), 0)) FROM entries",
        (next_id - 1,),
    )
    conn.execute("DROP TABLE id_sequence")
    conn.execute("ALTER TABLE records DROP COLUMN doi_url")
    conn.execute("ALTER TABLE records DROP COLUMN ads_url")
    conn.execute(_LIVE_DOI_SET_INDEX)
    broken = conn.execute("PRAGMA foreign_key_check").fetchall()
    if broken:
        raise StoreError(f"cannot migrate to schema version 2: dangling references {broken}")


def _v2_to_v3(conn: sqlite3.Connection) -> None:
    """Each entry's HTML and BibTeX, rendered once and stored."""
    conn.execute(_TEXTS_TABLE)
    for entry in _every_entry(conn):
        conn.execute(
            _INSERT_TEXTS,
            (entry.global_id, _html_or_none(entry), render.render_bibtex(entry).body, False),
        )


def _rerender(conn: sqlite3.Connection) -> None:
    """Render every entry's stored texts afresh; BibTeX fetched from upstream is kept.

    A change to the bytes render_html or render_bibtex writes appends a
    migration step that calls this.
    """
    for entry in _every_entry(conn):
        conn.execute(
            "UPDATE texts SET html = ?,"
            " bibtex = CASE bibtex_fetched WHEN 0 THEN ? ELSE bibtex END"
            " WHERE entry_id = ?",
            (_html_or_none(entry), render.render_bibtex(entry).body, entry.global_id),
        )


def _every_entry(conn: sqlite3.Connection) -> Iterator[RefEntry]:
    """Every entry, tombstones included, in ID order."""
    rows = conn.execute(_SELECT_ROWS.format("1"))
    try:
        for global_id, entry_rows in groupby(rows, key=itemgetter(0)):
            yield _entry_from_rows(global_id, list(entry_rows))
    finally:
        rows.close()


# _MIGRATIONS[v - 1] turns a version-v file into version v + 1.
_MIGRATIONS = (_v1_to_v2, _v2_to_v3)
