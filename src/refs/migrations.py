"""Schema migrations: each step turns a store file of one version into the next.

``RefStore`` imports this module only when it opens a file older than
``SCHEMA_VERSION``; opening a current file never loads it. Each step
creates its tables from the definitions of the version it writes, pinned
here, so a later change to the store's schema leaves the step as it was.

The record JSON of each version is pinned here too. Version 4 stored each
record as a ``model.record_to_dict(r, links=False)`` object, which
``_v4_records_json`` writes (for ``_v3_to_v4``) and ``_v4_records`` reads
(for ``_v4_to_v5``); both lean on the model's dict codec, so a change to
that codec first copies its version-4 form in here. Version 5 stores the
positional arrays of ``model.record_to_row``: ``_v4_to_v5`` writes them
with the store's ``_records_json``, and ``_rerender`` reads them with the
store's ``_entry_from_row``. A version 6 that changes that JSON first
copies the version-5 encoder in here for ``_v4_to_v5``, keeps a version-5
decoder for its own step, and changes the store's codec only then.

Up to version 3, an entry's records were the rows of a ``records`` table,
one column per field, and its note a row of ``notes``. The reader of that
layout lives here, for the steps that run on it.
"""

from __future__ import annotations

import json
import sqlite3
from itertools import groupby
from operator import itemgetter
from typing import Iterator

from . import render
from .errors import StoreError
from .model import BibRecord, RefEntry, record_from_dict, record_to_dict
from .store import _entry_from_row, _html_or_none, _records_json

# The index on live DOI sets, the same in versions 2 to 5.
_LIVE_DOI_SET_INDEX = (
    "CREATE UNIQUE INDEX live_doi_set ON entries (doi_set) WHERE deleted = 0"
)

_V2_ENTRIES_TABLE = """
CREATE TABLE {name} (
    global_id INTEGER PRIMARY KEY AUTOINCREMENT,
    doi_set   TEXT,
    deleted   INTEGER NOT NULL DEFAULT 0
)"""

_V3_TEXTS_TABLE = """
CREATE TABLE texts (
    entry_id       INTEGER PRIMARY KEY REFERENCES entries(global_id),
    html           TEXT,
    bibtex         TEXT NOT NULL,
    bibtex_fetched INTEGER NOT NULL
)"""

_V4_ENTRIES_TABLE = """
CREATE TABLE entries (
    global_id INTEGER PRIMARY KEY AUTOINCREMENT,
    doi_set   TEXT,
    deleted   INTEGER NOT NULL DEFAULT 0,
    note      TEXT,
    records   TEXT NOT NULL
)"""

# Record columns of versions 1 to 3 after (entry_id, position), named after
# the keys of model.record_to_dict except that pages are split in two.
_RECORD_COLUMNS = (
    "source_type", "title", "authors", "journal", "volume", "number",
    "page_first", "page_last", "year", "publisher", "doi", "bibcode",
)

# Every entry of a version-2 or -3 file, tombstones included, one row per
# record, in ID then record order; the rows of one entry are adjacent.
_SELECT_ROWS = (
    "SELECT e.global_id, n.note, "
    + ", ".join(f"r.{c}" for c in _RECORD_COLUMNS)
    + " FROM entries e"
    " JOIN records r ON r.entry_id = e.global_id"
    " LEFT JOIN notes n ON n.entry_id = e.global_id"
    " ORDER BY e.global_id, r.position"
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
    conn.execute(_V2_ENTRIES_TABLE.format(name="new_entries"))
    conn.execute(
        "INSERT INTO new_entries (global_id, doi_set, deleted)"
        " SELECT global_id, doi_set, deleted FROM entries"
    )
    conn.execute("DROP TABLE entries")
    conn.execute("ALTER TABLE new_entries RENAME TO entries")
    # The next ID stays above every ID the old sequence handed out.
    _set_sequence(conn, next_id - 1)
    conn.execute("DROP TABLE id_sequence")
    conn.execute("ALTER TABLE records DROP COLUMN doi_url")
    conn.execute("ALTER TABLE records DROP COLUMN ads_url")
    conn.execute(_LIVE_DOI_SET_INDEX)
    _check_references(conn, 2)


def _v2_to_v3(conn: sqlite3.Connection) -> None:
    """Each entry's HTML and BibTeX, rendered once and stored."""
    conn.execute(_V3_TEXTS_TABLE)
    for entry in _every_v3_entry(conn):
        conn.execute(
            "INSERT INTO texts (entry_id, html, bibtex, bibtex_fetched) VALUES (?, ?, ?, ?)",
            (entry.global_id, _html_or_none(entry), render.render_bibtex(entry).body, False),
        )


def _v3_to_v4(conn: sqlite3.Connection) -> None:
    """One row per entry: the note and the records' JSON move into ``entries``.

    Runs with foreign keys off, like _v1_to_v2. The new rows are gathered in
    a temporary table and ``entries`` is created afresh under its own name,
    so its definition reads as in a new file: a renamed table's would read
    ``CREATE TABLE "entries"``. The stored texts are left as they are.
    """
    (seq,) = conn.execute(
        "SELECT COALESCE(MAX(seq), 0) FROM sqlite_sequence WHERE name = 'entries'"
    ).fetchone()
    conn.execute(
        "CREATE TEMP TABLE v4_entries (global_id INTEGER PRIMARY KEY, doi_set TEXT,"
        " deleted INTEGER NOT NULL, note TEXT, records TEXT NOT NULL)"
    )
    for entry in _every_v3_entry(conn):
        conn.execute(
            "INSERT INTO v4_entries SELECT global_id, doi_set, deleted, ?, ?"
            " FROM main.entries WHERE global_id = ?",
            (entry.note, _v4_records_json(entry.records), entry.global_id),
        )
    for table in ("records", "notes", "entries"):
        conn.execute(f"DROP TABLE main.{table}")
    conn.execute(_V4_ENTRIES_TABLE)
    conn.execute(
        "INSERT INTO main.entries (global_id, doi_set, deleted, note, records)"
        " SELECT global_id, doi_set, deleted, note, records FROM v4_entries ORDER BY global_id"
    )
    conn.execute("DROP TABLE v4_entries")
    _set_sequence(conn, seq)
    conn.execute(_LIVE_DOI_SET_INDEX)
    _check_references(conn, 4)


def _v4_to_v5(conn: sqlite3.Connection) -> None:
    """Positional records: each row's records JSON becomes ``model.record_to_row`` arrays.

    Every row is rewritten, tombstones included; the tables, the stored
    texts and the IDs are left as they are.
    """
    rows = conn.execute("SELECT global_id, records FROM entries ORDER BY global_id").fetchall()
    conn.executemany(
        "UPDATE entries SET records = ? WHERE global_id = ?",
        ((_records_json(_v4_records(global_id, records_json)), global_id)
         for global_id, records_json in rows),
    )


def _v4_records_json(records: list[BibRecord]) -> str:
    """An entry's ``records`` column as version 4 wrote it: one dict per record."""
    return json.dumps([record_to_dict(r, links=False) for r in records], ensure_ascii=False)


def _v4_records(global_id: int, records_json: str) -> list[BibRecord]:
    """The records of one version-4 ``records`` column, decoded by the model's dict codec."""
    try:
        dicts = json.loads(records_json)
    except ValueError:
        dicts = None
    if not isinstance(dicts, list):
        raise StoreError(
            f"cannot migrate to schema version 5: the records of entry {global_id}"
            " are not a JSON array"
        )
    return list(map(record_from_dict, dicts))


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


def _set_sequence(conn: sqlite3.Connection, seq: int) -> None:
    """Keep the next ID above ``seq`` and above every ID in ``entries``."""
    conn.execute("DELETE FROM sqlite_sequence WHERE name = 'entries'")
    conn.execute(
        "INSERT INTO sqlite_sequence (name, seq)"
        " SELECT 'entries', MAX(?, COALESCE(MAX(global_id), 0)) FROM entries",
        (seq,),
    )


def _check_references(conn: sqlite3.Connection, version: int) -> None:
    broken = conn.execute("PRAGMA foreign_key_check").fetchall()
    if broken:
        raise StoreError(
            f"cannot migrate to schema version {version}: dangling references {broken}"
        )


def _every_entry(conn: sqlite3.Connection) -> Iterator[RefEntry]:
    """Every entry of a current file, tombstones included, in ID order."""
    rows = conn.execute("SELECT global_id, note, records FROM entries ORDER BY global_id")
    try:
        for row in rows:
            yield _entry_from_row(*row)
    finally:
        rows.close()


def _every_v3_entry(conn: sqlite3.Connection) -> Iterator[RefEntry]:
    """Every entry of a version-2 or -3 file, tombstones included, in ID order."""
    rows = conn.execute(_SELECT_ROWS)
    try:
        for global_id, entry_rows in groupby(rows, key=itemgetter(0)):
            yield _entry_from_rows(global_id, list(entry_rows))
    finally:
        rows.close()


def _entry_from_rows(global_id: int, rows: list[tuple]) -> RefEntry:
    """One entry from its _SELECT_ROWS rows, records decoded by the model's dict codec."""
    records = []
    for row in rows:
        fields = {c: v for c, v in zip(_RECORD_COLUMNS, row[2:]) if v is not None}
        fields["authors"] = json.loads(fields["authors"])
        if "page_first" in fields:
            fields["pages"] = {"first": fields.pop("page_first"), "last": fields.pop("page_last", None)}
        records.append(record_from_dict(fields))
    return RefEntry(records=records, note=rows[0][1], global_id=global_id)


# _MIGRATIONS[v - 1] turns a version-v file into version v + 1.
_MIGRATIONS = (_v1_to_v2, _v2_to_v3, _v3_to_v4, _v4_to_v5)
