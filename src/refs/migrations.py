"""Schema migration: a store file of any older version becomes a current one in one step.

``RefStore`` imports this module only when it opens a file older than
``SCHEMA_VERSION``; opening a current file never loads it. ``migrate``
reads from the old file only what no rule derives: each entry's records,
note and tombstone flag, through the reader of the file's version; its
fetched BibTeX; the cross-references; and the ID sequence. It writes the
current layout once, by the store's own rules for a new entry: ``_SCHEMA``
and ``_row``. So a migrated file reads exactly as a new one, and nothing
here pins what the store writes: a new schema version, which a new label
rule or new rendered bytes also need, adds a reader for the version it
replaces.

Up to version 3, an entry's records were the rows of a ``records`` table,
one column per field, and its note a row of ``notes``. Versions 4 to 6
kept both in the ``entries`` row, the records as a JSON array: of
objects keyed by field name in version 4 (``row_from_dict``), of
``model.record_to_row`` arrays from version 5 on. That column is scanned
as strictly as a current one. Each reader only reorders a record's stored
fields into that array; ``model.record_from_row`` then decodes a record
of every version by the rules of a current row, so a field of the wrong
type, given names stored as one string say, is refused here too.
Versions 3 to 6 kept each entry's HTML and BibTeX in a ``texts`` table,
of which only BibTeX fetched from upstream is read. No old DOI-set key,
label or rendered text is read.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing
from itertools import groupby
from operator import itemgetter
from typing import Any, Iterable, Iterator

from .errors import MODEL_REFUSALS, StoreError
from .model import RefEntry, record_from_row
from .store import _SCHEMA, SCHEMA_VERSION, _row, _scan_records, _unreadable

# Record columns of versions 1 to 3, named after the keys of a version-4
# record object (row_from_dict) except that pages are split in two. ``source_type``
# is NOT NULL, so it is null only where an entry has no ``records`` row.
_RECORD_COLUMNS = (
    "source_type", "title", "authors", "journal", "volume", "number",
    "page_first", "page_last", "year", "publisher", "doi", "bibcode",
)

# Every entry of a version 1 to 3 file, tombstones included, one row per
# record, in ID then record order; the rows of one entry are adjacent. An
# entry without records still gets a row, so that it is refused, not lost.
_SELECT_ROWS = (
    "SELECT e.global_id, e.deleted, n.note, "
    + ", ".join(f"r.{c}" for c in _RECORD_COLUMNS)
    + " FROM entries e"
    " LEFT JOIN records r ON r.entry_id = e.global_id"
    " LEFT JOIN notes n ON n.entry_id = e.global_id"
    " ORDER BY e.global_id, r.position"
)


def migrate(conn: sqlite3.Connection, version: int) -> None:
    """Rewrite a version-``version`` file in the current layout, IDs and tombstones kept.

    Runs inside the opening transaction with foreign keys off, as SQLite's
    procedure for changing a table's definition requires. Raises
    StoreError, which rolls the file back to what it was, when an entry
    cannot be read or a reference would dangle.
    """
    (seq,) = conn.execute(
        "SELECT next_id - 1 FROM id_sequence" if version == 1
        else "SELECT COALESCE(MAX(seq), 0) FROM sqlite_sequence WHERE name = 'entries'"
    ).fetchone() or (None,)
    if seq is None:
        raise _refusal("the id_sequence table is empty")
    fetched = dict(conn.execute("SELECT entry_id, bibtex FROM main.texts WHERE bibtex_fetched = 1")
                   if version >= 3 else ())
    conn.execute("CREATE TEMP TABLE old_entries (global_id INTEGER PRIMARY KEY, doi_set, deleted,"
                 " note, label, records, html, bibtex, bibtex_fetched)")
    conn.execute("CREATE TEMP TABLE old_crossrefs AS SELECT"
                 " dataset_scope, parameter, local_id, global_id FROM main.crossrefs")
    entries = _entries_v1_to_v3(conn) if version <= 3 else _entries_json(conn, version)
    live: dict[str, list[int]] = {}  # the live entries' IDs by DOI-set key
    # Closed before the connection, even when _row or an INSERT raises.
    with closing(entries):
        for deleted, entry in entries:
            row = _row(entry, deleted, fetched.get(entry.global_id))
            if row[1] is not None and not deleted:
                live.setdefault(row[1], []).append(entry.global_id)
            conn.execute("INSERT INTO old_entries VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", row)
    _refuse_shared_keys(live)
    old_tables = conn.execute(
        "SELECT name FROM main.sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite%'"
    ).fetchall()
    for (table,) in old_tables:
        conn.execute(f"DROP TABLE main.{table}")
    for statement in _SCHEMA:
        conn.execute(statement)
    for table in ("entries", "crossrefs"):
        conn.execute(f"INSERT INTO main.{table} SELECT * FROM old_{table}")
        conn.execute(f"DROP TABLE old_{table}")
    # The next ID stays above every ID the file ever handed out.
    conn.execute("DELETE FROM sqlite_sequence WHERE name = 'entries'")
    conn.execute(
        "INSERT INTO sqlite_sequence (name, seq)"
        " SELECT 'entries', MAX(?, COALESCE(MAX(global_id), 0)) FROM entries",
        (seq,),
    )
    broken = conn.execute("PRAGMA foreign_key_check").fetchall()
    if broken:
        raise _refusal(f"dangling references {broken}")


def _refuse_shared_keys(live: dict[str, list[int]]) -> None:
    """Refuse live entries that share a DOI-set key, as the ``live_doi_set`` index would."""
    shared = [f"{', '.join(map(str, ids))} (DOIs {key})" for key, ids in sorted(live.items())
              if len(ids) > 1]
    if shared:
        raise _refusal(f"live entries share a DOI set: {'; '.join(shared)}."
                       " Delete all but one of each group first.")


def _entries_v1_to_v3(conn: sqlite3.Connection) -> Iterator[tuple[int, RefEntry]]:
    """(deleted, entry) for every entry of a version 1 to 3 file, in ID order."""
    with closing(conn.execute(_SELECT_ROWS)) as rows:
        for (global_id, deleted, note), group in groupby(rows, itemgetter(0, 1, 2)):
            yield deleted, _decoded(global_id, note, _rows_from_columns(group))


def _entries_json(conn: sqlite3.Connection, version: int) -> Iterator[tuple[int, RefEntry]]:
    """(deleted, entry) for every entry of a version 4 to 6 file, in ID order."""
    with closing(conn.execute("SELECT global_id, deleted, note, records FROM entries"
                              " ORDER BY global_id")) as rows:
        for global_id, deleted, note, records_json in rows:
            yield deleted, _decoded(global_id, note, _rows_from_json(records_json, version))


def _decoded(global_id: int, note: str | None, rows: Iterable[Any]) -> RefEntry:
    """Entry ``global_id``, each record row decoded by ``record_from_row`` as it is drawn."""
    try:
        return RefEntry(list(map(record_from_row, rows)), note, global_id)
    except MODEL_REFUSALS as exc:
        raise _refusal(_unreadable(global_id, exc)) from exc


def _rows_from_columns(rows: Iterator[tuple]) -> Iterator[list[Any]]:
    """The record rows of one entry's _SELECT_ROWS rows."""
    for row in rows:
        if row[3] is None:
            raise _refusal(f"entry {row[0]} has no records")
        source_type, title, authors, journal, volume, number, first, last, *rest = row[3:]
        yield [title, _author_rows(json.loads(authors)), source_type, journal, volume, number,
               None if first is None else [first, last], *rest]


def _rows_from_json(records_json: str, version: int) -> Iterator[list[Any]]:
    """The record rows of one entry's version 4 to 6 ``records`` column, scanned as the
    store scans a current one. A generator, so that ``_decoded`` refuses what the scan
    raises."""
    rows = _scan_records(records_json)
    yield from map(row_from_dict, rows) if version == 4 else rows


def row_from_dict(d: dict[str, Any]) -> list[Any]:
    """The ``model.record_to_row`` array of a version-4 record object, which holds each
    field under its name and leaves a null one out. A ``doi_url`` or ``ads_url`` is not read:
    links are derived."""
    pages = d.get("pages")
    return [d.get("title", ""), _author_rows(d.get("authors", [])), d.get("source_type", "article"),
            d.get("journal"), d.get("volume"), d.get("number"),
            None if pages is None else [pages["first"], pages.get("last")],
            d.get("year"), d.get("publisher"), d.get("doi"), d.get("bibcode")]


def _author_rows(authors: Any) -> Any:
    """Each ``{"given_names": ..., "surname": ...}`` object as ``[given_names, surname]``;
    anything but a list is kept as it is, for ``record_from_row`` to refuse."""
    if authors.__class__ is not list:
        return authors
    return [[a.get("given_names", []), a["surname"]] for a in authors]


def _refusal(reason: str) -> StoreError:
    return StoreError(f"cannot migrate to schema version {SCHEMA_VERSION}: {reason}")
