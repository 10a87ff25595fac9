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
``model.record_to_dict`` objects in version 4, of ``model.record_to_row``
arrays from version 5 on. Versions 3 to 6 kept each entry's HTML and
BibTeX in a ``texts`` table, of which only BibTeX fetched from upstream
is read. No old DOI-set key, label or rendered text is read.
"""

from __future__ import annotations

import json
import sqlite3
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from .errors import MODEL_REFUSALS, StoreError
from .identifiers import parse_bibcode, parse_doi
from .model import AuthorName, BibRecord, Pages, RefEntry, SourceType, record_from_row
from .store import _SCHEMA, SCHEMA_VERSION, _row, _unreadable

# Record columns of versions 1 to 3, named after the keys of
# model.record_to_dict except that pages are split in two. ``source_type``
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
    if version == 1:
        (seq,) = conn.execute("SELECT next_id - 1 FROM id_sequence").fetchone()
    else:
        (seq,) = conn.execute(
            "SELECT COALESCE(MAX(seq), 0) FROM sqlite_sequence WHERE name = 'entries'"
        ).fetchone()
    fetched = dict(conn.execute("SELECT entry_id, bibtex FROM main.texts WHERE bibtex_fetched = 1")
                   if version >= 3 else ())
    conn.execute("CREATE TEMP TABLE old_entries (global_id INTEGER PRIMARY KEY, doi_set, deleted,"
                 " note, label, records, html, bibtex, bibtex_fetched)")
    conn.execute("CREATE TEMP TABLE old_crossrefs AS SELECT"
                 " dataset_scope, parameter, local_id, global_id FROM main.crossrefs")
    decode = record_from_dict if version == 4 else record_from_row
    entries = _entries_v1_to_v3(conn) if version <= 3 else _entries_json(conn, decode)
    live: dict[str, list[int]] = {}  # the live entries' IDs by DOI-set key
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
    rows = conn.execute(_SELECT_ROWS)
    try:
        for (global_id, deleted, note), group in groupby(rows, itemgetter(0, 1, 2)):
            yield deleted, _decoded(global_id, note, _records_from_columns(group))
    finally:
        rows.close()


def _entries_json(conn: sqlite3.Connection,
                  decode: Callable[[Any], BibRecord]) -> Iterator[tuple[int, RefEntry]]:
    """(deleted, entry) for every entry of a version 4 to 6 file, in ID order; each record
    of the row's JSON array through ``decode``."""
    rows = conn.execute("SELECT global_id, deleted, note, records FROM entries ORDER BY global_id")
    try:
        for global_id, deleted, note, records_json in rows:
            try:
                records = json.loads(records_json)
            except (RecursionError, ValueError):
                records = None
            if not isinstance(records, list):
                raise _refusal(f"the records of entry {global_id} are not a JSON array")
            yield deleted, _decoded(global_id, note, map(decode, records))
    finally:
        rows.close()


def _decoded(global_id: int, note: str | None, records: Iterable[BibRecord]) -> RefEntry:
    """Entry ``global_id``, its records decoded as ``records`` is drawn, every check included."""
    try:
        return RefEntry(list(records), note, global_id)
    except MODEL_REFUSALS as exc:
        raise _refusal(_unreadable(global_id, exc)) from exc


def _records_from_columns(rows: Iterator[tuple]) -> Iterator[BibRecord]:
    """The records of one entry's _SELECT_ROWS rows, through ``record_from_dict``."""
    for row in rows:
        if row[3] is None:
            raise _refusal(f"entry {row[0]} has no records")
        fields = {c: v for c, v in zip(_RECORD_COLUMNS, row[3:]) if v is not None}
        fields["authors"] = json.loads(fields["authors"])
        if "page_first" in fields:
            fields["pages"] = {"first": fields.pop("page_first"), "last": fields.pop("page_last", None)}
        yield record_from_dict(fields)


def record_from_dict(d: dict[str, Any]) -> BibRecord:
    """The record ``model.record_to_dict`` wrote, built through every constructor check."""
    pages = d.get("pages")
    if pages is not None:
        pages = Pages(pages["first"], pages.get("last"))
    return BibRecord(
        d.get("title", ""),
        [AuthorName(tuple(a.get("given_names", ())), a["surname"]) for a in d.get("authors", ())],
        SourceType(d.get("source_type", "article")),
        d.get("journal"), d.get("volume"), d.get("number"), pages, d.get("year"),
        d.get("publisher"), parse_doi(d["doi"]) if d.get("doi") else None,
        parse_bibcode(d["bibcode"]) if d.get("bibcode") else None,
    )


def _refusal(reason: str) -> StoreError:
    return StoreError(f"cannot migrate to schema version {SCHEMA_VERSION}: {reason}")
