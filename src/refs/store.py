"""Durable reference registry backed by a single-file SQLite database.

Global IDs come from a strictly monotonic sequence and are never reused:
deletion is a tombstone, so an ID keeps naming the same work forever.
Writes are serialized behind an internal lock; reads may run concurrently.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from itertools import chain
from pathlib import Path
from typing import Iterable

from .errors import CrossRefConflictError, DuplicateEntryError, MissingEntryError, StoreError
from .fileio import replace_files
from .identifiers import Doi, format_bibcode, parse_bibcode, parse_doi
from .model import AuthorName, BibRecord, Pages, RefEntry, SourceCrossRef, SourceType
from .render import render_bibtex, render_html

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE entries (
    global_id INTEGER PRIMARY KEY,
    doi_set   TEXT,
    deleted   INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE records (
    entry_id    INTEGER NOT NULL REFERENCES entries(global_id),
    position    INTEGER NOT NULL,
    source_type TEXT NOT NULL,
    title       TEXT NOT NULL,
    authors     TEXT NOT NULL,
    journal     TEXT,
    volume      TEXT,
    number      TEXT,
    page_first  TEXT,
    page_last   TEXT,
    year        INTEGER,
    publisher   TEXT,
    doi         TEXT,
    bibcode     TEXT,
    doi_url     TEXT,
    ads_url     TEXT,
    PRIMARY KEY (entry_id, position)
);

CREATE TABLE notes (
    entry_id INTEGER PRIMARY KEY REFERENCES entries(global_id),
    note     TEXT NOT NULL
);

CREATE TABLE crossrefs (
    dataset_scope TEXT NOT NULL,
    parameter     TEXT NOT NULL,
    local_id      INTEGER NOT NULL,
    global_id     INTEGER NOT NULL REFERENCES entries(global_id),
    PRIMARY KEY (dataset_scope, parameter, local_id)
);

CREATE TABLE id_sequence (
    next_id INTEGER NOT NULL
);
INSERT INTO id_sequence (next_id) VALUES (1);
"""

HTML_BUNDLE_NAME = "refs.html"
BIB_BUNDLE_NAME = "refs.bib"

_HTML_HEAD = (
    "<!DOCTYPE html>\n"
    '<html lang="en">\n'
    "<head>\n"
    '<meta charset="utf-8">\n'
    "<title>References</title>\n"
    "</head>\n"
    "<body>\n"
)
_HTML_TAIL = "</body>\n</html>\n"


class RefStore:
    """Handle on one reference database file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.execute("PRAGMA synchronous = NORMAL")
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0 and not self._has_tables():
            with self._lock, self._conn:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        elif version != SCHEMA_VERSION:
            raise StoreError(
                f"{self.path} carries schema version {version}, expected {SCHEMA_VERSION}"
            )

    def _has_tables(self) -> bool:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE type='table' AND name='entries'"
        ).fetchone()
        return row[0] > 0

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RefStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes --------------------------------------------------------

    def add_entry(self, records: list[BibRecord], note: str | None = None) -> int:
        """Persist one entry and return its freshly allocated global ID.

        Raises DuplicateEntryError when another live entry holds the exact
        same set of DOIs; entries without any DOI are never deduplicated.
        """
        if not records:
            raise ValueError("an entry needs at least one record")
        doi_set = _doi_set(r.doi for r in records)
        with self._lock, self._conn:
            existing = self._live_id_for_doi_set(doi_set)
            if existing is not None:
                raise DuplicateEntryError(
                    f"an entry with the same DOI set already exists: {existing}",
                    existing_id=existing,
                )
            gid = self._conn.execute("SELECT next_id FROM id_sequence").fetchone()[0]
            self._conn.execute("UPDATE id_sequence SET next_id = ?", (gid + 1,))
            self._conn.execute(
                "INSERT INTO entries (global_id, doi_set) VALUES (?, ?)", (gid, doi_set)
            )
            for position, record in enumerate(records):
                self._insert_record(gid, position, record)
            if note is not None:
                self._conn.execute(
                    "INSERT INTO notes (entry_id, note) VALUES (?, ?)", (gid, note)
                )
        return gid

    def delete_entry(self, global_id: int) -> None:
        """Tombstone an entry. Its ID is never handed out again."""
        with self._lock, self._conn:
            cur = self._conn.execute(
                "UPDATE entries SET deleted = 1 WHERE global_id = ? AND deleted = 0",
                (global_id,),
            )
            if cur.rowcount == 0:
                raise MissingEntryError(f"no entry {global_id}", missing=[global_id])

    def attach_crossref(
        self, scope: str, parameter: str, local_id: int, global_id: int
    ) -> None:
        """Map a dataset-local integer onto a global ID; idempotent on re-attach."""
        crossref = SourceCrossRef(scope, parameter, local_id, global_id)
        with self._lock, self._conn:
            if not self._entry_exists(global_id):
                raise MissingEntryError(f"no entry {global_id}", missing=[global_id])
            row = self._conn.execute(
                "SELECT global_id FROM crossrefs"
                " WHERE dataset_scope = ? AND parameter = ? AND local_id = ?",
                (scope, parameter, local_id),
            ).fetchone()
            if row:
                if row[0] != global_id:
                    raise CrossRefConflictError(
                        f"({scope}, {parameter}, {local_id}) is already mapped to {row[0]}"
                    )
                return
            self._conn.execute(
                "INSERT INTO crossrefs (dataset_scope, parameter, local_id, global_id)"
                " VALUES (?, ?, ?, ?)",
                (crossref.dataset_scope, crossref.parameter, crossref.local_id, crossref.global_id),
            )

    # -- reads ---------------------------------------------------------

    def find_entry_by_dois(self, dois: Iterable[Doi]) -> int | None:
        """The live entry holding exactly this set of DOIs, the key add_entry dedupes on."""
        return self._live_id_for_doi_set(_doi_set(dois))

    def get_entry(self, global_id: int) -> RefEntry:
        row = self._conn.execute(
            "SELECT global_id FROM entries WHERE global_id = ? AND deleted = 0",
            (global_id,),
        ).fetchone()
        if row is None:
            raise MissingEntryError(f"no entry {global_id}", missing=[global_id])
        return self._load_entry(global_id)

    def list_entries(self, scope: str | None = None) -> list[RefEntry]:
        """Live entries by ascending ID, optionally only those cross-referenced in a scope."""
        if scope is None:
            rows = self._conn.execute(
                "SELECT global_id FROM entries WHERE deleted = 0 ORDER BY global_id"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT DISTINCT e.global_id FROM entries e"
                " JOIN crossrefs c ON c.global_id = e.global_id"
                " WHERE e.deleted = 0 AND c.dataset_scope = ?"
                " ORDER BY e.global_id",
                (scope,),
            ).fetchall()
        return [self._load_entry(r[0]) for r in rows]

    def lookup_crossref(self, scope: str, parameter: str, local_id: int) -> int:
        row = self._conn.execute(
            "SELECT global_id FROM crossrefs"
            " WHERE dataset_scope = ? AND parameter = ? AND local_id = ?",
            (scope, parameter, local_id),
        ).fetchone()
        if row is None:
            raise MissingEntryError(
                f"no cross-reference for ({scope}, {parameter}, {local_id})",
                missing=[(scope, parameter, local_id)],
            )
        return row[0]

    def list_crossrefs(self, scope: str | None = None) -> list[SourceCrossRef]:
        query = (
            "SELECT dataset_scope, parameter, local_id, global_id FROM crossrefs"
        )
        params: tuple = ()
        if scope is not None:
            query += " WHERE dataset_scope = ?"
            params = (scope,)
        query += " ORDER BY dataset_scope, parameter, local_id"
        return [SourceCrossRef(*row) for row in self._conn.execute(query, params)]

    # -- export --------------------------------------------------------

    def export_bundle(self, ids: list[int], out_dir: str | Path) -> tuple[Path, Path]:
        """Write the HTML and .bib bibliography files for the given entries.

        Entries are ordered by global ID; both files are UTF-8 with LF line
        endings, and repeated exports of an unchanged store are
        byte-identical.
        """
        if not ids:
            raise ValueError("need at least one entry ID to export")
        missing = [i for i in ids if not self._entry_exists(i)]
        if missing:
            raise MissingEntryError(
                f"unknown entries: {', '.join(str(m) for m in sorted(missing))}",
                missing=sorted(missing),
            )
        entries = [self._load_entry(i) for i in sorted(set(ids))]

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        html_path = out / HTML_BUNDLE_NAME
        bib_path = out / BIB_BUNDLE_NAME

        html = chain([_HTML_HEAD], (f"<p>{render_html(e).body}</p>\n" for e in entries),
                     [_HTML_TAIL])
        bib = chain([render_bibtex(entries[0]).body],
                    ("\n\n" + render_bibtex(e).body for e in entries[1:]), ["\n"])
        replace_files([(html_path, html), (bib_path, bib)])
        return html_path, bib_path

    # -- internals -----------------------------------------------------

    def _live_id_for_doi_set(self, doi_set: str | None) -> int | None:
        if doi_set is None:
            return None
        row = self._conn.execute(
            "SELECT global_id FROM entries WHERE doi_set = ? AND deleted = 0", (doi_set,)
        ).fetchone()
        return row[0] if row else None

    def _entry_exists(self, global_id: int) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM entries WHERE global_id = ? AND deleted = 0", (global_id,)
        ).fetchone()
        return row is not None

    def _insert_record(self, gid: int, position: int, record: BibRecord) -> None:
        self._conn.execute(
            "INSERT INTO records (entry_id, position, source_type, title, authors,"
            " journal, volume, number, page_first, page_last, year, publisher,"
            " doi, bibcode, doi_url, ads_url)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                gid,
                position,
                record.source_type.value,
                record.title,
                json.dumps(
                    [{"given_names": list(a.given_names), "surname": a.surname} for a in record.authors],
                    ensure_ascii=False,
                ),
                record.journal,
                record.volume,
                record.number,
                record.pages.first if record.pages else None,
                record.pages.last if record.pages else None,
                record.year,
                record.publisher,
                record.doi.canonical if record.doi else None,
                format_bibcode(record.bibcode) if record.bibcode else None,
                record.doi_url,
                record.ads_url,
            ),
        )

    def _load_entry(self, gid: int) -> RefEntry:
        rows = self._conn.execute(
            "SELECT source_type, title, authors, journal, volume, number,"
            " page_first, page_last, year, publisher, doi, bibcode, doi_url, ads_url"
            " FROM records WHERE entry_id = ? ORDER BY position",
            (gid,),
        ).fetchall()
        note_row = self._conn.execute(
            "SELECT note FROM notes WHERE entry_id = ?", (gid,)
        ).fetchone()
        return RefEntry(
            records=[_record_from_row(r) for r in rows],
            note=note_row[0] if note_row else None,
            global_id=gid,
        )


def _doi_set(dois: Iterable[Doi | None]) -> str | None:
    canonical = sorted({d.canonical for d in dois if d is not None})
    return "|".join(canonical) if canonical else None


def _record_from_row(row: tuple) -> BibRecord:
    (
        source_type,
        title,
        authors_json,
        journal,
        volume,
        number,
        page_first,
        page_last,
        year,
        publisher,
        doi,
        bibcode,
        doi_url,
        ads_url,
    ) = row
    authors = [
        AuthorName(given_names=tuple(a["given_names"]), surname=a["surname"])
        for a in json.loads(authors_json)
    ]
    return BibRecord(
        title=title,
        authors=authors,
        source_type=SourceType(source_type),
        journal=journal,
        volume=volume,
        number=number,
        pages=Pages(first=page_first, last=page_last) if page_first else None,
        year=year,
        publisher=publisher,
        doi=parse_doi(doi) if doi else None,
        bibcode=parse_bibcode(bibcode) if bibcode else None,
        doi_url=doi_url,
        ads_url=ads_url,
    )
