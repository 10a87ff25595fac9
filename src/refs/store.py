"""Durable reference registry backed by a single-file SQLite database.

Global IDs come from an AUTOINCREMENT primary key and are never reused:
deletion is a tombstone, so an ID keeps naming the same work forever.

Each entry is one ``entries`` row: its ID; its DOI set, the duplicate
key, its sorted canonical DOIs joined by spaces, which no DOI holds; its
tombstone flag; its note; its ``model.entry_label``; its records as one
compact JSON array of ``model.record_to_row`` arrays; and its HTML and
BibTeX. A record's array holds its fields in ``BibRecord``'s constructor
order: title; authors, each ``[given_names, surname]``; the source type's
value; journal, volume and number; pages as ``[first, last]`` or null;
year and publisher; the canonical DOI and the 19-character bibcode. An
absent field is null. So reading an entry back is one primary-key
lookup, and each record is built straight through its constructors,
every check included. The records column is decoded by one strict JSON
scan that must end at its last character, so only the compact text
``_row`` writes is read, and each field must hold the JSON type
``model.record_to_row`` writes for it. Any other value, such as text
with whitespace around the array or data after it, a BLOB, JSON nested
past the recursion limit, or a title that is a number, raises StoreError
naming the entry.

Entries do not change after they are added, so each entry's HTML and
BibTeX are rendered once, by ``_row``, and stored in its row. For an
entry resolved through doi.org, the stored BibTeX is the text doi.org
sent. ``render --format html|bibtex``, a repeat add and the bundle
export read the stored text; JSON and plain text are rendered from the
records on every read. An entry none of whose records renders is stored
with no HTML, and reading its HTML raises UnrenderableError from that
NULL column. Reading stored text needs no model and no renderer, so this
module imports ``refs.model`` and ``refs.render`` only when a call first
decodes, labels or renders an entry. A change to the
bytes either renderer writes, or to the label rule, is a schema change:
it raises ``SCHEMA_VERSION``, and ``refs.migrations.migrate`` then
renders the stored texts of older files afresh, keeping fetched BibTeX.
The schema version is the one stamp of what the stored texts and labels
hold.

What holds when several processes share one database file:

- Every write is one ``BEGIN IMMEDIATE`` transaction, so writers take
  turns on SQLite's write lock and each add, delete or cross-reference is
  all or nothing. A writer waits up to five seconds for the lock.
- A handle's first add, delete or cross-reference puts the file in WAL
  mode, and it stays there. Opening and migrating run before that under
  a rollback journal truncated at each commit, so a read-only use leaves
  the file's bytes as they were. Under WAL each commit syncs the WAL and
  is then checkpointed, so the database file alone holds every committed
  entry unless another handle still reads an older snapshot. The switch
  removes the zero-length ``-journal`` file the rollback journal left;
  the ``-wal`` and ``-shm`` files exist only while a handle is open, and
  the last handle to close removes them.
- IDs are handed out in increasing order, each to exactly one entry.
- At most one live entry holds a given DOI set. An add first reads the
  DOI set through the live-DOI-set index and, on a hit, raises
  DuplicateEntryError naming the stored ID without taking the write lock.
  The index is also unique, so when two processes add the same DOIs at
  once, one gets the ID and the other gets DuplicateEntryError naming it.
- Reads see what other processes have committed. ``get_entry`` reads
  one row. ``export_bundle`` reads the requested live rows with one
  SELECT inside one transaction, with the live IDs when it exports them
  all, and streams their stored texts in ID order, decoding no entry, so
  both bundle files describe the same state. Under WAL a writer does not
  wait for an export, nor an export for a writer; only the write that
  switches a file to WAL waits for the readers of the rollback file,
  again for up to five seconds. A requested ID that the SELECT does not
  yield is missing, and the export then raises MissingEntryError and
  replaces neither file.
  ``list_entries`` reads the live IDs, then those entries, and leaves out
  any entry deleted in between.

One handle may be shared between threads. Its writes, and the duplicate
read before an add, are serialized by an internal lock; any other read
may see another thread's write on the same handle before that write
commits. SQLite refuses to switch a connection to WAL while one of its
reads is in progress, so a first write beside another thread's read
commits under the rollback journal, and a later write switches the
file. Opening an empty file writes nothing. The first write transaction
of a handle on it creates the current schema before that write's row,
and a refused write rolls the schema back with it. Until that write
commits, a read that finds no table answers as an empty store does,
and one that finds the schema another handle wrote reads it; a delete
or cross-reference naming an entry the file does not hold is refused
before any write begins, so the file stays empty. Opening an
older file migrates it in place, in one transaction. Any other file at
schema version 0, another program's database say, is refused with
StoreError and left as it was. ``refs.migrations.migrate`` reads the
older file's entries and writes them as an add would, through
``_SCHEMA`` and ``_row``; that module is imported only to migrate a
file. Migration is one way: older versions of this module refuse the
migrated file.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from importlib import import_module
from itertools import takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    MODEL_REFUSALS,
    CrossRefConflictError,
    DuplicateEntryError,
    MissingEntryError,
    StoreError,
    UnrenderableError,
    UnusableMetadataError,
)
from .fileio import replace_files
from .formats import RenderedCitation, RenderFormat

if TYPE_CHECKING:
    from .identifiers import Doi
    from .model import BibRecord, RefEntry


class _OnFirstUse:
    """Stands in for a sibling module until an attribute is read from it.

    The first read imports the module and rebinds this module's global to
    it, so later reads cost one attribute lookup and no call.
    """

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        module = import_module(f".{self._name}", __package__)
        globals()[self._name] = module
        return getattr(module, attr)


model = _OnFirstUse("model")
render = _OnFirstUse("render")

SCHEMA_VERSION = 7

_LIVE_DOI_SET_INDEX = (
    "CREATE UNIQUE INDEX live_doi_set ON entries (doi_set) WHERE deleted = 0"
)

_SCHEMA = (
    # Each column as _row writes it; ``bibtex_fetched`` marks BibTeX that a re-render keeps.
    """
CREATE TABLE entries (
    global_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    doi_set        TEXT,
    deleted        INTEGER NOT NULL DEFAULT 0,
    note           TEXT,
    label          TEXT NOT NULL,
    records        TEXT NOT NULL,
    html           TEXT,
    bibtex         TEXT NOT NULL,
    bibtex_fetched INTEGER NOT NULL
)""",
    _LIVE_DOI_SET_INDEX,
    """
    CREATE TABLE crossrefs (
        dataset_scope TEXT NOT NULL,
        parameter     TEXT NOT NULL,
        local_id      INTEGER NOT NULL,
        global_id     INTEGER NOT NULL REFERENCES entries(global_id),
        PRIMARY KEY (dataset_scope, parameter, local_id)
    )""",
)

_SELECT_ENTRY = "SELECT note, records FROM entries WHERE global_id = ? AND deleted = 0"
# After "SELECT <columns>": the live entries among a JSON array of IDs, in ID order.
_FROM_LIVE_IDS = (
    " FROM entries WHERE deleted = 0 AND global_id IN (SELECT value FROM json_each(?))"
    " ORDER BY global_id"
)

# The stored text of one live entry, by format.
_SELECT_TEXT = {
    fmt: f"SELECT {fmt.value} FROM entries WHERE global_id = ? AND deleted = 0"
    for fmt in (RenderFormat.HTML, RenderFormat.BIBTEX)
}

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
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False, isolation_level=None)
        try:
            # True once this handle's connection writes under WAL (_use_wal).
            self._wal = self._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            if self._wal:
                self._use_wal()
            else:
                # Until the first write: a rollback journal, truncated rather than
                # deleted at each commit, so migrating costs one file operation
                # fewer per commit, and a read leaves the file as it was.
                self._conn.execute("PRAGMA journal_mode = TRUNCATE")
                self._conn.execute("PRAGMA synchronous = NORMAL")
            version = self._user_version()
            # True until this handle's first write commits, if the file holds nothing:
            # that write creates the schema (_transaction), and reads answer as an
            # empty store does (_read).
            self._unwritten = version == 0 and self._holds_no_table()
            if version != SCHEMA_VERSION and not self._unwritten:
                with self._transaction():
                    self._upgrade()
            # Only now: a migration rebuilds tables with foreign keys off.
            self._conn.execute("PRAGMA foreign_keys = ON")
        except BaseException:
            self._conn.close()
            raise

    def _user_version(self) -> int:
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def _holds_no_table(self) -> bool:
        return not self._conn.execute("SELECT 1 FROM sqlite_master").fetchone()

    def _upgrade(self) -> None:
        """In the transaction under way: create the schema in an empty file or migrate an
        older one; refuse any other."""
        # Read again under the write lock: another process may have done it.
        version = self._user_version()
        if version == SCHEMA_VERSION:
            return
        if version == 0 and self._holds_no_table():
            for statement in _SCHEMA:
                self._conn.execute(statement)
        elif 1 <= version < SCHEMA_VERSION:
            from .migrations import migrate

            migrate(self._conn, version)
        else:
            raise StoreError(
                f"{self.path} carries schema version {version}, expected {SCHEMA_VERSION}"
            )
        self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def _use_wal(self) -> None:
        """Put the file in WAL mode, syncing each commit and then checkpointing it.

        Switching is a no-op on a file already in WAL mode, another handle's
        doing, say. The checkpoint after every commit copies the commit into
        the database file, which then holds every entry on its own. On Linux
        a commit then costs four ``fdatasync`` calls, three of the WAL and one
        of the database file.
        """
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = FULL")
        self._conn.execute("PRAGMA wal_autocheckpoint = 1")
        self._wal = True

    @contextmanager
    def _transaction(self, begin: str = "BEGIN IMMEDIATE",
                     write: bool = False) -> Iterator[sqlite3.Connection]:
        """One transaction on the shared connection; rolled back if anything raises.

        The handle's first ``write`` transaction puts the file in WAL mode,
        and on a file that holds nothing creates the schema first.
        """
        with self._lock:
            if write and not self._wal:
                try:
                    self._use_wal()
                except sqlite3.OperationalError:
                    # A read still in progress on the connection, another thread's
                    # say, forbids the switch: this write commits under the rollback
                    # journal, and the next one tries again.
                    pass
            self._conn.execute(begin)
            try:
                if write and self._unwritten:
                    self._upgrade()
                yield self._conn
                self._conn.execute("COMMIT")
            except BaseException:
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                raise
            if write:
                # Only once committed: a rolled-back schema leaves the file empty again.
                self._unwritten = False

    def _read(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """The rows of one read; none, as from an empty store, while the file has no schema."""
        try:
            return self._conn.execute(sql, params)
        except sqlite3.OperationalError:
            if not self._unwritten:
                raise
            if self._holds_no_table():
                return self._conn.cursor()  # a cursor that ran nothing yields no row
            # Another handle created the schema since this read was prepared.
            return self._conn.execute(sql, params)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RefStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes --------------------------------------------------------

    def add_entry(
        self, records: list[BibRecord], note: str | None = None, bibtex: str | None = None
    ) -> int:
        """Persist one entry and return its freshly allocated global ID.

        The entry's HTML and BibTeX are rendered and stored with it.
        ``bibtex``, the text fetched from upstream, say, is stored instead
        of the rendered BibTeX, and no re-render replaces it.

        Raises DuplicateEntryError when another live entry holds the exact
        same set of DOIs; entries without any DOI are never deduplicated.
        Raises TypeError, storing nothing, when a field holds a type that
        ``model.record_from_row`` refuses, and UnusableMetadataError naming
        the field, before the file is touched, when a text holds a lone
        surrogate, which SQLite cannot store.
        """
        if not records:
            raise ValueError("an entry needs at least one record")
        dois = [r.doi for r in records]
        # A duplicate is answered by an indexed read, without the write
        # lock. Under the handle's lock, so it sees no uncommitted insert.
        with self._lock:
            existing = self.find_entry_by_dois(dois)
        if existing is not None:
            raise _duplicate(existing)
        rows = [model.record_to_row(r) for r in records]
        for row in rows:  # stored only if get_entry reads it back: the decoder's type rule
            model.record_from_row(row)
        _refuse_lone_surrogates(rows, note, bibtex)
        with self._transaction(write=True) as conn:
            # The HTML labels each line with the ID, so take the one AUTOINCREMENT would.
            (gid,) = conn.execute(
                "SELECT 1 + MAX(IFNULL((SELECT seq FROM sqlite_sequence WHERE name = 'entries'),"
                " 0), IFNULL((SELECT MAX(global_id) FROM entries), 0))").fetchone()
            try:
                conn.execute("INSERT INTO entries VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                             _row(model.RefEntry(records, note, gid), 0, bibtex))
            except sqlite3.IntegrityError:
                # Only the live_doi_set index can refuse this row: another
                # writer stored the same DOIs since the read above.
                raise _duplicate(self.find_entry_by_dois(dois)) from None
        return gid

    def delete_entry(self, global_id: int) -> None:
        """Tombstone an entry. Its ID is never handed out again."""
        self._refuse_unknown_before_first_write(global_id)
        with self._transaction(write=True) as conn:
            cur = conn.execute(
                "UPDATE entries SET deleted = 1 WHERE global_id = ? AND deleted = 0",
                (global_id,),
            )
            if cur.rowcount == 0:
                raise MissingEntryError(f"no entry {global_id}", missing=[global_id])

    def attach_crossref(
        self, scope: str, parameter: str, local_id: int, global_id: int
    ) -> None:
        """Map a dataset-local integer onto a global ID; idempotent on re-attach. A key
        that check_crossref_key refuses raises its ValueError before the file is touched,
        and so does an unknown entry its MissingEntryError on a file never written."""
        check_crossref_key(scope, parameter, local_id, global_id)
        self._refuse_unknown_before_first_write(global_id)
        with self._transaction(write=True) as conn:
            if not self._entry_exists(global_id):
                raise MissingEntryError(f"no entry {global_id}", missing=[global_id])
            if (mapped := self._crossref_target(scope, parameter, local_id)) is not None:
                if mapped != global_id:
                    raise CrossRefConflictError(
                        f"({scope}, {parameter}, {local_id}) is already mapped to {mapped}")
                return
            conn.execute(
                "INSERT INTO crossrefs (dataset_scope, parameter, local_id, global_id)"
                " VALUES (?, ?, ?, ?)", (scope, parameter, local_id, global_id))

    def _refuse_unknown_before_first_write(self, global_id: int) -> None:
        """Until the handle's first write commits, raise MissingEntryError for an entry the
        file does not hold before that write switches the file to WAL, which writes it."""
        if self._unwritten and not self._entry_exists(global_id):
            raise MissingEntryError(f"no entry {global_id}", missing=[global_id])

    # -- reads ---------------------------------------------------------

    def find_entry_by_dois(self, dois: Iterable[Doi | None]) -> int | None:
        """The live entry holding exactly this set of DOIs, the key add_entry dedupes on."""
        if (doi_set := _doi_set(dois)) is None:
            return None
        # Served by the live_doi_set index, whose condition this repeats.
        row = self._read(
            "SELECT global_id FROM entries WHERE doi_set = ? AND deleted = 0", (doi_set,)
        ).fetchone()
        return row[0] if row else None

    def get_entry_by_dois(self, dois: Iterable[Doi]) -> tuple[RefEntry, str] | None:
        """The live entry holding exactly these DOIs and its stored BibTeX, by one indexed
        SELECT; None if there is none, as for no DOIs, whose NULL key equals nothing."""
        row = self._read(
            "SELECT global_id, note, records, bibtex FROM entries"
            " WHERE doi_set = ? AND deleted = 0", (_doi_set(dois),)).fetchone()
        return None if row is None else (_entry_from_row(*row[:3]), row[3])

    def get_entry(self, global_id: int) -> RefEntry:
        row = self._read(_SELECT_ENTRY, (global_id,)).fetchone()
        if row is None:
            raise MissingEntryError(f"no entry {global_id}", missing=[global_id])
        return _entry_from_row(global_id, *row)

    def get_rendered(self, global_id: int, fmt: RenderFormat) -> RenderedCitation:
        """A live entry in one house format.

        HTML and BibTeX are the texts stored with the entry; JSON and text
        are rendered from its records. Raises MissingEntryError for an
        unknown or deleted ID.
        """
        if fmt in _SELECT_TEXT:
            row = self._read(_SELECT_TEXT[fmt], (global_id,)).fetchone()
            if row is None:
                raise MissingEntryError(f"no entry {global_id}", missing=[global_id])
            if row[0] is None:  # a NULL HTML column: no record of the entry renders
                raise UnrenderableError()
            return RenderedCitation(format=fmt, body=row[0], global_label=str(global_id))
        return render.render_format(self.get_entry(global_id), fmt)

    def list_entries(self, scope: str | None = None) -> list[RefEntry]:
        """Live entries by ascending ID, optionally only those cross-referenced in a scope."""
        return list(self._load(self.live_ids(scope)))

    def live_ids(self, scope: str | None = None) -> list[int]:
        """IDs of live entries, ascending, optionally only those cross-referenced in a scope."""
        return [row[0] for row in self._select_live("SELECT e.global_id FROM entries e", scope)]

    def list_labels(self, scope: str | None = None) -> list[tuple[int, str]]:
        """(ID, label) of live entries by ascending ID, optionally only those in a scope.

        The labels are those stored at add (``model.entry_label``), so no
        entry is decoded.
        """
        return self._select_live("SELECT e.global_id, e.label FROM entries e", scope).fetchall()

    def lookup_crossref(self, scope: str, parameter: str, local_id: int) -> int:
        global_id = self._crossref_target(scope, parameter, local_id)
        if global_id is None:
            raise MissingEntryError(
                f"no cross-reference for ({scope}, {parameter}, {local_id})",
                missing=[(scope, parameter, local_id)],
            )
        return global_id

    # -- export --------------------------------------------------------

    def export_bundle(self, ids: list[int] | None, out_dir: str | Path) -> tuple[Path, Path]:
        """Write the HTML and .bib bibliography files for the given entries, or all live ones.

        For ``ids`` of None, the live IDs are read in the export's own
        transaction; if there are none, MissingEntryError. Entries are
        ordered by global ID; both files are UTF-8 with LF line endings, and
        repeated exports of an unchanged store are byte-identical. Neither
        file is replaced if an ID has no live entry (MissingEntryError,
        listing them) or an entry no HTML (UnrenderableError).
        """
        if ids is not None and not ids:
            raise ValueError("need at least one entry ID to export")
        out = Path(out_dir)
        html_path = out / HTML_BUNDLE_NAME
        bib_path = out / BIB_BUNDLE_NAME
        with self._transaction("BEGIN"):
            ids = self.live_ids() if ids is None else sorted(set(ids))
            if not ids:
                raise MissingEntryError("no entries")
            out.mkdir(parents=True, exist_ok=True)
            replace_files([html_path, bib_path], self._bundle_rows(ids))
        return html_path, bib_path

    def _bundle_rows(self, ids: list[int]) -> Iterator[tuple[str, str]]:
        """(HTML, BibTeX) chunks for the bundle: the stored texts of these live IDs, in order."""
        yield _HTML_HEAD, ""
        rows = self._read("SELECT global_id, html, bibtex" + _FROM_LIVE_IDS, (json.dumps(ids),))
        wanted = iter(ids)
        missing: list[int] = []
        unrenderable = False
        try:
            separator = ""
            for global_id, html, bibtex in rows:
                # Consumes the requested IDs up to this row's: those before it have no live row.
                missing += takewhile(lambda i: i != global_id, wanted)
                unrenderable = unrenderable or html is None
                if not unrenderable:
                    yield f"<p>{html}</p>\n", separator + bibtex
                    separator = "\n\n"
        finally:
            rows.close()
        missing += wanted
        if missing:
            raise MissingEntryError(
                f"unknown entries: {', '.join(map(str, missing))}", missing=missing)
        if unrenderable:
            raise UnrenderableError()
        yield _HTML_TAIL, "\n"

    # -- internals -----------------------------------------------------

    def _load(self, ids: list[int]) -> Iterator[RefEntry]:
        """The live entries among these ascending IDs, decoded as their rows arrive.

        Each entry's global_id is the int object from ``ids``, not the row's
        copy. The row's copy sits among the decoding's temporary objects, and
        a caller that kept only the IDs would keep all of that memory
        allocated.
        """
        rows = self._read("SELECT global_id, note, records" + _FROM_LIVE_IDS, (json.dumps(ids),))
        wanted = iter(ids)
        try:
            for row_id, note, records_json in rows:
                global_id = next(i for i in wanted if i == row_id)
                yield _entry_from_row(global_id, note, records_json)
        finally:
            rows.close()

    def _select_live(self, select: str, scope: str | None) -> sqlite3.Cursor:
        """Run ``select`` (from ``entries e``) over live entries by ID, maybe only a scope's.
        A scope that no store can hold selects nothing."""
        if scope is None:
            return self._read(select + " WHERE e.deleted = 0 ORDER BY e.global_id")
        if not _storable(scope):
            return self._conn.cursor()  # a cursor that ran nothing yields no row
        return self._read(
            select + " WHERE e.deleted = 0 AND e.global_id IN"
            " (SELECT global_id FROM crossrefs WHERE dataset_scope = ?)"
            " ORDER BY e.global_id",
            (scope,),
        )

    def _crossref_target(self, scope: str, parameter: str, local_id: int) -> int | None:
        """The global ID this cross-reference key maps onto, or None, as for a key no store
        can hold."""
        if not (_storable(scope) and _storable(parameter)):
            return None
        row = self._read(
            "SELECT global_id FROM crossrefs WHERE dataset_scope = ? AND parameter = ?"
            " AND local_id = ?", (scope, parameter, local_id)).fetchone()
        return None if row is None else row[0]

    def _entry_exists(self, global_id: int) -> bool:
        row = self._read(
            "SELECT 1 FROM entries WHERE global_id = ? AND deleted = 0", (global_id,)
        ).fetchone()
        return row is not None


def check_crossref_key(scope: str, parameter: str, local_id: int, global_id: int) -> None:
    """Refuse a cross-reference key with ValueError unless its dataset scope and parameter
    are non-empty text SQLite can store, its local ID is at least 0 and its global ID at
    least 1."""
    for name, text in (("dataset_scope", scope), ("parameter", parameter)):
        if not text:
            raise ValueError(f"{name} must be non-empty")
        if not _storable(text):
            raise ValueError(f"{name} {_UNSTORABLE}")
    if local_id < 0:
        raise ValueError(f"local_id must be >= 0, got {local_id}")
    if global_id < 1:
        raise ValueError(f"global_id must be >= 1, got {global_id}")


# The JSON of a records column: compact, text as it is. One encoder, not one per call.
_compact_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


# Why _storable refuses a text.
_UNSTORABLE = "holds a lone surrogate, which UTF-8 cannot encode"


def _storable(value) -> bool:
    """Whether SQLite can store each text in ``value``: a text, or a list that nests texts,
    None and numbers as a record row does. UTF-8 cannot encode a lone surrogate."""
    if isinstance(value, str):
        if value.isascii():  # the common case, which needs no encoder
            return True
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True
    if isinstance(value, list):
        return all(map(_storable, value))
    return True


def _refuse_lone_surrogates(rows: list[list], note: str | None, bibtex: str | None) -> None:
    """Refuse with UnusableMetadataError, naming the field, an entry's text that SQLite
    cannot store (``_storable``). Each field is checked alone."""
    for i, row in enumerate(rows, 1):
        # A row holds the record's fields in constructor order, as its slots are named.
        for field, value in zip(model.BibRecord.__slots__, row):
            if not _storable(value):
                raise UnusableMetadataError(f"the {field} of record {i} {_UNSTORABLE}")
    for name, value in (("note", note), ("BibTeX", bibtex)):
        if not _storable(value):
            raise UnusableMetadataError(f"the {name} {_UNSTORABLE}")


def _duplicate(existing: int) -> DuplicateEntryError:
    return DuplicateEntryError(
        f"an entry with the same DOI set already exists: {existing}", existing_id=existing
    )


def _doi_set(dois: Iterable[Doi | None]) -> str | None:
    canonical = sorted({d.canonical for d in dois if d is not None})
    return " ".join(canonical) if canonical else None


def _row(entry: RefEntry, deleted: int, bibtex: str | None) -> tuple:
    """The ``entries`` row of an entry, each column by the rule for a new entry.

    ``records`` goes through the model's row codec, and ``html`` is None if
    no record renders. ``bibtex``, fetched from upstream, is kept, else rendered.
    """
    records = entry.records
    try:
        html = render.render_html(entry).body
    except UnrenderableError:
        html = None
    return (entry.global_id, _doi_set(r.doi for r in records), deleted, entry.note,
            model.entry_label(records),
            _compact_json([model.record_to_row(r) for r in records]),
            html, render.render_bibtex(entry).body if bibtex is None else bibtex,
            bibtex is not None)


def _unreadable(global_id: int, exc: Exception) -> str:
    return f"the records of entry {global_id} cannot be read: {type(exc).__name__}: {exc}"


_scan_json = json.JSONDecoder().raw_decode


def _scan_records(records_json: str) -> list:
    """A ``records`` column by one strict JSON scan, which must end at its last character."""
    rows, end = _scan_json(records_json)
    if end != len(records_json):
        raise json.JSONDecodeError("Extra data", records_json, end)
    return rows


def _entry_from_row(global_id: int, note: str | None, records_json: str) -> RefEntry:
    """One entry from its ``entries`` row: its records by one strict scan, then the model's
    row codec."""
    try:
        records = list(map(model.record_from_row, _scan_records(records_json)))
        return model.RefEntry(records, note, global_id)
    except MODEL_REFUSALS as exc:
        raise StoreError(_unreadable(global_id, exc)) from exc
