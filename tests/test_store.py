"""Registry tests: IDs, dedup, cross-references, bundles, durability."""

from __future__ import annotations

import ast
import errno
import gc
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import sqlite3
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

import refs
from refs import (
    AuthorName,
    BibRecord,
    CrossRefConflictError,
    DuplicateEntryError,
    MissingEntryError,
    Pages,
    RefEntry,
    RefsError,
    RefStore,
    RenderFormat,
    StoreError,
    UnrenderableError,
    make_author,
    parse_bibcode,
    parse_doi,
    render_bibtex,
    render_html,
    resolve_and_store_report,
)
from refs import fileio
from refs.cli import EXIT_STORE, main as cli_main
from refs.errors import MODEL_REFUSALS
from refs.migrations import row_from_dict
from refs.model import entry_label, record_from_row, record_to_row
from refs.render import render_format
from refs.store import BIB_BUNDLE_NAME, HTML_BUNDLE_NAME, SCHEMA_VERSION

from conftest import GOLDEN_DIR, unsynced
from corpus import build_corpus_entries
from stored_forms import v4_record
from strategies import json_records, json_text, nonempty_json_text


optional_text = st.none() | st.text(max_size=20)


def storable(text: str) -> str:
    """``text`` with each lone surrogate, which SQLite's UTF-8 cannot hold, as U+FFFD."""
    return re.sub("[\ud800-\udfff]", "\ufffd", text)


storable_records = json_records.map(lambda record: record_from_row(row_from_dict(json.loads(
    storable(json.dumps(v4_record(record), ensure_ascii=False))))))


def record(doi: str, title: str = "A title", year: int = 2000) -> BibRecord:
    return BibRecord(
        title=title,
        authors=[make_author("A.", "Author")],
        journal="J",
        volume="1",
        pages=Pages("1", "2"),
        year=year,
        doi=parse_doi(doi),
    )


class TestAddEntry:
    def test_first_entry_gets_id_1(self, store):
        assert store.add_entry([record("10.1000/a")]) == 1

    def test_ids_are_sequential(self, store):
        assert store.add_entry([record("10.1000/a")]) == 1
        assert store.add_entry([record("10.1000/b")]) == 2
        assert store.add_entry([record("10.1000/c")]) == 3

    def test_duplicate_doi_set_reports_existing_id(self, store):
        first = store.add_entry([record("10.1000/a")])
        with pytest.raises(DuplicateEntryError) as exc_info:
            store.add_entry([record("10.1000/a", title="Different title")])
        assert exc_info.value.existing_id == first

    def test_duplicate_check_uses_the_whole_set(self, store):
        store.add_entry([record("10.1000/a"), record("10.1000/b")])
        # a different set sharing one DOI is not a duplicate
        assert store.add_entry([record("10.1000/a"), record("10.1000/c")]) == 2

    def test_find_by_dois_uses_the_duplicate_key(self, store):
        gid = store.add_entry([record("10.1000/b"), record("10.1000/a")])
        assert store.find_entry_by_dois([parse_doi("10.1000/a"), parse_doi("10.1000/b")]) == gid
        assert store.find_entry_by_dois([parse_doi("10.1000/a")]) is None
        assert store.find_entry_by_dois([]) is None
        store.delete_entry(gid)
        assert store.find_entry_by_dois([parse_doi("10.1000/a"), parse_doi("10.1000/b")]) is None

    def test_a_duplicate_stored_after_the_read_is_refused_by_the_index(self, store, monkeypatch):
        first = store.add_entry([record("10.1000/a")])
        lookup = store.find_entry_by_dois
        seen = []

        def stale_then_fresh(dois):
            # The first read misses, as if another process committed just after it.
            seen.append([doi.canonical for doi in dois])
            return None if len(seen) == 1 else lookup(dois)

        monkeypatch.setattr(store, "find_entry_by_dois", stale_then_fresh)
        with pytest.raises(DuplicateEntryError) as exc_info:
            store.add_entry([record("10.1000/a")])
        assert exc_info.value.existing_id == first
        assert seen == [["10.1000/a"], ["10.1000/a"]]
        assert store.live_ids() == [first]

    def test_entries_without_dois_never_collide(self, store):
        a = BibRecord(title="Private communication", year=2001)
        b = BibRecord(title="Another private communication", year=2002)
        assert store.add_entry([a]) == 1
        assert store.add_entry([b]) == 2

    def test_two_record_entry_keeps_sublabels(self, store):
        gid = store.add_entry([record("10.1000/a"), record("10.1000/b")])
        assert store.get_entry(gid).sub_labels == ["a", "b"]

    def test_empty_records_rejected(self, store):
        with pytest.raises(ValueError):
            store.add_entry([])

    # Values every constructor takes but the row decoder refuses. Such an entry used to be
    # stored, unreadable, and its DOI set then made every later add of the DOI a duplicate.
    @pytest.mark.parametrize("field, value", [
        ("year", 2001.5), ("year", 2001.0), ("title", 5), ("journal", True),
        ("pages", Pages(5)), ("authors", [AuthorName((5,), "B")]),
    ], ids=["year-float", "year-whole-float", "title-int", "journal-bool", "first-page-int",
            "given-name-int"])
    def test_a_record_the_decoder_refuses_is_not_stored(self, store, field, value):
        before = store.path.read_bytes()
        refused = record("10.1000/x")
        setattr(refused, field, value)
        with pytest.raises(TypeError):
            store.add_entry([record("10.1000/a"), refused])
        assert store.path.read_bytes() == before
        assert store.live_ids() == []
        assert store.add_entry([record("10.1000/a"), record("10.1000/x")]) == 1


class TestRetrieval:
    def test_add_then_get_roundtrip(self, store):
        original = [record("10.1000/a", title="Exact fields", year=1999)]
        gid = store.add_entry(original, note="a note")
        loaded = store.get_entry(gid)
        assert loaded.records == original
        assert loaded.note == "a note"
        assert loaded.global_id == gid

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(st.tuples(st.lists(storable_records, min_size=1, max_size=4),
                                      optional_text), min_size=1, max_size=3))
    def test_add_then_get_roundtrips_arbitrary_records(self, entries):
        with RefStore(":memory:") as store:
            stored = {}
            for recs, note in entries:
                try:
                    stored[store.add_entry(recs, note=note)] = (recs, note)
                except DuplicateEntryError:
                    pass
            for gid, (recs, note) in stored.items():
                loaded = store.get_entry(gid)
                assert (loaded.records, loaded.note, loaded.global_id) == (recs, note, gid)
            assert [(e.records, e.note) for e in store.list_entries()] == list(stored.values())

    @settings(max_examples=40, deadline=None)
    @given(entries=st.lists(st.lists(storable_records, min_size=1, max_size=2),
                            min_size=1, max_size=4))
    @example(entries=[[BibRecord(title="\x00")], [BibRecord(title="a\x00b")],
                      [BibRecord(title="a\\u0000b")],
                      [BibRecord(authors=[make_author("\x00", "N\x00")])]])
    def test_stored_labels_match_the_decoded_entries(self, entries):
        def label(entry):
            first = entry.records[0]
            return first.title or (first.authors[0].formatted if first.authors else "(untitled)")

        with RefStore(":memory:") as store:
            for recs in entries:
                try:
                    store.add_entry(recs)
                except DuplicateEntryError:
                    pass
            assert store.list_labels() == [(e.global_id, label(e)) for e in store.list_entries()]

    def test_unknown_id(self, store):
        with pytest.raises(MissingEntryError):
            store.get_entry(999999)

    def test_a_row_that_does_not_decode_is_a_store_error_naming_the_entry(self, store):
        gid = store.add_entry([record("10.1000/a", title="")])
        (records_json,) = store._conn.execute("SELECT records FROM entries").fetchone()
        rows = json.loads(records_json)
        rows[0][1] = [["A."]]  # an author with no surname
        store._conn.execute("UPDATE entries SET records = ?", (json.dumps(rows),))
        unreadable = f"the records of entry {gid} cannot be read: "
        with pytest.raises(StoreError, match=unreadable + "ValueError"):
            store.get_entry(gid)
        with pytest.raises(StoreError, match=unreadable + "ValueError"):
            store.list_entries()
        # The label was written at add, so listing decodes no records.
        assert store.list_labels() == [(gid, "A. Author")]

    def test_list_empty_store(self, store):
        assert store.list_entries() == []

    def test_list_ordered_by_id(self, store):
        for i, d in enumerate(["10.1000/c", "10.1000/a", "10.1000/b"]):
            store.add_entry([record(d)])
        assert [e.global_id for e in store.list_entries()] == [1, 2, 3]

    def test_scope_filter_matches_brute_force(self, store):
        ids = [store.add_entry([record(f"10.1000/{i}")]) for i in range(6)]
        scoped = {"H2O": ids[0:3], "CO2": ids[3:5]}
        for scope, members in scoped.items():
            for local, gid in enumerate(members):
                store.attach_crossref(scope, "nu", local, gid)
        # brute-force oracle over every crossref row
        rows = read_table(store.path, "SELECT dataset_scope, global_id FROM crossrefs")
        for scope in scoped:
            expected = sorted({gid for row_scope, gid in rows if row_scope == scope})
            assert [e.global_id for e in store.list_entries(scope=scope)] == expected
        assert [e.global_id for e in store.list_entries(scope="none-such")] == []


def entry_from_row_by_loads(global_id: int, note: str | None, records_json) -> RefEntry:
    """The row decode as first written: ``json.loads``, which also read whitespace around
    the array, and bytes."""
    return RefEntry([record_from_row(r) for r in json.loads(records_json)], note, global_id)


# A value of a JSON type record_to_row never writes at that position of a row, by the
# row index it replaces; each decoded into a record before types were checked.
WRONG_TYPES = {
    "title-int": (0, 5), "authors-text": (1, ""), "authors-object": (1, {}),
    "given-names-text": (1, [["Élodie", "Gordon"]]), "given-name-int": (1, [[[5], "Gordon"]]),
    "journal-int": (3, 1), "volume-list": (4, ["1"]), "number-int": (5, 2),
    "pages-text": (6, "12"), "pages-object": (6, {"1": 0, "2": 0}), "pages-ints": (6, [1, 2]),
    "last-page-int": (6, ["1", 2]), "year-float": (7, 2001.0), "publisher-bool": (8, False),
}


def with_field(index: int, value) -> Callable[[str], str]:
    """A damage that writes ``value`` at ``index`` of the first record's row."""
    def damage(records_json: str) -> str:
        rows = json.loads(records_json)
        rows[0][index] = value
        return json.dumps(rows, ensure_ascii=False, separators=(",", ":"))
    return damage


class TestRowDecode:
    """A row's records are read by one strict scan: only text as ``_row`` writes it decodes."""

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(json_records, min_size=1, max_size=3), note=optional_text)
    def test_a_row_as_written_decodes_as_json_loads_read_it(self, records, note):
        records_json = refs.store._row(RefEntry(records, note, 7), 0, None)[5]
        assert (refs.store._entry_from_row(7, note, records_json)
                == entry_from_row_by_loads(7, note, records_json) == RefEntry(records, note, 7))

    @pytest.mark.parametrize("damage", [
        lambda text: " " + text, lambda text: text + "\n", lambda text: text + "[]",
        lambda text: "\ufeff" + text, str.encode, lambda text: "[" * 100_000,
        *[with_field(i, value) for i, value in WRONG_TYPES.values()],
    ], ids=["leading-space", "trailing-newline", "trailing-data", "bom", "blob", "nested",
            *WRONG_TYPES])
    def test_any_other_records_column_is_refused_naming_the_entry(self, store, damage):
        gid = store.add_entry([record("10.1000/a")])
        (records_json,) = store._conn.execute("SELECT records FROM entries").fetchone()
        store._conn.execute("UPDATE entries SET records = ?", (damage(records_json),))
        unreadable = f"the records of entry {gid} cannot be read: "
        with pytest.raises(StoreError, match=unreadable):
            store.get_entry(gid)
        with pytest.raises(StoreError, match=unreadable):
            store.list_entries()
        with pytest.raises(StoreError, match=unreadable):
            store.get_rendered(gid, RenderFormat.JSON)
        with pytest.raises(StoreError, match=unreadable):
            store.get_entry_by_dois([parse_doi("10.1000/a")])


class TestCrossRefs:
    def test_attach_then_lookup(self, store):
        gid = store.add_entry([record("10.1000/a")])
        store.attach_crossref("H2C18O", "nu", 5, gid)
        assert store.lookup_crossref("H2C18O", "nu", 5) == gid

    def test_reattach_identical_is_idempotent(self, store):
        gid = store.add_entry([record("10.1000/a")])
        store.attach_crossref("H2O", "nu", 1, gid)
        store.attach_crossref("H2O", "nu", 1, gid)
        assert read_table(store.path, "SELECT * FROM crossrefs") == [("H2O", "nu", 1, gid)]

    def test_conflicting_remap_rejected(self, store):
        a = store.add_entry([record("10.1000/a")])
        b = store.add_entry([record("10.1000/b")])
        store.attach_crossref("H2O", "nu", 1, a)
        with pytest.raises(CrossRefConflictError):
            store.attach_crossref("H2O", "nu", 1, b)

    def test_attach_to_unknown_entry(self, store):
        with pytest.raises(MissingEntryError):
            store.attach_crossref("H2O", "nu", 1, 42)

    @pytest.mark.parametrize("key, message", [
        (("", "nu", 5, 1), "dataset_scope must be non-empty"),
        (("H2O", "", 5, 1), "parameter must be non-empty"),
        (("H2O", "nu", -1, 1), "local_id must be >= 0, got -1"),
        (("H2O", "nu", 5, 0), "global_id must be >= 1, got 0"),
    ], ids=["empty-scope", "empty-parameter", "negative-local-id", "global-id-below-1"])
    def test_a_refused_key_is_a_value_error_before_the_file_is_touched(self, tmp_path, key,
                                                                       message):
        db = tmp_path / "refs.db"
        with RefStore(db) as store, unsynced(store):
            store.add_entry([record("10.1000/a")])
        before = db.read_bytes()
        with RefStore(db) as store:
            with pytest.raises(ValueError) as raised:
                store.attach_crossref(*key)
            assert str(raised.value) == message
            assert journal_settings(store)[0] == "truncate"  # no write began: still rollback
        assert db.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["refs.db"]


class TestDeletion:
    def test_deleted_entry_is_gone(self, store):
        gid = store.add_entry([record("10.1000/a")])
        store.delete_entry(gid)
        with pytest.raises(MissingEntryError):
            store.get_entry(gid)

    def test_ids_never_reused_after_delete(self, store):
        a = store.add_entry([record("10.1000/a")])
        store.delete_entry(a)
        b = store.add_entry([record("10.1000/b")])
        assert b == a + 1

    def test_deleting_twice_fails(self, store):
        gid = store.add_entry([record("10.1000/a")])
        store.delete_entry(gid)
        with pytest.raises(MissingEntryError):
            store.delete_entry(gid)

    def test_deleted_doi_can_be_added_again_under_new_id(self, store):
        a = store.add_entry([record("10.1000/a")])
        store.delete_entry(a)
        b = store.add_entry([record("10.1000/a")])
        assert b != a


class TestExportBundle:
    def test_single_id_writes_both_files(self, store, tmp_path):
        gid = store.add_entry([record("10.1000/a")])
        html_path, bib_path = store.export_bundle([gid], tmp_path / "out")
        assert html_path.read_text(encoding="utf-8").strip()
        assert bib_path.read_text(encoding="utf-8").strip()

    def test_labels_and_order(self, store, tmp_path):
        first = store.add_entry([record("10.1000/a"), record("10.1000/b")])
        second = store.add_entry([record("10.1000/c")])
        html_path, _ = store.export_bundle([second, first], tmp_path)
        html = html_path.read_text(encoding="utf-8")
        assert f"{first}a. " in html and f"{first}b. " in html
        assert html.index(f"{first}a. ") < html.index(f"{second}. ")

    def test_unknown_ids_listed(self, store, tmp_path):
        store.add_entry([record("10.1000/a")])
        with pytest.raises(MissingEntryError) as exc_info:
            store.export_bundle([1, 999999, 888888], tmp_path)
        assert exc_info.value.missing == [888888, 999999]

    def test_byte_deterministic(self, store, tmp_path):
        store.add_entry([record("10.1000/a")], note="n")
        store.add_entry([record("10.1000/b")])
        a1, b1 = store.export_bundle([1, 2], tmp_path / "one")
        a2, b2 = store.export_bundle([1, 2], tmp_path / "two")
        assert a1.read_bytes() == a2.read_bytes()
        assert b1.read_bytes() == b2.read_bytes()

    def test_lf_line_endings(self, store, tmp_path):
        store.add_entry([record("10.1000/a")])
        html_path, bib_path = store.export_bundle([1], tmp_path)
        assert b"\r" not in html_path.read_bytes()
        assert b"\r" not in bib_path.read_bytes()

    def test_empty_id_list_rejected(self, store, tmp_path):
        with pytest.raises(ValueError):
            store.export_bundle([], tmp_path)

    def test_no_ids_exports_every_live_entry(self, store, tmp_path):
        for doi in ("10.1000/a", "10.1000/b", "10.1000/c"):
            store.add_entry([record(doi)])
        store.delete_entry(2)
        every = store.export_bundle(None, tmp_path / "every")
        listed = store.export_bundle([1, 3], tmp_path / "listed")
        assert [p.read_bytes() for p in every] == [p.read_bytes() for p in listed]

    def test_no_ids_on_a_store_without_live_entries_is_missing(self, store, tmp_path):
        store.add_entry([record("10.1000/a")])
        store.delete_entry(1)
        with pytest.raises(MissingEntryError, match="^no entries$"):
            store.export_bundle(None, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_dir_is_io_error(self, store, tmp_path):
        store.add_entry([record("10.1000/a")])
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(OSError):
            store.export_bundle([1], blocker / "out")


    @pytest.mark.parametrize("failing", ["refs.html", "refs.bib"])
    def test_failed_write_leaves_the_previous_bundle(self, store, tmp_path, monkeypatch, failing):
        store.add_entry([record("10.1000/a")])
        out = tmp_path / "out"
        html_path, bib_path = store.export_bundle([1], out)
        before = (html_path.read_bytes(), bib_path.read_bytes())
        store.add_entry([record("10.1000/b", title="Another title")])

        def disk_fills_up(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if failing not in Path(path).name:
                return fh

            class HalfWritten:
                # A two-entry bundle file is four chunks: head, two entries, tail.
                writes = 0

                def __enter__(self):
                    return self

                def __exit__(self, *exc_info):
                    fh.close()

                def write(self, chunk):
                    if self.writes == 2:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    self.writes += 1
                    return fh.write(chunk)

            return HalfWritten()

        monkeypatch.setattr(fileio, "open", disk_fills_up, raising=False)
        with pytest.raises(OSError):
            store.export_bundle([1, 2], out)
        assert (html_path.read_bytes(), bib_path.read_bytes()) == before
        assert sorted(p.name for p in out.iterdir()) == ["refs.bib", "refs.html"]

    def test_files_are_flushed_before_the_moves_and_the_directory_after(
            self, store, tmp_path, monkeypatch):
        store.add_entry([record("10.1000/a")])
        events = []
        fsync, replace = os.fsync, os.replace

        def traced_fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", info.st_ino, stat.S_ISDIR(info.st_mode)))
            fsync(fd)

        def traced_replace(src, dst):
            events.append(("replace", Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(fileio.os, "fsync", traced_fsync)
        monkeypatch.setattr(fileio.os, "replace", traced_replace)
        html_path, bib_path = store.export_bundle([1], tmp_path / "out")
        inode = {p.name: p.stat().st_ino for p in (html_path, bib_path, tmp_path / "out")}
        assert events == [
            ("fsync", inode["refs.html"], False), ("fsync", inode["refs.bib"], False),
            ("replace", "refs.html"), ("replace", "refs.bib"),
            ("fsync", inode["out"], True),
        ]

    def test_no_entry_is_decoded(self, store, tmp_path, monkeypatch):
        for suffix in "abc":
            store.add_entry([record(f"10.1000/{suffix}")])
        decoded = []

        def counting(global_id, note, records_json):
            decoded.append(global_id)
            return entry_from_row(global_id, note, records_json)

        entry_from_row = refs.store._entry_from_row
        monkeypatch.setattr(refs.store, "_entry_from_row", counting)
        html_path, bib_path = store.export_bundle([3, 1, 2], tmp_path)
        assert decoded == []
        assert html_path.read_text(encoding="utf-8").count("<p>") == 3
        assert bib_path.read_text(encoding="utf-8").count("@article{") == 3


def stored_texts(store: RefStore, gid: int) -> tuple:
    return store._conn.execute(
        "SELECT html, bibtex, bibtex_fetched FROM entries WHERE global_id = ?", (gid,)
    ).fetchone()


def journal_settings(store: RefStore) -> tuple:
    """The handle's journal mode, ``synchronous`` level and WAL checkpoint threshold."""
    return tuple(store._conn.execute(f"PRAGMA {name}").fetchone()[0]
                 for name in ("journal_mode", "synchronous", "wal_autocheckpoint"))


def fresh_html(entry: RefEntry) -> str | None:
    try:
        return render_html(entry).body
    except UnrenderableError:
        return None


class TestStoredTexts:
    def test_renderers_are_pinned_to_the_schema_version(self):
        # The store keeps what render_html and render_bibtex wrote at add
        # time. When these bytes change, raise SCHEMA_VERSION, so that
        # refs.migrations.migrate renders the texts of older files afresh,
        # and pin both here.
        digest = hashlib.sha256()
        for entry in build_corpus_entries():
            for body in (render_html(entry).body, render_bibtex(entry).body):
                digest.update(body.encode("utf-8") + b"\0")
        assert (SCHEMA_VERSION, digest.hexdigest()) == (
            7, "a85ae15d7c661886aac797a0c65816d55c04bef3f18b7c07858416985eb0b79a")

    def test_corpus_through_the_store_matches_the_golden(self, store):
        for entry in build_corpus_entries():
            assert store.add_entry(entry.records, note=entry.note) == entry.global_id
        bodies = "".join(store.get_rendered(e.global_id, RenderFormat.HTML).body + "\n"
                         for e in build_corpus_entries())
        assert bodies == (GOLDEN_DIR / "html_corpus.html").read_text(encoding="utf-8")

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(st.tuples(st.lists(storable_records, min_size=1, max_size=3),
                                      optional_text), min_size=1, max_size=3))
    def test_stored_texts_equal_a_fresh_render(self, entries):
        with RefStore(":memory:") as store:
            for recs, note in entries:
                try:
                    gid = store.add_entry(recs, note=note)
                except DuplicateEntryError:
                    continue
                entry = store.get_entry(gid)
                assert stored_texts(store, gid) == (fresh_html(entry), render_bibtex(entry).body, 0)

    def test_a_given_bibtex_is_stored_and_emitted(self, store, tmp_path):
        fetched = "@misc{Fetched_2022, title={T}, year={2022}}\n"
        gid = store.add_entry([record("10.1000/a")], bibtex=fetched)
        other = store.add_entry([record("10.1000/b")])
        assert stored_texts(store, gid)[1:] == (fetched, 1)
        assert store.get_rendered(gid, RenderFormat.BIBTEX).body == fetched
        _, bib_path = store.export_bundle([gid, other], tmp_path)
        local = render_bibtex(store.get_entry(other)).body
        assert bib_path.read_text(encoding="utf-8") == f"{fetched}\n\n{local}\n"

    def test_json_and_text_are_rendered_from_the_records(self, store):
        gid = store.add_entry([record("10.1000/a")], note="n", bibtex="@misc{k, title={T}}")
        entry = store.get_entry(gid)
        for fmt in (RenderFormat.JSON, RenderFormat.TEXT):
            assert store.get_rendered(gid, fmt) == render_format(entry, fmt)

    def test_render_of_an_unknown_or_deleted_entry(self, store):
        gid = store.add_entry([record("10.1000/a")])
        store.delete_entry(gid)
        for fmt in RenderFormat:
            for missing in (gid, 99):
                with pytest.raises(MissingEntryError):
                    store.get_rendered(missing, fmt)

    def test_an_unrenderable_record_is_stored_and_refused_on_export(self, store, tmp_path):
        blank = BibRecord(title="", doi=parse_doi("10.1000/blank"))
        gid = store.add_entry([blank])
        ok = store.add_entry([record("10.1000/a")])
        assert stored_texts(store, gid) == (None, render_bibtex(RefEntry([blank])).body, 0)
        with pytest.raises(UnrenderableError, match="record has no renderable fields"):
            store.export_bundle([gid, ok], tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []
        with pytest.raises(UnrenderableError, match="record has no renderable fields"):
            store.get_rendered(gid, RenderFormat.HTML)
        assert store.get_rendered(gid, RenderFormat.BIBTEX).body.startswith("@article{refnd,")

    def test_a_file_turns_wal_at_its_first_write(self, tmp_path, capsys):
        db = tmp_path / "refs.db"
        with RefStore(db) as store:
            assert journal_settings(store)[0] == "truncate"
            with unsynced(store):
                for i in range(3):
                    store.add_entry([record(f"10.1000/{i}")])
            assert journal_settings(store)[0] == "truncate"
        before = db.read_bytes()
        commands = [["render", "2", "--format", fmt.value] for fmt in RenderFormat]
        commands += [["list"], ["export", "--all", "-o", str(tmp_path / "out")]]
        for argv in commands:
            assert cli_main(argv + ["--db", str(db)]) == 0, argv
        capsys.readouterr()
        assert db.read_bytes() == before
        with RefStore(db) as store:
            assert journal_settings(store)[0] == "truncate"
            store.add_entry([record("10.1000/new")])
            assert journal_settings(store) == ("wal", 2, 1)
            assert {"refs.db-wal", "refs.db-shm"} <= {p.name for p in tmp_path.iterdir()}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "refs.db"]
        with RefStore(db) as store:  # a file in WAL mode is opened in it
            assert journal_settings(store) == ("wal", 2, 1)
            assert store.live_ids() == [1, 2, 3, 4]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "refs.db"]

    @pytest.mark.parametrize("first_write", [False, True], ids=["rollback", "wal"])
    def test_unsynced_fills_without_a_sync_and_leaves_the_mode_it_found(self, tmp_path,
                                                                         first_write):
        db = tmp_path / "refs.db"
        with RefStore(db) as store:
            if first_write:
                store.add_entry([record("10.1000/first")])
            found = journal_settings(store)
            with unsynced(store):
                for i in range(3):
                    store.add_entry([record(f"10.1000/{i}")])
                assert journal_settings(store)[:2] == ("memory", 0)
            assert journal_settings(store) == found
            assert store._wal == first_write
            assert db.read_bytes()[18:20] == (b"\2\2" if first_write else b"\1\1")
            store.add_entry([record("10.1000/last")])
            assert journal_settings(store) == ("wal", 2, 1)

    def test_the_database_file_alone_holds_every_commit(self, tmp_path):
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / "refs.db"
        with RefStore(tmp_path / "refs.db") as store:
            ids = [store.add_entry([record(f"10.1000/{i}", title=f"Title {i}")]) for i in range(7)]
            store.delete_entry(ids[3])
            store.attach_crossref("H2O", "nu", 1, ids[0])
            shutil.copy(tmp_path / "refs.db", copy)  # beside the open handle, without its WAL
        with RefStore(copy) as store:
            assert store.live_ids() == ids[:3] + ids[4:]
            assert [store.get_entry(i).records[0].title for i in ids[:3]] == [
                "Title 0", "Title 1", "Title 2"]
            assert store.lookup_crossref("H2O", "nu", 1) == ids[0]


class TestConcurrency:
    def test_shared_handle_serializes_writers(self, store):
        import threading

        errors = []

        def writer(k: int):
            try:
                for j in range(10):
                    store.add_entry([record(f"10.3000/{k}.{j}")])
            except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        ids = [e.global_id for e in store.list_entries()]
        assert ids == list(range(1, 41))

    def test_shared_handle_reads_and_exports_beside_writers(self, store, tmp_path):
        import threading

        errors = []
        store.add_entry([record("10.3000/seed")])

        def writer(k: int):
            for j in range(15):
                gid = store.add_entry([record(f"10.3000/{k}.{j}")])
                store.attach_crossref("H2O", f"w{k}", j, gid)

        def reader(k: int):
            for _ in range(15):
                assert all(e.records for e in store.list_entries(scope="H2O"))
                assert store.get_entry(1).records[0].doi == parse_doi("10.3000/seed")

        def exporter(k: int):
            for j in range(5):
                store.export_bundle(store.live_ids(), tmp_path / f"out{j}")

        def guarded(work, k):
            try:
                work(k)
            except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
                errors.append(exc)

        work = [writer, writer, writer, reader, reader, exporter]
        threads = [threading.Thread(target=guarded, args=(w, k)) for k, w in enumerate(work)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert store.live_ids() == list(range(1, 47))
        assert read_table(store.path, "SELECT COUNT(*) FROM crossrefs"
                                      " WHERE dataset_scope = 'H2O'") == [(45,)]

    def test_duplicate_read_waits_for_an_add_in_flight_on_the_handle(self, store, monkeypatch):
        import threading

        class FailingCommit:
            """The handle's connection, except that the first commit stalls, then fails."""

            def __init__(self, conn):
                self._conn = conn
                self.stalled = threading.Event()

            def __getattr__(self, name):
                return getattr(self._conn, name)

            def execute(self, sql, *params):
                if self.stalled.is_set() or sql != "COMMIT":
                    return self._conn.execute(sql, *params)
                self.stalled.set()
                time.sleep(0.3)  # the entries row is inserted but not committed
                raise sqlite3.OperationalError("disk I/O error")

        conn = FailingCommit(store._conn)
        monkeypatch.setattr(store, "_conn", conn)
        errors = []

        def first_add():
            try:
                store.add_entry([record("10.1000/a")])
            except sqlite3.OperationalError as exc:
                errors.append(exc)

        thread = threading.Thread(target=first_add)
        thread.start()
        try:
            assert conn.stalled.wait(timeout=10)
            # The rolled-back row must not be reported as a duplicate.
            gid = store.add_entry([record("10.1000/a")])
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert store.live_ids() == [gid]


    def test_a_first_write_beside_a_read_in_progress_on_the_handle_commits(self, store):
        with unsynced(store):
            for i in range(3):
                store.add_entry([record(f"10.3000/{i}")])
        loading = store._load([1, 2, 3])  # list_entries' reader, left between two rows
        assert next(loading).global_id == 1
        assert store.add_entry([record("10.3000/new")]) == 4
        assert journal_settings(store)[0] == "truncate"
        assert [e.global_id for e in loading] == [2, 3]
        store.delete_entry(4)
        assert journal_settings(store) == ("wal", 2, 1)
        assert store.live_ids() == [1, 2, 3]


class TestPersistence:
    def test_reopen_preserves_everything(self, tmp_path):
        path = tmp_path / "refs.db"
        rng = random.Random(20170603)
        expected = {}
        with RefStore(path) as store:
            for i in range(20):
                recs = [
                    record(f"10.2000/{i}.{j}", title=f"Title {i}.{j}", year=1900 + rng.randrange(100))
                    for j in range(rng.randrange(1, 4))
                ]
                note = f"note {i}" if rng.random() < 0.5 else None
                gid = store.add_entry(recs, note=note)
                expected[gid] = (recs, note)
            store.attach_crossref("H2O", "nu", 1, 1)

        with RefStore(path) as store:
            for gid, (recs, note) in expected.items():
                loaded = store.get_entry(gid)
                assert loaded.records == recs
                assert loaded.note == note
            assert store.lookup_crossref("H2O", "nu", 1) == 1

    def test_sequence_survives_reopen(self, tmp_path):
        path = tmp_path / "refs.db"
        with RefStore(path) as store:
            store.add_entry([record("10.1000/a")])
            store.delete_entry(1)
        with RefStore(path) as store:
            assert store.add_entry([record("10.1000/b")]) == 2

    def test_foreign_schema_rejected(self, tmp_path):
        import sqlite3

        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            RefStore(path)

    def test_a_version_0_file_holding_a_table_is_refused_and_left_as_it_was(self, tmp_path, capsys):
        path = tmp_path / "foreign.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        with pytest.raises(StoreError, match="carries schema version 0, expected"):
            RefStore(path)
        assert cli_main(["list", "--db", str(path)]) == EXIT_STORE
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["foreign.db"]


def filled_store(path: Path, size: int) -> RefStore:
    store = RefStore(path)
    with unsynced(store):
        for i in range(size):
            store.add_entry(
                [record(f"10.5000/{i}.a"), record(f"10.5000/{i}.b")] if i % 3 == 0
                else [record(f"10.5000/{i}")],
                note=f"note {i}" if i % 2 else None,
            )
            if i % 5 == 0:
                store.attach_crossref("H2O", "nu", i, i + 1)
    return store


@pytest.fixture(scope="module")
def filled_files(tmp_path_factory) -> dict[int, Path]:
    """``filled_store`` files of 10 and 500 entries, built once; a test opens its own copy."""
    built = {}
    for size in (10, 500):
        built[size] = tmp_path_factory.mktemp("filled") / f"{size}.db"
        filled_store(built[size], size).close()
    return built


class TestQueryCounts:
    def test_opening_a_new_store_is_one_commit_and_reopening_none(self, tmp_path, statements):
        RefStore(tmp_path / "refs.db").close()
        assert statements.count("COMMIT") == 1
        assert statements.count("BEGIN IMMEDIATE") == 1
        statements.clear()
        RefStore(tmp_path / "refs.db").close()
        assert not any(s.startswith(("BEGIN", "COMMIT")) for s in statements)

    def test_loads_run_a_fixed_number_of_statements(self, tmp_path, filled_files, statements):
        counts = []
        for size in (10, 500):
            store = RefStore(shutil.copy(filled_files[size], tmp_path))
            ids = store.live_ids()
            per_call = []
            for load in (
                lambda: store.get_entry(ids[-1]),
                lambda: store.list_entries(),
                lambda: store.list_entries(scope="H2O"),
                lambda: store.export_bundle(ids, tmp_path / f"out{size}"),
            ):
                statements.clear()
                load()
                per_call.append(len(statements))
            store.close()
            counts.append(per_call)
        assert counts[0] == counts[1]
        assert counts[0][0] == 1

    def test_an_export_is_one_select_whether_or_not_an_id_is_missing(self, tmp_path, filled_files,
                                                                      statements):
        def export(ids: list[int]) -> tuple[list[int], list[str]]:
            """The IDs the export reports missing, and the SELECTs it ran."""
            statements.clear()
            try:
                store.export_bundle(ids, tmp_path / "out")
                missing = []
            except MissingEntryError as exc:
                missing = exc.missing
            return missing, [s for s in statements if s.startswith("SELECT")]

        for size in (10, 500):
            with RefStore(shutil.copy(filled_files[size], tmp_path)) as store:
                ids = store.live_ids()
                answers = [export(ids), export(ids + [size + 7])]
                store.delete_entry(ids[size // 2])
                answers.append(export(ids))
            assert [missing for missing, _ in answers] == [[], [size + 7], [ids[size // 2]]]
            for _, selects in answers:
                assert len(selects) == 1 and " FROM entries " in selects[0]

    def test_get_entry_reads_one_row_by_primary_key(self, tmp_path, statements):
        with filled_store(tmp_path / "refs.db", 10) as store:
            statements.clear()
            entry = store.get_entry(4)
            (read,) = statements
            plan = [row[-1] for row in store._conn.execute("EXPLAIN QUERY PLAN " + read)]
        assert len(entry.records) == 2 and entry.note == "note 3"
        assert plan == ["SEARCH entries USING INTEGER PRIMARY KEY (rowid=?)"]

    def test_a_fresh_add_is_one_id_read_and_one_insert(self, tmp_path, statements):
        with filled_store(tmp_path / "refs.db", 10) as store:
            statements.clear()
            gid = store.add_entry([record("10.5000/new.a"), record("10.5000/new.b")], note="n")
        begin = statements.index("BEGIN IMMEDIATE")
        id_read, insert, commit = statements[begin + 1:]
        assert "sqlite_sequence" in id_read and id_read.startswith("SELECT")
        assert insert.startswith("INSERT INTO entries VALUES")
        assert commit == "COMMIT"
        assert gid == 11

    def test_a_duplicate_add_is_one_read_without_the_write_lock(self, tmp_path, statements):
        with filled_store(tmp_path / "refs.db", 10) as store:
            statements.clear()
            with pytest.raises(DuplicateEntryError) as exc_info:
                store.add_entry([record("10.5000/1")])
            (lookup,) = statements
            store.find_entry_by_dois([parse_doi("10.5000/1")])
        assert statements == [lookup, lookup]
        assert exc_info.value.existing_id == 2
        assert str(exc_info.value) == "an entry with the same DOI set already exists: 2"

    def test_a_repeat_add_is_one_select_through_the_live_doi_set_index(self, tmp_path,
                                                                       statements):
        with filled_store(tmp_path / "refs.db", 10) as store:
            statements.clear()
            # No transport: a DOI the store holds is answered before any request.
            gid, report = resolve_and_store_report(parse_doi("10.5000/1"), None, store)
            (read,) = statements
            plan = [row[-1] for row in store._conn.execute("EXPLAIN QUERY PLAN " + read)]
            assert report.entry == store.get_entry(gid)
            assert report.bibtex == store.get_rendered(gid, RenderFormat.BIBTEX).body
        assert gid == 2 and report.entry.note == "note 1"
        assert plan == ["SEARCH entries USING INDEX live_doi_set (doi_set=?)"]

    def test_duplicate_lookup_uses_the_live_doi_set_index(self, tmp_path, statements):
        with filled_store(tmp_path / "refs.db", 10) as store:
            statements.clear()
            assert store.find_entry_by_dois([parse_doi("10.5000/1")]) == 2
        (lookup,) = statements
        conn = sqlite3.connect(tmp_path / "refs.db")
        plan = " ".join(row[-1] for row in conn.execute("EXPLAIN QUERY PLAN " + lookup))
        conn.close()
        assert "USING INDEX live_doi_set" in plan or "USING COVERING INDEX live_doi_set" in plan


# Worker for the multiprocess tests: prints "ready", and once a line arrives
# on stdin opens the store (creating it if need be) and adds COUNT entries
# with DOIs 10.4000/PREFIX.j, printing each ID it was given or told of.
ADD_WORKER = """
import sys
from refs import BibRecord, DuplicateEntryError, RefStore, parse_doi
db, prefix, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
print("ready", flush=True)
sys.stdin.readline()
with RefStore(db) as store:
    for j in range(count):
        record = BibRecord(title=f"{prefix} {j}", doi=parse_doi(f"10.4000/{prefix}.{j}"))
        try:
            print(store.add_entry([record]), flush=True)
        except DuplicateEntryError as exc:
            print(exc.existing_id, flush=True)
"""


# Workers for the export-beside-delete test. The exporter exports the IDs
# in a loop, at most 150 times, printing ["whole", sha256 of the HTML, NUL
# and the .bib] or ["missing", IDs], and stops once every one of the 8
# deleted IDs is missing. The deleter waits for the first bundle, then
# tombstones its IDs in turn, printing each.
EXPORT_WORKER = """
import hashlib, json, sys, time
from refs import MissingEntryError, RefStore
db, out, ids = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
with RefStore(db) as store:
    for _ in range(150):
        try:
            html, bib = store.export_bundle(ids, out)
        except MissingEntryError as exc:
            print(json.dumps(["missing", exc.missing]), flush=True)
            if len(exc.missing) == 8:
                break
        else:
            whole = html.read_text(encoding="utf-8") + "\\0" + bib.read_text(encoding="utf-8")
            print(json.dumps(["whole", hashlib.sha256(whole.encode()).hexdigest()]), flush=True)
        time.sleep(0.002)
"""

DELETE_WORKER = """
import json, sys, time
from pathlib import Path
from refs import RefStore
db, first_bundle, ids = sys.argv[1], Path(sys.argv[2], "refs.html"), json.loads(sys.argv[3])
deadline = time.time() + 60
while not first_bundle.exists() and time.time() < deadline:
    time.sleep(0.001)
with RefStore(db) as store:
    for gid in ids:
        time.sleep(0.002)
        store.delete_entry(gid)
        print(gid, flush=True)
"""


# Worker for the test of an add beside an open export: exports every live
# entry to OUT, but once the export has read its IDs, prints "ready" and
# holds its read transaction open until a line arrives on stdin.
HELD_EXPORT_WORKER = """
import sys
import refs.store
from refs import RefStore
db, out = sys.argv[1], sys.argv[2]
write_files = refs.store.replace_files

def held(paths, chunks):
    print("ready", flush=True)
    sys.stdin.readline()
    return write_files(paths, chunks)

refs.store.replace_files = held
with RefStore(db) as store:
    store.export_bundle(None, out)
"""


def worker_env() -> dict:
    return {
        "PYTHONPATH": str(Path(refs.__file__).parents[1]),
        "PATH": "",
        # Leave no bytecode cache in the source tree.
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def start_worker(script: str, *args) -> subprocess.Popen:
    """Start a worker process that prints "ready" and then waits for a line on stdin."""
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=worker_env(),
    )


def await_ready(proc: subprocess.Popen) -> None:
    assert proc.stdout.readline() == "ready\n", proc.communicate(timeout=120)[1][-2000:]


def go(proc: subprocess.Popen) -> None:
    proc.stdin.write("go\n")
    proc.stdin.flush()


def finish(proc: subprocess.Popen) -> str:
    """The worker's remaining stdout, once it has exited cleanly."""
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err[-2000:]
    return out


def run_adders(db: Path, prefixes: list[str], count: int) -> list[list[int]]:
    """Start one ADD_WORKER per prefix, let all of them add at once, and return each one's IDs."""
    procs = [start_worker(ADD_WORKER, db, prefix, count) for prefix in prefixes]
    for proc in procs:
        await_ready(proc)
    for proc in procs:
        go(proc)
    return [[int(line) for line in finish(proc).split()] for proc in procs]


class TestProcesses:
    def test_concurrent_writers_lose_no_adds_and_share_no_ids(self, tmp_path):
        results = run_adders(tmp_path / "refs.db", ["p0", "p1", "p2", "p3"], 100)
        assert sorted(gid for ids in results for gid in ids) == list(range(1, 401))
        with RefStore(tmp_path / "refs.db") as store:
            assert store.live_ids() == list(range(1, 401))
            assert store.get_entry(results[2][7]).records[0].title == "p2 7"

    def test_two_processes_adding_the_same_dois_get_one_id_each(self, tmp_path):
        first, second = run_adders(tmp_path / "refs.db", ["same", "same"], 50)
        assert first == second
        assert sorted(first) == list(range(1, 51))
        with RefStore(tmp_path / "refs.db") as store:
            assert store.live_ids() == list(range(1, 51))

    def test_an_export_beside_a_deleting_process_sees_one_state(self, tmp_path):
        db, out = tmp_path / "refs.db", tmp_path / "out"
        with RefStore(db) as store:
            ids = [store.add_entry([record(f"10.4000/e.{i}", title=f"Title {i}")])
                   for i in range(16)]
            html = "".join(f"<p>{store.get_rendered(i, RenderFormat.HTML).body}</p>\n" for i in ids)
            bib = "\n\n".join(store.get_rendered(i, RenderFormat.BIBTEX).body for i in ids)
        whole = hashlib.sha256(
            f"{refs.store._HTML_HEAD}{html}{refs.store._HTML_TAIL}\0{bib}\n".encode()).hexdigest()
        deleted = random.Random(25).sample(ids, 8)
        exporter, deleter = (
            subprocess.Popen([sys.executable, "-c", worker, str(db), str(out), json.dumps(argument)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=worker_env())
            for worker, argument in ((EXPORT_WORKER, ids), (DELETE_WORKER, deleted)))
        outcomes = []
        for proc in (exporter, deleter):
            stdout, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err[-2000:]
            outcomes.append([json.loads(line) for line in stdout.splitlines()])
        exports, deletes = outcomes
        assert deletes == deleted
        # Each export holds every ID as stored, or misses exactly the first k deletes.
        seen = []
        for kind, value in exports:
            if kind == "whole":
                assert value == whole
                seen.append(0)
            else:
                k = len(value)
                assert value == sorted(deleted[:k]), value
                seen.append(k)
        assert seen == sorted(seen) and seen[0] == 0 and seen[-1] == len(deleted)
        assert len(exports) + len(deletes) + len(ids) <= 200


    def test_an_export_holding_its_read_open_does_not_make_an_add_wait(self, tmp_path):
        db, before, out = tmp_path / "refs.db", tmp_path / "before", tmp_path / "out"
        with RefStore(db) as store:
            for i in range(5):
                store.add_entry([record(f"10.4000/e.{i}", title=f"Title {i}")])
            store.export_bundle(None, before)
        exporter = start_worker(HELD_EXPORT_WORKER, db, out)
        try:
            await_ready(exporter)  # inside the export's read transaction
            adder = start_worker(ADD_WORKER, db, "new", 1)
            await_ready(adder)
            go(adder)
            t0 = time.perf_counter()
            first = adder.stdout.readline()
            waited = time.perf_counter() - t0
            assert (first + finish(adder)).split() == ["6"]
            assert waited < 1.0
        finally:
            go(exporter)
            _, err = exporter.communicate(timeout=120)
        assert exporter.returncode == 0, err[-2000:]
        for name in (HTML_BUNDLE_NAME, BIB_BUNDLE_NAME):
            assert (out / name).read_bytes() == (before / name).read_bytes()
        with RefStore(db) as store:
            assert store.live_ids() == [1, 2, 3, 4, 5, 6]
            assert store.get_entry(6).records[0].title == "new 0"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["before", "out", "refs.db"]

    def test_a_handle_opened_in_rollback_mode_works_on_after_another_process_switched_the_file(
            self, tmp_path):
        db, copy = tmp_path / "refs.db", tmp_path / "copy" / "refs.db"
        copy.parent.mkdir()
        with RefStore(db) as store:
            with unsynced(store):
                for i in range(3):
                    store.add_entry([record(f"10.4000/e.{i}", title=f"Title {i}")])
            assert journal_settings(store)[0] == "truncate"
            (added,) = run_adders(db, ["other"], 4)
            assert db.read_bytes()[18:20] == b"\2\2"  # the file header's WAL mark
            assert added == [4, 5, 6, 7]
            assert [store.get_entry(i).records[0].title for i in added] == [
                f"other {j}" for j in range(4)]
            assert store.add_entry([record("10.4000/mine", title="Mine")]) == 8
            assert journal_settings(store) == ("wal", 2, 1)
            shutil.copy(db, copy)  # its own commit was checkpointed into the file
            store.delete_entry(2)
            ids = [1, 3, 4, 5, 6, 7, 8]
            html, bib = store.export_bundle(None, tmp_path / "out")
            assert html.read_text(encoding="utf-8") == refs.store._HTML_HEAD + "".join(
                f"<p>{store.get_rendered(i, RenderFormat.HTML).body}</p>\n" for i in ids
            ) + refs.store._HTML_TAIL
            assert bib.read_text(encoding="utf-8") == "\n\n".join(
                store.get_rendered(i, RenderFormat.BIBTEX).body for i in ids) + "\n"
        with RefStore(copy) as store:
            assert store.live_ids() == list(range(1, 9))
            assert store.get_entry(8).records[0].title == "Mine"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["copy", "out", "refs.db"]


# The version-1 schema exactly as the store created it, frozen here because
# the store no longer can.
V1_SCHEMA = """
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
PRAGMA user_version = 1;
"""


# The version-2 schema exactly as the store created it.
V2_SCHEMA = """
CREATE TABLE entries (
    global_id INTEGER PRIMARY KEY AUTOINCREMENT,
    doi_set   TEXT,
    deleted   INTEGER NOT NULL DEFAULT 0
);
CREATE UNIQUE INDEX live_doi_set ON entries (doi_set) WHERE deleted = 0;

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
PRAGMA user_version = 2;
"""


# The version-3 schema exactly as the store created it, whitespace included.
V3_SCHEMA = """
CREATE TABLE entries (
    global_id INTEGER PRIMARY KEY AUTOINCREMENT,
    doi_set   TEXT,
    deleted   INTEGER NOT NULL DEFAULT 0
);
CREATE UNIQUE INDEX live_doi_set ON entries (doi_set) WHERE deleted = 0;
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
CREATE TABLE texts (
    entry_id       INTEGER PRIMARY KEY REFERENCES entries(global_id),
    html           TEXT,
    bibtex         TEXT NOT NULL,
    bibtex_fetched INTEGER NOT NULL
);
PRAGMA user_version = 3;
"""


# The version-4 schema exactly as the store created it, whitespace included.
V4_SCHEMA = """
CREATE TABLE entries (
    global_id INTEGER PRIMARY KEY AUTOINCREMENT,
    doi_set   TEXT,
    deleted   INTEGER NOT NULL DEFAULT 0,
    note      TEXT,
    records   TEXT NOT NULL
);
CREATE UNIQUE INDEX live_doi_set ON entries (doi_set) WHERE deleted = 0;
CREATE TABLE crossrefs (
        dataset_scope TEXT NOT NULL,
        parameter     TEXT NOT NULL,
        local_id      INTEGER NOT NULL,
        global_id     INTEGER NOT NULL REFERENCES entries(global_id),
        PRIMARY KEY (dataset_scope, parameter, local_id)
    );
CREATE TABLE texts (
    entry_id       INTEGER PRIMARY KEY REFERENCES entries(global_id),
    html           TEXT,
    bibtex         TEXT NOT NULL,
    bibtex_fetched INTEGER NOT NULL
);
PRAGMA user_version = 4;
"""

# Version 5 kept version 4's tables; only its records column changed.
V5_SCHEMA = V4_SCHEMA.replace("PRAGMA user_version = 4;", "PRAGMA user_version = 5;")

# The version-6 schema exactly as the store created it, whitespace included.
V6_SCHEMA = """
CREATE TABLE entries (
    global_id INTEGER PRIMARY KEY AUTOINCREMENT,
    doi_set   TEXT,
    deleted   INTEGER NOT NULL DEFAULT 0,
    note      TEXT,
    label     TEXT NOT NULL,
    records   TEXT NOT NULL
);
CREATE UNIQUE INDEX live_doi_set ON entries (doi_set) WHERE deleted = 0;
CREATE TABLE crossrefs (
        dataset_scope TEXT NOT NULL,
        parameter     TEXT NOT NULL,
        local_id      INTEGER NOT NULL,
        global_id     INTEGER NOT NULL REFERENCES entries(global_id),
        PRIMARY KEY (dataset_scope, parameter, local_id)
    );
CREATE TABLE texts (
    entry_id       INTEGER PRIMARY KEY REFERENCES entries(global_id),
    html           TEXT,
    bibtex         TEXT NOT NULL,
    bibtex_fetched INTEGER NOT NULL
);
PRAGMA user_version = 6;
"""


def write_old_store(version: int, path: Path, entries: dict, deleted=(), crossrefs=(),
                    next_id=None, fetched=None) -> None:
    """A version-1 to -6 file holding ``{gid: (records, note)}``, as that version wrote it.

    Each DOI-set key joins the entry's DOIs with ``|``, or from version 6
    on with a space. A version-3 to -6 file also holds each entry's
    rendered HTML and BibTeX, or, for an ID in ``fetched``, that BibTeX
    text as fetched from upstream.
    """
    conn = sqlite3.connect(path)
    # Neither setting is kept in the file, which only this connection writes.
    conn.execute("PRAGMA journal_mode = MEMORY")
    conn.execute("PRAGMA synchronous = OFF")
    conn.executescript({1: V1_SCHEMA, 2: V2_SCHEMA, 3: V3_SCHEMA, 4: V4_SCHEMA, 5: V5_SCHEMA,
                        6: V6_SCHEMA}[version])
    for gid, (recs, note) in entries.items():
        dois = sorted({r.doi.canonical for r in recs if r.doi})
        key = (gid, (" " if version >= 6 else "|").join(dois) or None, int(gid in deleted))
        if version >= 4:
            records_json = (
                json.dumps([v4_record(r) for r in recs], ensure_ascii=False) if version == 4
                else json.dumps([record_to_row(r) for r in recs], ensure_ascii=False,
                                separators=(",", ":")))
            label = (entry_label(recs),) if version >= 6 else ()
            conn.execute(f"INSERT INTO entries VALUES (?, ?, ?, ?{', ?' * len(label)}, ?)",
                         key + (note, *label, records_json))
        else:
            conn.execute("INSERT INTO entries VALUES (?, ?, ?)", key)
        for position, r in enumerate(recs if version < 4 else ()):
            row = (gid, position, r.source_type.value, r.title,
                   json.dumps([{"given_names": list(a.given_names), "surname": a.surname}
                               for a in r.authors], ensure_ascii=False),
                   r.journal, r.volume, r.number,
                   r.pages.first if r.pages else None, r.pages.last if r.pages else None,
                   r.year, r.publisher, r.doi.canonical if r.doi else None,
                   r.bibcode.text if r.bibcode else None)
            if version == 1:
                row += (r.doi_url, r.ads_url)
            conn.execute(f"INSERT INTO records VALUES ({', '.join('?' * len(row))})", row)
        if note is not None and version < 4:
            conn.execute("INSERT INTO notes VALUES (?, ?)", (gid, note))
        if version >= 3:
            entry = RefEntry(recs, note, gid)
            bibtex = (fetched or {}).get(gid)
            conn.execute("INSERT INTO texts VALUES (?, ?, ?, ?)",
                         (gid, fresh_html(entry), bibtex or render_bibtex(entry).body,
                          int(bibtex is not None)))
    conn.executemany("INSERT INTO crossrefs VALUES (?, ?, ?, ?)", crossrefs)
    next_id = next_id or max(entries) + 1
    if version == 1:
        conn.execute("UPDATE id_sequence SET next_id = ?", (next_id,))
    else:
        conn.execute("UPDATE sqlite_sequence SET seq = ? WHERE name = 'entries'", (next_id - 1,))
    conn.commit()
    conn.close()


# What schema_of reads from a file in the current layout.
CURRENT_SCHEMA = (SCHEMA_VERSION, {"entries", "crossrefs", "sqlite_sequence"})


def schema_of(path: Path) -> tuple[int, set[str]]:
    conn = sqlite3.connect(path)
    version = conn.execute("PRAGMA user_version").fetchone()[0]
    tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")}
    conn.close()
    return version, tables


def read_table(path: Path, query: str) -> list[tuple]:
    conn = sqlite3.connect(path)
    rows = conn.execute(query).fetchall()
    conn.close()
    return rows


CROSSREFS = "SELECT * FROM crossrefs ORDER BY dataset_scope, parameter, local_id"
# The stored texts of a current file, in the column order of an old ``texts`` table.
TEXTS = "SELECT global_id, html, bibtex, bibtex_fetched FROM entries"


class TestMigration:
    def v1_entries(self) -> dict:
        hitran = BibRecord(
            title="The HITRAN2016 molecular spectroscopic database",
            authors=[make_author("I. E.", "Gordon"), make_author("", "HITRAN Collaboration")],
            journal="JQSRT", volume="203", pages=Pages("3", "69"), year=2017,
            doi=parse_doi("10.1016/j.jqsrt.2017.06.038"),
            bibcode=parse_bibcode("2017JQSRT.203....3G"),
        )
        return {
            1: ([hitran], "Line list.  Weights from Ångström et al."),
            2: ([record("10.1000/a"), record("10.1000/b", title="Part two")], None),
            3: ([record("10.1000/c")], "tombstoned"),
            4: ([BibRecord(title="Private communication", year=2001)], None),
        }

    @pytest.mark.parametrize("next_id", [5, 9])
    def test_v1_file_migrates_in_place(self, tmp_path, next_id):
        path = tmp_path / "v1.db"
        entries = self.v1_entries()
        write_old_store(1, path, entries, deleted={3},
                        crossrefs=[("H2O", "nu", 1, 1), ("CO2", "nu", 7, 3)], next_id=next_id)
        with RefStore(path) as store:
            for gid in (1, 2, 4):
                loaded = store.get_entry(gid)
                assert (loaded.records, loaded.note) == entries[gid]
            with pytest.raises(MissingEntryError):
                store.get_entry(3)
            assert store.live_ids() == [1, 2, 4]
            assert read_table(path, CROSSREFS) == [("CO2", "nu", 7, 3), ("H2O", "nu", 1, 1)]
            with pytest.raises(DuplicateEntryError) as exc_info:
                store.add_entry([record("10.1000/b"), record("10.1000/a")])
            assert exc_info.value.existing_id == 2
            assert store.add_entry([record("10.1000/c")]) == next_id
            assert store.add_entry([record("10.1000/d")]) == next_id + 1
        assert schema_of(path) == CURRENT_SCHEMA
        with RefStore(path) as store:
            assert store.add_entry([record("10.1000/e")]) == next_id + 2

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_file_gets_its_texts_in_the_opening_transaction(self, tmp_path, statements,
                                                                version):
        path = tmp_path / f"v{version}.db"
        entries = self.v1_entries()
        write_old_store(version, path, entries, deleted={3},
                        crossrefs=[("H2O", "nu", 1, 1), ("CO2", "nu", 7, 3)], next_id=9)
        statements.clear()
        with RefStore(path) as store:
            assert statements.count("BEGIN IMMEDIATE") == statements.count("COMMIT") == 1
            for gid, (recs, note) in entries.items():
                entry = RefEntry(recs, note, gid)
                assert stored_texts(store, gid) == (render_html(entry).body,
                                                    render_bibtex(entry).body, 0)
            for gid in (1, 2, 4):
                loaded = store.get_entry(gid)
                assert (loaded.records, loaded.note) == entries[gid]
                for fmt in RenderFormat:
                    assert store.get_rendered(gid, fmt) == render_format(loaded, fmt)
            with pytest.raises(MissingEntryError):
                store.get_rendered(3, RenderFormat.HTML)
            assert store.live_ids() == [1, 2, 4]
            assert read_table(path, CROSSREFS) == [("CO2", "nu", 7, 3), ("H2O", "nu", 1, 1)]
            assert store.add_entry([record("10.1000/c")]) == 9
        assert schema_of(path) == CURRENT_SCHEMA

    def test_v3_file_becomes_one_row_per_entry_in_the_opening_transaction(self, tmp_path,
                                                                         statements):
        path = tmp_path / "v3.db"
        entries = self.v1_entries()
        fetched = {2: "@misc{Author_2000, title={A title}, year={2000}}"}
        write_old_store(3, path, entries, deleted={3},
                        crossrefs=[("H2O", "nu", 1, 1), ("CO2", "nu", 7, 3)], next_id=9,
                        fetched=fetched)
        texts = read_table(path, "SELECT * FROM texts ORDER BY entry_id")
        assert texts[1][2:] == (fetched[2], 1)
        statements.clear()
        with RefStore(path) as store:
            assert statements.count("BEGIN IMMEDIATE") == statements.count("COMMIT") == 1
            for gid in (1, 2, 4):
                loaded = store.get_entry(gid)
                assert (loaded.records, loaded.note) == entries[gid]
            assert store.get_rendered(2, RenderFormat.BIBTEX).body == fetched[2]
            with pytest.raises(MissingEntryError):
                store.get_entry(3)
            assert store.list_labels() == [(1, "The HITRAN2016 molecular spectroscopic database"),
                                           (2, "A title"), (4, "Private communication")]
            assert read_table(path, CROSSREFS) == [("CO2", "nu", 7, 3), ("H2O", "nu", 1, 1)]
            with pytest.raises(DuplicateEntryError) as exc_info:
                store.add_entry([record("10.1000/b"), record("10.1000/a")])
            assert exc_info.value.existing_id == 2
            assert store.add_entry([record("10.1000/c")]) == 9
        assert read_table(path, TEXTS + " WHERE global_id < 9 ORDER BY global_id") == texts
        assert read_table(path, "SELECT deleted, note FROM entries WHERE global_id = 3") == [
            (1, "tombstoned")]
        assert schema_of(path) == CURRENT_SCHEMA

    def test_v4_file_gets_positional_rows_in_the_opening_transaction(self, tmp_path,
                                                                      statements):
        path = tmp_path / "v4.db"
        entries = self.v1_entries()
        entries[5] = ([BibRecord(authors=[make_author("Jean-Luc", "Ångström")], year=1990)], None)
        entries[6] = ([BibRecord(year=1999)], "untitled")
        entries[7] = ([BibRecord(title="Nul\x00title", doi=parse_doi("10.1000/nul"))], None)
        fetched = {2: "@misc{Author_2000, title={A title}, year={2000}}"}
        write_old_store(4, path, entries, deleted={3},
                        crossrefs=[("H2O", "nu", 1, 1), ("CO2", "nu", 7, 3), ("H2O", "nu", 2, 7)],
                        next_id=12, fetched=fetched)
        texts = read_table(path, "SELECT * FROM texts ORDER BY entry_id")
        assert texts[1][2:] == (fetched[2], 1)
        statements.clear()
        with RefStore(path) as store:
            assert statements.count("BEGIN IMMEDIATE") == statements.count("COMMIT") == 1
            for gid in (1, 2, 4, 5, 6, 7):
                loaded = store.get_entry(gid)
                assert (loaded.records, loaded.note) == entries[gid]
            assert store.get_rendered(2, RenderFormat.BIBTEX).body == fetched[2]
            with pytest.raises(MissingEntryError):
                store.get_entry(3)
            assert store.list_labels() == [
                (1, "The HITRAN2016 molecular spectroscopic database"), (2, "A title"),
                (4, "Private communication"), (5, "J. L. Ångström"), (6, "(untitled)"),
                (7, "Nul\x00title")]
            assert read_table(path, CROSSREFS) == [("CO2", "nu", 7, 3), ("H2O", "nu", 1, 1),
                                                   ("H2O", "nu", 2, 7)]
            with pytest.raises(DuplicateEntryError) as exc_info:
                store.add_entry([record("10.1000/b"), record("10.1000/a")])
            assert exc_info.value.existing_id == 2
            assert store.add_entry([record("10.1000/c")]) == 12
        # Every row, the tombstone's too, holds what an add writes today.
        rows = read_table(path, "SELECT * FROM entries WHERE global_id < 12 ORDER BY global_id")
        assert rows == [refs.store._row(RefEntry(recs, note, gid), int(gid == 3), fetched.get(gid))
                        for gid, (recs, note) in entries.items()]
        assert read_table(path, TEXTS + " WHERE global_id < 12 ORDER BY global_id") == texts
        assert schema_of(path) == CURRENT_SCHEMA

    def test_v5_file_gets_labels_and_space_joined_keys_in_the_opening_transaction(
            self, tmp_path, statements):
        # Version 5 joined DOIs with "|", so entry 6's one DOI had the key of entry 7's two.
        path = tmp_path / "v5.db"
        entries = self.v1_entries()
        entries[5] = ([BibRecord(authors=[make_author("Jean-Luc", "Ångström")], year=1990)], None)
        entries[6] = ([BibRecord(title="Joined", doi=parse_doi("10.1234/a|10.1234/b"))], None)
        entries[7] = ([record("10.1234/a", title=""), record("10.1234/b")], "parts")
        fetched = {2: "@misc{Author_2000, title={A title}, year={2000}}"}
        write_old_store(5, path, entries, deleted={3, 7},
                        crossrefs=[("H2O", "nu", 1, 1), ("CO2", "nu", 7, 3), ("H2O", "nu", 2, 7)],
                        next_id=12, fetched=fetched)
        texts = read_table(path, "SELECT * FROM texts ORDER BY entry_id")
        statements.clear()
        with RefStore(path) as store:
            assert statements.count("BEGIN IMMEDIATE") == statements.count("COMMIT") == 1
            for gid in (1, 2, 4, 5, 6):
                loaded = store.get_entry(gid)
                assert (loaded.records, loaded.note) == entries[gid]
            assert store.list_labels() == [
                (1, "The HITRAN2016 molecular spectroscopic database"), (2, "A title"),
                (4, "Private communication"), (5, "J. L. Ångström"), (6, "Joined")]
            assert store.get_rendered(2, RenderFormat.BIBTEX).body == fetched[2]
            assert read_table(path, CROSSREFS) == [("CO2", "nu", 7, 3), ("H2O", "nu", 1, 1),
                                                   ("H2O", "nu", 2, 7)]
            assert store.add_entry(entries[7][0]) == 12
            assert store.find_entry_by_dois([parse_doi("10.1234/a|10.1234/b")]) == 6
            assert store.find_entry_by_dois([parse_doi("10.1234/b"), parse_doi("10.1234/a")]) == 12
        rows = read_table(path, "SELECT * FROM entries WHERE global_id < 12 ORDER BY global_id")
        assert [row[:2] for row in rows[5:]] == [(6, "10.1234/a|10.1234/b"),
                                                 (7, "10.1234/a 10.1234/b")]
        assert rows == [refs.store._row(RefEntry(recs, note, gid), int(gid in (3, 7)),
                                        fetched.get(gid))
                        for gid, (recs, note) in entries.items()]
        assert rows[6][4] == "A. Author"
        assert read_table(path, TEXTS + " WHERE global_id < 12 ORDER BY global_id") == texts
        assert schema_of(path) == CURRENT_SCHEMA

    @pytest.mark.parametrize("version", [3, 4, 5, 6])
    def test_stored_texts_are_rendered_afresh_and_fetched_bibtex_kept(self, tmp_path, version):
        """No stored text is copied, so a renderer change reaches every older file; only
        fetched BibTeX, which no rule derives, is read, byte for byte."""
        path = tmp_path / f"v{version}.db"
        entries = self.v1_entries()
        fetched = {2: "@misc{Author_2000, title={A title}, year={2000}}", 3: "@misc{gone}\n"}
        write_old_store(version, path, entries, deleted={3}, fetched=fetched)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE texts SET html = '<i>stale</i>'")
        conn.execute("UPDATE texts SET bibtex = '@misc{stale}' WHERE bibtex_fetched = 0")
        conn.commit()
        conn.close()
        with RefStore(path) as store:
            for gid in (1, 2, 4):
                html = store.get_rendered(gid, RenderFormat.HTML)
                assert html == render_format(store.get_entry(gid), RenderFormat.HTML)
            assert store.get_rendered(2, RenderFormat.BIBTEX).body == fetched[2]
        expected = []
        for gid, (recs, note) in entries.items():
            entry = RefEntry(recs, note, gid)
            expected.append((gid, fresh_html(entry), fetched.get(gid, render_bibtex(entry).body),
                             int(gid in fetched)))
        assert read_table(path, TEXTS + " ORDER BY global_id") == expected

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_a_migrated_file_has_the_schema_of_a_new_one(self, tmp_path, version):
        path = tmp_path / f"v{version}.db"
        write_old_store(version, path, self.v1_entries(), deleted={3},
                        crossrefs=[("H2O", "nu", 1, 1), ("CO2", "nu", 7, 3)])
        RefStore(path).close()
        RefStore(tmp_path / "new.db").close()
        master = "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY name"
        assert read_table(path, master) == read_table(tmp_path / "new.db", master)

    # A stored record that no constructor accepts, in a version-4 or -5 row or
    # in a version-2 records column; entry 3 is a tombstone, which is kept too.
    @pytest.mark.parametrize("version, update, value", [
        (4, "UPDATE entries SET records = ? WHERE global_id = 3",
         '[{"title":"T","authors":[{"given_names":["A."]}]}]'),
        (4, "UPDATE entries SET records = ? WHERE global_id = 3", '["T"]'),
        (4, "UPDATE entries SET records = ? WHERE global_id = 3",
         '[{"title":"T","doi":"11.1000/x"}]'),
        (5, "UPDATE entries SET records = ? WHERE global_id = 3",
         '[["T",[[["A."]]],"article",null,null,null,null,null,null,null,null]]'),
        (5, "UPDATE entries SET records = ? WHERE global_id = 3", '[["T"]]'),
        (5, "UPDATE entries SET records = ? WHERE global_id = 3",
         '[["T",[],"article",null,null,null,null,null,null,"10.1000/x\\n",null]]'),
        (2, "UPDATE records SET authors = ? WHERE entry_id = 3", "not json"),
        (2, "UPDATE records SET doi = ? WHERE entry_id = 3", "11.1000/x"),
        (2, "UPDATE records SET authors = ? WHERE entry_id = 3", "[" * 100_000),
    ], ids=["v4-no-surname", "v4-not-an-object", "v4-doi", "v5-no-surname", "v5-short-row",
            "v5-doi", "v2-authors", "v2-doi", "v2-authors-nested"])
    def test_an_unreadable_record_stops_the_migration(self, tmp_path, capsys, statements,
                                                      version, update, value):
        path = tmp_path / f"v{version}.db"
        write_old_store(version, path, self.v1_entries(), deleted={3})
        conn = sqlite3.connect(path)
        conn.execute(update, (value,))
        conn.commit()
        conn.close()
        before = path.read_bytes()
        statements.clear()
        refusal = (f"cannot migrate to schema version {SCHEMA_VERSION}: the records of entry 3"
                   " cannot be read")
        with pytest.raises(StoreError, match=refusal) as exc_info:
            RefStore(path)
        assert exc_info.value.__cause__ is not None
        assert "COMMIT" not in statements
        assert cli_main(["list", "--db", str(path)]) == EXIT_STORE
        assert refusal in capsys.readouterr().err
        assert path.read_bytes() == before

    @pytest.mark.parametrize("records_json", ['{"title": "T"}', '"T"', "[{", "",
                                              pytest.param("[" * 100_000, id="nested")])
    def test_a_v4_row_that_is_not_a_json_array_stops_the_migration(self, tmp_path, statements,
                                                                   records_json):
        path = tmp_path / "v4.db"
        write_old_store(4, path, self.v1_entries(), deleted={3})
        conn = sqlite3.connect(path)
        conn.execute("UPDATE entries SET records = ? WHERE global_id = 3", (records_json,))
        conn.commit()
        conn.close()
        before = path.read_bytes()
        statements.clear()
        with pytest.raises(StoreError, match=f"cannot migrate to schema version {SCHEMA_VERSION}:"
                                             " the records of entry 3 cannot be read: "):
            RefStore(path)
        assert "COMMIT" not in statements
        assert path.read_bytes() == before

    # A current row's records column is refused unless it is exactly the text _row writes;
    # an old one is scanned as strictly.
    @pytest.mark.parametrize("version", [4, 5, 6])
    @pytest.mark.parametrize("damage", ["' ' || records || char(10)", "CAST(records AS BLOB)"],
                             ids=["padded", "blob"])
    def test_a_records_column_a_current_row_could_not_hold_exits_3_and_leaves_the_file(
            self, tmp_path, capsys, version, damage):
        path = tmp_path / f"v{version}.db"
        write_old_store(version, path, self.v1_entries())
        conn = sqlite3.connect(path)
        conn.execute(f"UPDATE entries SET records = {damage} WHERE global_id = 2")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert cli_main(["list", "--db", str(path)]) == EXIT_STORE
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"refs: cannot migrate to schema version {SCHEMA_VERSION}:"
                               " the records of entry 2 cannot be read: ")
        assert path.read_bytes() == before

    def test_a_v3_entry_without_records_stops_the_migration(self, tmp_path, statements):
        path = tmp_path / "v3.db"
        write_old_store(3, path, self.v1_entries(), crossrefs=[("H2O", "nu", 1, 4)])
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM records WHERE entry_id = 4")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        statements.clear()
        with pytest.raises(StoreError, match=f"cannot migrate to schema version {SCHEMA_VERSION}:"
                                             " entry 4 has no records"):
            RefStore(path)
        assert "COMMIT" not in statements
        assert path.read_bytes() == before

    # Nothing points at entry 4, so only the reader can notice that its records are gone.
    @pytest.mark.parametrize("version", [1, 2])
    def test_an_entry_without_records_is_refused_not_lost(self, tmp_path, capsys, statements,
                                                           version):
        path = tmp_path / f"v{version}.db"
        write_old_store(version, path, self.v1_entries())
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM records WHERE entry_id = 4")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        statements.clear()
        refusal = f"cannot migrate to schema version {SCHEMA_VERSION}: entry 4 has no records"
        with pytest.raises(StoreError, match=refusal):
            RefStore(path)
        assert "COMMIT" not in statements
        assert cli_main(["list", "--db", str(path)]) == EXIT_STORE
        assert refusal in capsys.readouterr().err
        assert path.read_bytes() == before

    # A stored record of the wrong JSON type that every renderer used to take:
    # the title 5 crashed the re-render, and given names stored as one string
    # rendered, and were migrated, as one initial per character.
    @pytest.mark.parametrize("version, update, value", [
        (4, "UPDATE entries SET records = ? WHERE global_id = 1", '[{"title":5,"authors":[]}]'),
        (4, "UPDATE entries SET records = ? WHERE global_id = 1",
         '[{"title":"T","authors":[{"given_names":"Élodie","surname":"Gordon"}]}]'),
        (2, "UPDATE records SET authors = ? WHERE entry_id = 1",
         '[{"given_names":"Élodie","surname":"Gordon"}]'),
    ], ids=["v4-title-int", "v4-given-names-text", "v2-given-names-text"])
    def test_a_field_of_the_wrong_type_exits_3_and_leaves_the_file(self, tmp_path, capsys,
                                                                   version, update, value):
        path = tmp_path / f"v{version}.db"
        write_old_store(version, path, self.v1_entries())
        conn = sqlite3.connect(path)
        conn.execute(update, (value,))
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert cli_main(["render", "1", "--format", "text", "--db", str(path)]) == EXIT_STORE
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"refs: cannot migrate to schema version {SCHEMA_VERSION}:"
                               " the records of entry 1 cannot be read: TypeError: ")
        assert path.read_bytes() == before

    def test_a_v1_file_with_an_empty_id_sequence_exits_3_and_is_left(self, tmp_path, capsys):
        path = tmp_path / "v1.db"
        write_old_store(1, path, self.v1_entries())
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM id_sequence")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert cli_main(["list", "--db", str(path)]) == EXIT_STORE
        assert capsys.readouterr().err == (f"refs: cannot migrate to schema version"
                                           f" {SCHEMA_VERSION}: the id_sequence table is empty\n")
        assert path.read_bytes() == before

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_a_cross_reference_to_no_entry_exits_3_and_leaves_the_file(self, tmp_path, capsys,
                                                                        version):
        path = tmp_path / f"v{version}.db"
        write_old_store(version, path, self.v1_entries(),
                        crossrefs=[("H2O", "nu", 1, 1), ("CO2", "nu", 7, 99)])
        before = path.read_bytes()
        assert cli_main(["list", "--db", str(path)]) == EXIT_STORE
        assert capsys.readouterr() == ("", f"refs: cannot migrate to schema version"
                                           f" {SCHEMA_VERSION}: dangling references"
                                           " [('crossrefs', 2, 'entries', 0)]\n")
        assert path.read_bytes() == before

    def test_a_failed_migration_closes_its_reader_before_the_connection(self, tmp_path,
                                                                         monkeypatch):
        """A reader left open would be closed by the garbage collector, after the file's
        connection, and report ``Exception ignored in`` the generator."""
        path = tmp_path / "v5.db"
        write_old_store(5, path, self.v1_entries())
        before = path.read_bytes()

        def failing_row(*args):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(refs.migrations, "_row", failing_row)
        with pytest.raises(sqlite3.OperationalError):
            RefStore(path)
        gc.collect()
        assert path.read_bytes() == before

    def test_live_entries_sharing_a_doi_set_stop_the_migration(self, tmp_path, statements):
        path = tmp_path / "v1.db"
        entries = self.v1_entries()
        entries[5] = ([record("10.1000/c", title="Raced copy")], None)
        entries[6] = ([record("10.1000/a"), record("10.1000/b")], None)
        write_old_store(1, path, entries)
        before = path.read_bytes()
        statements.clear()
        with pytest.raises(StoreError, match=r"2, 6 \(DOIs 10\.1000/a 10\.1000/b\)") as exc_info:
            RefStore(path)
        assert "3, 5" in str(exc_info.value)
        assert "COMMIT" not in statements
        assert path.read_bytes() == before
        assert schema_of(path) == (1, {"entries", "records", "notes", "crossrefs", "id_sequence"})

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_a_doi_set_shared_behind_a_stale_key_stops_the_migration(self, tmp_path, statements,
                                                                      version):
        """Keys are derived from the records, never copied: entry 6's stored key hides that
        it holds entry 2's DOIs, which a file of any version is refused for."""
        path = tmp_path / f"v{version}.db"
        entries = self.v1_entries()
        entries[6] = ([record("10.1000/b"), record("10.1000/a", title="Part two")], None)
        write_old_store(version, path, entries, deleted={3, 6})
        conn = sqlite3.connect(path)
        conn.execute("UPDATE entries SET deleted = 0, doi_set = 'stale' WHERE global_id = 6")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        statements.clear()
        with pytest.raises(StoreError, match=rf"^cannot migrate to schema version {SCHEMA_VERSION}:"
                           r" live entries share a DOI set: 2, 6 \(DOIs 10\.1000/a 10\.1000/b\)\."
                           r" Delete all but one of each group first\.$"):
            RefStore(path)
        assert "COMMIT" not in statements
        assert path.read_bytes() == before

    def test_only_the_store_selects_the_doi_set_key(self):
        """The key is derived by ``store._doi_set`` and read back by the store alone, so a
        new key rule changes that one function; a migration derives every key afresh."""
        selects_doi_set = re.compile(r"\bSELECT\b.*\bdoi_set\b", re.IGNORECASE | re.DOTALL)
        assert [where for where, text in literal_texts()
                if not where.startswith("store:") and selects_doi_set.search(text)] == []

    def test_only_the_migration_names_the_texts_table(self):
        """An entry's HTML and BibTeX are columns of its own row; only a migration reads the
        ``texts`` table of a version 3 to 6 file."""
        names_texts = re.compile(r"\b(FROM|JOIN|INTO|TABLE)\s+(main\.)?texts\b", re.IGNORECASE)
        assert [where for where, text in literal_texts()
                if not where.startswith("migrations:") and names_texts.search(text)] == []

    def test_no_query_reads_the_record_layout(self):
        """Only ``model.record_from_row`` reads a stored record row: no SQL reaches into the
        ``records`` JSON, so the row layout is the model's codec alone."""
        assert [where for where, text in literal_texts() if "json_extract" in text.lower()] == []


def literal_texts() -> list[tuple[str, str]]:
    """("module:line", text) for each string literal, f-string or "+" chain of them in refs."""
    texts = []
    for path in sorted(Path(refs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Constant, ast.JoinedStr, ast.BinOp)):
                text = "".join(part.value for part in ast.walk(node)
                               if isinstance(part, ast.Constant) and isinstance(part.value, str))
                texts.append((f"{path.stem}:{node.lineno}", text))
    return texts


# Cross-reference keys the migration property draws from.
CROSSREF_KEYS = list(itertools.product(["H2O", "CO2"], ["nu", "A"], range(3)))


storable_notes = st.none() | json_text.map(storable)


@st.composite
def entry_sets(draw) -> dict:
    """``write_old_store``'s arguments for an entry set every version can hold.

    Some entries repeat an earlier entry's records, so DOI sets recur. The
    tombstones drawn here are only those deleted by hand; ``write_new_store``
    adds those that a later entry with the same DOI set replaced.
    """
    entries = {}
    for gid in range(1, draw(st.integers(1, 4)) + 1):
        if gid > 1 and draw(st.booleans()):
            records = entries[draw(st.integers(1, gid - 1))][0]
        else:
            records = draw(st.lists(storable_records, min_size=1, max_size=2))
        entries[gid] = (records, draw(storable_notes))
    ids = st.sampled_from(list(entries))
    return {
        "entries": entries,
        "deleted": draw(st.sets(ids)),
        "crossrefs": draw(st.dictionaries(st.sampled_from(CROSSREF_KEYS), ids, max_size=3)),
        "next_id": len(entries) + 1 + draw(st.integers(0, 3)),
        "fetched": draw(st.dictionaries(ids, nonempty_json_text.map(storable), max_size=2)),
    }


def write_new_store(path: Path, entries: dict, deleted, crossrefs: dict, next_id: int,
                    fetched: dict) -> set[int]:
    """The entry set added to a new file through ``add_entry``; the IDs it tombstoned.

    Each entry is added in ID order and gets its cross-references while it
    is live. An entry whose DOI set a live entry holds replaces that entry,
    which is deleted first.
    """
    with RefStore(path) as store, unsynced(store):
        for gid, (records, note) in entries.items():
            try:
                store.add_entry(records, note, fetched.get(gid))
            except DuplicateEntryError as exc:
                store.delete_entry(exc.existing_id)
                store.add_entry(records, note, fetched.get(gid))
            for key, target in crossrefs.items():
                if target == gid:
                    store.attach_crossref(*key, gid)
            if gid in deleted:
                store.delete_entry(gid)
        # No add leaves a gap in the IDs, but version 1's counter could run
        # ahead of them, and a migration keeps it.
        store._conn.execute("UPDATE sqlite_sequence SET seq = ? WHERE name = 'entries'",
                            (next_id - 1,))
        return set(entries) - set(store.live_ids())


def every_answer(path: Path, last_id: int, out_dir: Path) -> list:
    """What a store answers to each read about IDs 1 to ``last_id``, and the ID it adds next.

    A read that raises answers with its error's type and message.
    """
    def answer(read, *args):
        try:
            return read(*args)
        except RefsError as exc:
            return type(exc), str(exc)

    def bundle(ids):
        store.export_bundle(ids, out_dir)
        return [(out_dir / name).read_bytes() for name in (HTML_BUNDLE_NAME, BIB_BUNDLE_NAME)]

    ids = range(1, last_id + 1)
    with RefStore(path) as store:
        answers = [answer(store.get_entry, gid) for gid in ids]
        answers += [answer(store.get_rendered, gid, fmt) for gid in ids for fmt in RenderFormat]
        for scope in (None, "H2O"):
            answers += [store.list_labels(scope), store.live_ids(scope)]
        answers += [answer(store.lookup_crossref, *key) for key in CROSSREF_KEYS]
        if live := store.live_ids():
            answers.append(answer(bundle, live))
        answers.append(store.add_entry([BibRecord(title="Next")]))
    return answers + [read_table(path, "SELECT type, name, tbl_name, sql FROM sqlite_master"
                                       " ORDER BY name"),
                      read_table(path, "SELECT * FROM entries ORDER BY global_id")]


# The fields of a record row, in record_to_row's order. A version 1 to 3 file
# keeps the pages in two columns; a damaged page goes to ``page_first``.
ROW_FIELDS = ("title", "authors", "source_type", "journal", "volume", "number", "pages", "year",
              "publisher", "doi", "bibcode")
# A value of each JSON type. Containers are empty, so an author list of a
# version 1 to 4 file and the author list of its record row are one value.
json_values = (st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1)
               | st.floats(allow_nan=False, allow_infinity=False) | json_text.map(storable)
               | st.sampled_from([[], {}]))


@st.composite
def damaged_records(draw) -> dict:
    """The records of one entry, and which field of which record to damage with what value."""
    records = draw(st.lists(storable_records, min_size=1, max_size=2))
    return {"records": records, "position": draw(st.integers(0, len(records) - 1)),
            "field": draw(st.sampled_from(ROW_FIELDS)), "value": draw(json_values),
            "deleted": draw(st.booleans())}


def damage_field(path: Path, version: int, position: int, field: str, value):
    """Set ``field`` of record ``position`` of entry 1 to ``value`` in a version-``version``
    file; the field read back from the file, as its record row holds it.

    A version 1 to 3 column holds a list or an object, and an author list
    always, as JSON text, and raises IntegrityError for a null it refuses.
    """
    conn = sqlite3.connect(path)
    try:
        if version <= 3:
            column = "page_first" if field == "pages" else field
            if field == "authors" or isinstance(value, (list, dict)):
                value = json.dumps(value)
            where = "WHERE entry_id = 1 AND position = ?"
            conn.execute(f"UPDATE records SET {column} = ? {where}", (value, position))
            stored, last = conn.execute(f"SELECT {column}, page_last FROM records {where}",
                                        (position,)).fetchone()
            if field == "authors":
                stored = json.loads(stored)
            elif field == "pages" and stored is not None:
                stored = [stored, last]
        else:
            key = field if version == 4 else ROW_FIELDS.index(field)
            select = "SELECT records FROM entries WHERE global_id = 1"
            (records_json,) = conn.execute(select).fetchone()
            records = json.loads(records_json)
            records[position][key] = value
            conn.execute("UPDATE entries SET records = ? WHERE global_id = 1",
                         (json.dumps(records, ensure_ascii=False),))
            stored = json.loads(conn.execute(select).fetchone()[0])[position][key]
        conn.commit()
        return stored
    finally:
        conn.close()


class TestMigrationProperty:
    @settings(max_examples=10, deadline=None)
    @given(entry_sets())
    # A DOI holding "|" had the old key of a tombstone holding its parts.
    @example({"entries": {1: ([BibRecord(title="Joined", doi=parse_doi("10.1234/a|10.1234/b"))],
                              None),
                          2: ([record("10.1234/a", title=""), record("10.1234/b")], "parts"),
                          3: ([BibRecord(authors=[make_author("A.", "Author")])], None)},
              "deleted": {2}, "crossrefs": {("H2O", "nu", 0): 1, ("CO2", "A", 2): 2},
              "next_id": 6, "fetched": {1: "@misc{Joined, title={Joined}}"}})
    def test_a_migrated_file_answers_every_read_as_a_new_one(self, drawn):
        """A v1 to v6 file migrates to the file that adding its entries to a new one makes.

        Fetched BibTeX exists from version 3 on, so a v1 or v2 file is held
        against a new file without it.
        """
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            last_id = max(drawn["entries"])
            new = {}
            for with_fetched in (False, True):
                path = tmp / f"new-{with_fetched}.db"
                tombstones = write_new_store(
                    path, **{**drawn, "fetched": drawn["fetched"] if with_fetched else {}})
                new[with_fetched] = every_answer(path, last_id, tmp / "out")
            for version in (1, 2, 3, 4, 5, 6):
                path = tmp / f"v{version}.db"
                write_old_store(
                    version, path, drawn["entries"], tombstones,
                    [(*key, gid) for key, gid in drawn["crossrefs"].items()], drawn["next_id"],
                    drawn["fetched"] if version >= 3 else None)
                assert every_answer(path, last_id, tmp / "out") == new[version >= 3]

    @settings(max_examples=40, deadline=None)
    @given(damaged_records())
    @example({"records": [BibRecord(title="T")], "position": 0, "field": "title", "value": 5,
              "deleted": False})
    def test_a_field_of_another_json_type_is_refused_as_record_from_row_refuses_it(self, drawn):
        """A v1 to v6 file with one record field damaged migrates exactly when
        ``record_from_row`` accepts that record as the file stores it; else it is
        refused and left as it was. A v1 to v3 column's affinity may turn the
        value into one of the right type, a title of 5 into ``"5"`` say."""
        records, position, field = drawn["records"], drawn["position"], drawn["field"]
        with tempfile.TemporaryDirectory() as tmp:
            for version in (1, 2, 3, 4, 5, 6):
                path = Path(tmp) / f"v{version}.db"
                write_old_store(version, path, {1: (records, None)},
                                deleted={1} if drawn["deleted"] else ())
                row = record_to_row(records[position])
                try:
                    row[ROW_FIELDS.index(field)] = damage_field(
                        path, version, position, field, drawn["value"])
                except sqlite3.IntegrityError:
                    continue  # a NOT NULL column of a version 1 to 3 file
                try:
                    expected = record_to_row(record_from_row(row))
                except MODEL_REFUSALS:
                    expected = None
                before = path.read_bytes()
                if expected is None:
                    with pytest.raises(StoreError, match="the records of entry 1 cannot be read"):
                        RefStore(path)
                    assert path.read_bytes() == before
                else:
                    with RefStore(path):
                        pass
                    (records_json,) = read_table(path, "SELECT records FROM entries")[0]
                    assert json.loads(records_json)[position] == expected
