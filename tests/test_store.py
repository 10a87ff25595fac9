"""Registry tests: IDs, dedup, cross-references, bundles, durability."""

from __future__ import annotations

import errno
import random
from pathlib import Path

import pytest

from refs import (
    BibRecord,
    CrossRefConflictError,
    DuplicateEntryError,
    MissingEntryError,
    Pages,
    RefStore,
    StoreError,
    make_author,
    parse_doi,
)
from refs import fileio


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


class TestRetrieval:
    def test_add_then_get_roundtrip(self, store):
        original = [record("10.1000/a", title="Exact fields", year=1999)]
        gid = store.add_entry(original, note="a note")
        loaded = store.get_entry(gid)
        assert loaded.records == original
        assert loaded.note == "a note"
        assert loaded.global_id == gid

    def test_unknown_id(self, store):
        with pytest.raises(MissingEntryError):
            store.get_entry(999999)

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
        for scope in scoped:
            expected = sorted({c.global_id for c in store.list_crossrefs() if c.dataset_scope == scope})
            assert [e.global_id for e in store.list_entries(scope=scope)] == expected
        assert [e.global_id for e in store.list_entries(scope="none-such")] == []


class TestCrossRefs:
    def test_attach_then_lookup(self, store):
        gid = store.add_entry([record("10.1000/a")])
        store.attach_crossref("H2C18O", "nu", 5, gid)
        assert store.lookup_crossref("H2C18O", "nu", 5) == gid

    def test_reattach_identical_is_idempotent(self, store):
        gid = store.add_entry([record("10.1000/a")])
        store.attach_crossref("H2O", "nu", 1, gid)
        store.attach_crossref("H2O", "nu", 1, gid)
        assert len(store.list_crossrefs()) == 1

    def test_conflicting_remap_rejected(self, store):
        a = store.add_entry([record("10.1000/a")])
        b = store.add_entry([record("10.1000/b")])
        store.attach_crossref("H2O", "nu", 1, a)
        with pytest.raises(CrossRefConflictError):
            store.attach_crossref("H2O", "nu", 1, b)

    def test_attach_to_unknown_entry(self, store):
        with pytest.raises(MissingEntryError):
            store.attach_crossref("H2O", "nu", 1, 42)


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
                def __enter__(self):
                    return self

                def __exit__(self, *exc_info):
                    fh.close()

                def writelines(self, chunks):
                    chunks = list(chunks)
                    fh.writelines(chunks[: len(chunks) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")

            return HalfWritten()

        monkeypatch.setattr(fileio, "open", disk_fills_up, raising=False)
        with pytest.raises(OSError):
            store.export_bundle([1, 2], out)
        assert (html_path.read_bytes(), bib_path.read_bytes()) == before
        assert sorted(p.name for p in out.iterdir()) == ["refs.bib", "refs.html"]


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
