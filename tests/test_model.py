"""Canonical model tests: author names, page ranges, labels, record invariants."""

from __future__ import annotations

import itertools
import json
import string

import pytest
from hypothesis import given, strategies as st

from refs import (
    AuthorName,
    BibcodeFormatError,
    BibcodeLengthError,
    BibRecord,
    InvalidAuthorError,
    InvalidDoiError,
    Pages,
    RefEntry,
    UnusableMetadataError,
    format_pages,
    make_author,
    parse_bibcode,
    parse_doi,
    render_html,
    render_json,
    render_text,
    sub_labels,
)
from refs.migrations import row_from_dict
from refs.model import SourceType, record_from_row, record_to_row
from refs.store import SCHEMA_VERSION

from stored_forms import v4_record
from strategies import entry_from_dict, json_records


def initials_by_search(given_names: tuple[str, ...]) -> list[str]:
    """The initials rule as first written: the first letter anywhere in each token."""
    letters = (next((c for c in token if c.isalpha()), None) for token in given_names)
    return [letter.upper() + "." for letter in letters if letter is not None]


class TestMakeAuthor:
    def test_initials_from_given_names(self):
        a = make_author("Iouli E.", "Gordon")
        assert a.initials == ["I.", "E."]
        assert a.formatted == "I. E. Gordon"

    def test_single_token(self):
        assert make_author("X", "Y").formatted == "X. Y"

    def test_empty_author_rejected(self):
        with pytest.raises(InvalidAuthorError):
            make_author("", "")

    def test_hyphenated_given_name_gives_two_initials(self):
        assert make_author("Jean-Pierre", "Dupont").initials == ["J.", "P."]

    def test_surname_only_renders_bare(self):
        a = make_author("", "HITRAN Collaboration")
        assert a.formatted == "HITRAN Collaboration"
        assert a.initials == []

    def test_non_letter_tokens_contribute_no_initial(self):
        assert make_author("123 Bob", "Smith").initials == ["B."]

    @given(st.lists(
        st.text(max_size=6)
        | st.tuples(st.characters().filter(lambda c: not c.isalpha()), st.text(max_size=6))
        .map("".join),
        max_size=4,
    ))
    def test_initials_match_the_first_letter_anywhere(self, tokens):
        author = AuthorName(given_names=tuple(tokens), surname="S")
        assert author.initials == initials_by_search(author.given_names)

    def test_idempotent_on_own_formatted_output(self):
        a = make_author("Iouli E.", "Gordon")
        reparsed = make_author(" ".join(a.initials), a.surname)
        assert reparsed.formatted == a.formatted

    @given(
        st.text(alphabet=string.ascii_letters + " -.", min_size=0, max_size=30),
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=15),
    )
    def test_idempotence_property(self, given_part, surname):
        a = make_author(given_part, surname)
        reparsed = make_author(" ".join(a.initials), a.surname)
        assert reparsed.formatted == a.formatted


class TestFormatPages:
    def test_range(self):
        assert format_pages("3", "69") == "3-69"

    def test_first_only(self):
        assert format_pages("3") == "3"

    def test_empty_first_rejected(self):
        with pytest.raises(ValueError):
            format_pages("", "9")

    def test_a_page_range_with_no_first_page_is_refused(self):
        with pytest.raises(ValueError, match="^first page must be non-empty$"):
            Pages("", "9")


def brute_force_labels(n: int) -> list[str]:
    """Independent oracle: enumerate letter strings in length-then-lex order."""
    out = []
    for width in itertools.count(1):
        for combo in itertools.product(string.ascii_lowercase, repeat=width):
            out.append("".join(combo))
            if len(out) == n:
                return out


class TestSubLabels:
    def test_single_record_has_empty_label(self):
        assert sub_labels(1) == [""]

    def test_two_records_get_a_and_b(self):
        assert sub_labels(2) == ["a", "b"]

    def test_27_extends_past_z(self):
        assert sub_labels(27) == brute_force_labels(27)
        assert sub_labels(27)[-1] == "aa"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sub_labels(0)

    def test_matches_oracle_and_has_no_duplicates_up_to_1000(self):
        labels = sub_labels(1000)
        assert labels == brute_force_labels(1000)
        assert len(set(labels)) == 1000
        keyed = [(len(lab), lab) for lab in labels]
        assert keyed == sorted(keyed)


class TestBibRecord:
    def test_doi_url_is_derived(self):
        r = BibRecord(title="T", doi=parse_doi("10.1000/x"))
        assert r.doi_url == "https://doi.org/10.1000/x"

    def test_mismatched_doi_url_rejected(self):
        with pytest.raises(TypeError):
            BibRecord(title="T", doi=parse_doi("10.1000/x"), doi_url="https://doi.org/10.1000/y")

    # A link set by hand would reach the stored HTML but not the text and
    # JSON renders or the decoded record, so links come from the identifiers only.
    @pytest.mark.parametrize("link", [
        {"doi_url": "https://example.org/x"},
        {"bibcode": parse_bibcode("2017JQSRT.203....3G"),
         "ads_url": "http://adsabs.harvard.edu/abs/2017JQSRT.203....3G"},
    ], ids=["doi_url", "ads_url"])
    def test_a_link_cannot_be_passed(self, link):
        with pytest.raises(TypeError):
            BibRecord(title="T", year=2000, **link)

    def test_a_decoded_link_is_derived_not_read(self):
        record = record_from_row(row_from_dict({
            "title": "T", "bibcode": "2017JQSRT.203....3G",
            "doi_url": "https://example.org/x",
            "ads_url": "http://adsabs.harvard.edu/abs/2017JQSRT.203....3G",
        }))
        assert record.doi_url is None
        assert record.ads_url == "https://ui.adsabs.harvard.edu/abs/2017JQSRT.203....3G"
        assert "doi_url" not in json.loads(render_json(RefEntry([record])).body)["records"][0]

    def test_links_follow_a_reassigned_identifier(self):
        r = BibRecord(title="t", doi=parse_doi("10.1000/a"),
                      bibcode=parse_bibcode("2017JQSRT.203....3G"))
        r.doi = parse_doi("10.1000/b")
        r.bibcode = parse_bibcode("2016JQSRT.200....4R")
        assert r.doi_url == "https://doi.org/10.1000/b"
        assert r.ads_url == "https://ui.adsabs.harvard.edu/abs/2016JQSRT.200....4R"
        entry = RefEntry([r])
        assert '<a href="https://doi.org/10.1000/b">' in render_html(entry).body
        assert "2016JQSRT.200....4R" in render_text(entry).body
        assert "10.1000/a" not in render_html(entry).body + render_text(entry).body
        r.doi = r.bibcode = None
        assert (r.doi_url, r.ads_url) == (None, None)

    def test_ads_url_embeds_bibcode(self):
        r = BibRecord(title="T", bibcode=parse_bibcode("2017JQSRT.203....3G"))
        assert "2017JQSRT.203....3G" in r.ads_url

    def test_ads_url_percent_encodes_special_characters(self):
        r = BibRecord(title="T", bibcode=parse_bibcode("2013A&A...558A..33A"))
        assert "2013A%26A...558A..33A" in r.ads_url

    @pytest.mark.parametrize("year", [1499, 3000])
    def test_year_range_enforced(self, year):
        with pytest.raises(ValueError):
            BibRecord(title="T", year=year)

    def test_year_bounds_accepted(self):
        BibRecord(title="T", year=1500)
        BibRecord(title="T", year=2999)


class TestRefEntry:
    def test_needs_records(self):
        with pytest.raises(ValueError):
            RefEntry(records=[])

    @pytest.mark.parametrize("global_id", [0, -1])
    def test_a_global_id_below_1_is_refused(self, global_id):
        with pytest.raises(ValueError, match=f"^global_id must be positive, got {global_id}$"):
            RefEntry(records=[BibRecord(title="A")], global_id=global_id)

    def test_display_labels_concatenate_id_and_sublabel(self):
        records = [BibRecord(title="A"), BibRecord(title="B")]
        entry = RefEntry(records=records, global_id=663)
        assert entry.display_labels == ["663a", "663b"]

    def test_single_record_label_is_bare_id(self):
        entry = RefEntry(records=[BibRecord(title="A")], global_id=12)
        assert entry.display_labels == ["12"]

    def test_unstored_entry_has_empty_labels(self):
        entry = RefEntry(records=[BibRecord(title="A")])
        assert entry.display_labels == [""]


class TestDictCodecs:
    def test_record_roundtrip(self):
        r = BibRecord(
            title="T",
            authors=[make_author("A. B.", "Cee")],
            journal="J",
            volume="9",
            number="2",
            pages=Pages("1", "2"),
            year=2001,
            publisher="P",
            doi=parse_doi("10.1000/x"),
            bibcode=parse_bibcode("2017JQSRT.203....3G"),
        )
        assert record_from_row(row_from_dict(v4_record(r))) == r

    def test_sparse_record_roundtrip(self):
        r = BibRecord(title="Only a title")
        assert record_from_row(row_from_dict(v4_record(r))) == r

    def test_entry_roundtrip_with_note(self):
        entry = RefEntry(
            records=[BibRecord(title="A"), BibRecord(title="B")],
            note="two sources",
            global_id=7,
        )
        loaded = entry_from_dict(json.loads(render_json(entry).body))
        assert loaded == entry

    @pytest.mark.parametrize("source_type", list(SourceType))
    def test_every_source_type_reads_back(self, source_type):
        r = BibRecord(title="T", source_type=source_type)
        assert record_from_row(row_from_dict(v4_record(r))).source_type is source_type

    @pytest.mark.parametrize("value", ["journal", "ARTICLE", "", ["article"], None])
    def test_unknown_source_type_is_the_enums_value_error(self, value):
        with pytest.raises(ValueError) as exc_info:
            record_from_row(row_from_dict({"title": "T", "source_type": value}))
        with pytest.raises(ValueError) as enum_info:
            SourceType(value)
        assert str(exc_info.value) == str(enum_info.value)

    # A stored dict that breaks a rule the constructors check, and the type
    # of what decoding it raises.
    @pytest.mark.parametrize("fields, error", [
        ({"authors": [{"given_names": ["A."], "surname": "  "}]}, InvalidAuthorError),
        ({"authors": [{"given_names": ["A."]}]}, KeyError),
        ({"source_type": "journal"}, ValueError),
        ({"year": 1499}, UnusableMetadataError),
        ({"doi": "11.1000/x"}, InvalidDoiError),
        ({"bibcode": "2017JQSRT.203....3"}, BibcodeLengthError),
        ({"bibcode": "2017JQSRT.203!...3G"}, BibcodeFormatError),
    ], ids=["blank-surname", "no-surname", "source-type", "year", "doi", "bibcode-18",
            "qualifier"])
    def test_a_malformed_stored_dict_is_refused(self, fields, error):
        with pytest.raises(error) as exc_info:
            record_from_row(row_from_dict({"title": "T", **fields}))
        assert type(exc_info.value) is error

    # The store's row codec rides along: drawing these records is most of the cost.
    @given(json_records)
    def test_record_roundtrip_property(self, r):
        assert record_from_row(row_from_dict(v4_record(r))) == r
        assert record_from_row(record_to_row(r)) == r
        assert record_from_row(json.loads(json.dumps(record_to_row(r)))) == r

    def test_consortium_author_roundtrip(self):
        r = BibRecord(title="T", authors=[AuthorName(given_names=(), surname="Team X")])
        assert record_from_row(row_from_dict(v4_record(r))) == r


def full_record() -> BibRecord:
    return BibRecord(
        title="T", authors=[make_author("A. B.", "Cee"), make_author("", "Team X")],
        source_type=SourceType.BOOK, journal="J", volume="9", number="2",
        pages=Pages("1", "2"), year=2001, publisher="P", doi=parse_doi("10.1000/x"),
        bibcode=parse_bibcode("2017JQSRT.203....3G"),
    )


class TestRowCodec:
    def test_row_holds_the_fields_in_constructor_order(self):
        # A stored row has no keys, so it means what this order says. A new
        # BibRecord field needs a migration step that rewrites every row, a
        # new SCHEMA_VERSION, and a new pin here.
        assert (SCHEMA_VERSION, BibRecord._field_names) == (7, (
            "title", "authors", "source_type", "journal", "volume", "number", "pages",
            "year", "publisher", "doi", "bibcode"))
        r = full_record()
        assert BibRecord(*[getattr(r, name) for name in BibRecord._field_names]) == r
        encoded = {
            "authors": [[["A.", "B."], "Cee"], [[], "Team X"]],
            "source_type": "book",
            "pages": ["1", "2"],
            "doi": "10.1000/x",
            "bibcode": "2017JQSRT.203....3G",
        }
        assert record_to_row(r) == [encoded.get(name, getattr(r, name))
                                    for name in BibRecord._field_names]

    def test_absent_fields_are_null(self):
        assert record_to_row(BibRecord(title="Only a title")) == [
            "Only a title", [], "article", None, None, None, None, None, None, None, None]

    # A stored row that breaks a rule the constructors check, and the type
    # of what decoding it raises.
    @pytest.mark.parametrize("position, value, error", [
        (None, None, ValueError),
        (1, [[["A."], "  "]], InvalidAuthorError),
        (2, "journal", ValueError),
        (7, 1499, UnusableMetadataError),
        (9, "10.1000/X", InvalidDoiError),
        (9, "doi:10.1000/x", InvalidDoiError),
        (10, "2017JQSRT.203....3", BibcodeLengthError),
        (10, "2017JQSRT.203!...3G", BibcodeFormatError),
    ], ids=["arity", "blank-surname", "source-type", "year", "doi-uppercase", "doi-prefixed",
            "bibcode-18", "qualifier"])
    def test_a_malformed_stored_row_is_refused(self, position, value, error):
        row = record_to_row(full_record())
        if position is None:
            row.pop()
        else:
            row[position] = value
        with pytest.raises(error) as exc_info:
            record_from_row(row)
        assert type(exc_info.value) is error
