"""Tokenizer and record-mapping tests for the BibTeX machinery."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import refs.bibtex
from refs import BibtexCardinalityError, BibtexParseError, InvalidAuthorError, bibtex_to_record
from refs.bibtex import (
    _group_end,
    clean_value,
    parse_entries,
    split_authors,
    split_page_range,
)
from refs.model import SourceType
from refs.render import _VALUE_ESCAPES, escape_value

# The inverse of escape_value: every backslash it writes starts one of its escapes.
_UNESCAPES = {escaped: char for char, escaped in _VALUE_ESCAPES.items()}
_UNESCAPE_RE = re.compile("|".join(map(re.escape, _UNESCAPES)))


def unescape_value(text: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES[m.group()], text)


class TestParseEntries:
    def test_minimal_entry(self):
        entries = parse_entries("@article{k, title={T}, author={A B}, year={2000}}")
        assert len(entries) == 1
        e = entries[0]
        assert e.entry_type == "article"
        assert e.key == "k"
        assert e.fields == {"title": "T", "author": "A B", "year": "2000"}

    def test_nested_braces_preserved(self):
        entries = parse_entries("@article{k, title={The {HITRAN}2016 database}}")
        assert entries[0].fields["title"] == "The {HITRAN}2016 database"

    def test_quoted_values(self):
        entries = parse_entries('@article{k, title = "{Quoted} title", year = 2017,}')
        assert entries[0].fields["title"] == "{Quoted} title"
        assert entries[0].fields["year"] == "2017"

    def test_unbalanced_braces_report_offset(self):
        with pytest.raises(BibtexParseError) as exc_info:
            parse_entries("@article{k, title={T}")
        assert exc_info.value.offset is not None

    def test_multiple_entries(self):
        entries = parse_entries("@article{a, year={1}}\n\n@book{b, year={2}}")
        assert [e.key for e in entries] == ["a", "b"]
        assert [e.entry_type for e in entries] == ["article", "book"]

    def test_raw_preserves_entry_text(self):
        text = "@article{a, year={1}}"
        assert parse_entries(text)[0].raw == text

    def test_field_names_lowercased(self):
        entries = parse_entries("@article{k, DOI={10.1000/x}, Title={T}}")
        assert set(entries[0].fields) == {"doi", "title"}

    def test_a_quote_inside_braces_in_a_quoted_value_is_text(self):
        entries = parse_entries('@article{k, title = "A {"}B", year = 2000}')
        assert entries[0].fields == {"title": 'A {"}B', "year": "2000"}


class TestParseErrors:
    """Each refusal, with its message and the character index it names."""

    @pytest.mark.parametrize("text,message,offset", [
        ("x @ y", "expected an entry type after '@'", 2),
        ("@article  (k, t={T})", "expected '{' after @article", 10),
        ("% c\n@article{k, title={T}", "unbalanced braces in entry", 4),
        ("@misc{nokey}", "entry has no key separator comma", 6),
        ("@misc{  , title={T}}", "entry has an empty key", 6),
        ("@misc{a, x = 1}\n@misc{k, title {T}}", "malformed field assignment", 25),
        # An entry's braces are counted before its fields are read, and every
        # brace inside a balanced entry closes inside it, so an unclosed value
        # brace is reported as the entry's.
        ("@misc{k, title = {T}", "unbalanced braces in entry", 0),
        ('@misc{a, x = 1}\n@misc{k, t = 1, title = "abc}', "unterminated quoted value", 40),
    ], ids=["type", "open-brace", "entry-braces", "key-comma", "empty-key", "assignment",
            "value-braces", "quoted"])
    def test_message_and_offset(self, text, message, offset):
        with pytest.raises(BibtexParseError) as exc_info:
            parse_entries(text)
        assert exc_info.value.offset == offset
        assert str(exc_info.value) == f"{message} (at offset {offset})"


class TestBraceScanner:
    @pytest.mark.parametrize("text,opening,end,expected", [
        ("{a{b}c}d", 0, 8, 7),
        ("x{a}", 1, 4, 4),
        ("x{a}", 0, 4, 0),  # no "{" at the opening: the group is empty
        ("{a{b}", 0, 5, -1),
        ("{a}", 0, 2, -1),  # the "}" lies past the end
        ("", 0, 0, 0),
    ])
    def test_group_end(self, text, opening, end, expected):
        assert _group_end(text, opening, end) == expected

    def test_only_the_scanner_compares_with_a_brace(self):
        """Brace depth is counted in _group_end alone; the rest of the reader
        finds braces through it, or through a pattern that skips its groups."""
        tree = ast.parse(Path(refs.bibtex.__file__).read_text(encoding="utf-8"))
        comparing = set()
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    operands = node.args  # text.startswith("{"), text.find("}"), ...
                else:
                    continue
                if any(isinstance(operand, ast.Constant) and isinstance(operand.value, str)
                       and {"{", "}"} & set(operand.value) for operand in operands):
                    comparing.add(function.name)
        assert comparing == {"_group_end"}


class TestValueEscaping:
    def test_escape_table(self):
        assert escape_value("50% & rising") == r"50\% \& rising"
        assert escape_value("a_b #c $d") == r"a\_b \#c \$d"
        assert escape_value("{x}") == r"\textbraceleft{}x\textbraceright{}"
        assert escape_value("a\\b") == r"a\textbackslash{}b"

    @given(st.text(max_size=80))
    def test_escape_roundtrip(self, text):
        assert unescape_value(escape_value(text)) == text

    @given(st.text(max_size=200) | st.text("\\{}%&$#_ab", max_size=40))
    def test_escape_matches_the_per_character_definition(self, text):
        assert escape_value(text) == "".join(_VALUE_ESCAPES.get(c, c) for c in text)

    def test_clean_value_drops_protection_braces_keeps_escaped(self):
        assert clean_value(r"a \{b\} {Case}") == "a {b} Case"

    def test_text_commands_read_back(self):
        escaped = r"\textbraceleft{}a\textbackslash{}b\textbraceright{}"
        assert unescape_value(escaped) == "{a\\b}"
        assert clean_value("{" + escaped + "}") == "{a\\b}"

    def test_clean_value_collapses_whitespace(self):
        assert clean_value("spread\n    over lines") == "spread over lines"

    def test_clean_value_keeps_whitespace_that_bibtex_does_not_separate_on(self):
        assert clean_value("\u00a0a\u2009b \t\r\n c\u00a0") == "\u00a0a\u2009b c\u00a0"

    def test_clean_value_decodes_entities(self):
        assert clean_value("Astronomy &amp; Astrophysics") == "Astronomy & Astrophysics"


class TestSplitAuthors:
    def test_plain_split(self):
        assert split_authors("A B and C D") == ["A B", "C D"]

    def test_braced_group_not_split(self):
        parts = split_authors("{Barnes and Noble} and Smith, J.")
        assert parts == ["{Barnes and Noble}", "Smith, J."]

    @pytest.mark.parametrize("raw,expected", [
        ("A and\nB", ["A", "B"]),
        ("A AND B", ["A", "B"]),
        ("A \t and\r\n  B aNd C", ["A", "B", "C"]),
    ], ids=["wrapped", "upper-case", "runs"])
    def test_and_splits_in_any_case_at_any_bibtex_whitespace(self, raw, expected):
        assert split_authors(raw) == expected

    def test_and_inside_a_word_or_next_to_other_whitespace_does_not_split(self):
        assert split_authors("Sand and Anders, J.") == ["Sand", "Anders, J."]
        assert split_authors("A\u00a0and B") == ["A\u00a0and B"]


class TestSplitPageRange:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("3-69", ("3", "69")),
            ("306--312", ("306", "312")),
            ("3–69", ("3", "69")),
            ("7", ("7", None)),
            ("A33", ("A33", None)),
        ],
    )
    def test_ranges(self, raw, expected):
        pages = split_page_range(raw)
        assert (pages.first, pages.last) == expected

    def test_empty_is_none(self):
        assert split_page_range("") is None


class TestBibtexToRecord:
    def test_minimal_record(self):
        r = bibtex_to_record("@article{k, title={T}, author={A B}, year={2000}}")
        assert r.title == "T"
        assert [a.surname for a in r.authors] == ["B"]
        assert r.year == 2000
        assert r.doi is None and r.bibcode is None

    def test_parse_error(self):
        with pytest.raises(BibtexParseError):
            bibtex_to_record("@article{k, title={T}")

    def test_zero_entries_is_cardinality_error(self):
        with pytest.raises(BibtexCardinalityError):
            bibtex_to_record("no entries here")

    def test_multiple_entries_is_cardinality_error(self):
        with pytest.raises(BibtexCardinalityError):
            bibtex_to_record("@article{a, year={1}}@article{b, year={2}}")

    def test_bibcode_key_is_recognised(self):
        r = bibtex_to_record("@article{2017JQSRT.203....3G, title={T}, year={2017}}")
        assert str(r.bibcode) == "2017JQSRT.203....3G"

    def test_an_unparsable_doi_is_dropped(self):
        r = bibtex_to_record("@article{k, title={T}, doi={not a doi}, year={2000}}")
        assert r.doi is None
        assert r.title == "T" and r.year == 2000

    @pytest.mark.parametrize(
        "raw, year",
        [("2017", 2017), ("{2017a}", 2017), ("{c. 1999--2001}", 1999), ("{99}", None)],
    )
    def test_the_year_is_the_first_four_digits(self, raw, year):
        assert bibtex_to_record(f"@article{{k, title={{T}}, year={raw}}}").year == year

    def test_an_unbraced_name_with_no_text_is_refused(self):
        with pytest.raises(InvalidAuthorError):
            bibtex_to_record("@article{k, title={T}, author={{}{}}}")

    def test_a_line_wrapped_author_list_gives_each_author(self):
        r = bibtex_to_record("@article{k, author = {Smith, John and\n    Doe, Jane}}")
        assert [(a.surname, a.given_names) for a in r.authors] == [
            ("Smith", ("John",)), ("Doe", ("Jane",))]

    def test_braced_author_is_literal(self):
        r = bibtex_to_record("@article{k, title={T}, author={{HITRAN Team} and Doe, Jane}}")
        assert r.authors[0].surname == "HITRAN Team"
        assert r.authors[0].given_names == ()
        assert r.authors[1].surname == "Doe"

    def test_entry_type_mapping(self):
        r = bibtex_to_record("@phdthesis{k, title={T}, author={A B}, year={2010}}")
        assert r.source_type is SourceType.THESIS

    def test_unknown_type_maps_to_other(self):
        r = bibtex_to_record("@software{k, title={T}, author={A B}}")
        assert r.source_type is SourceType.OTHER

    def test_ads_style_entry(self):
        raw = (
            "@ARTICLE{2017JQSRT.203....3G,\n"
            "   author = {{Gordon}, I.~E. and {Rothman}, L.~S.},\n"
            '   title = "{The HITRAN2016 molecular spectroscopic database}",\n'
            "   journal = {JQSRT},\n"
            "   year = 2017,\n"
            "   volume = {203},\n"
            "   pages = {3-69},\n"
            "   doi = {10.1016/j.jqsrt.2017.06.038}\n"
            "}"
        )
        r = bibtex_to_record(raw)
        assert r.title == "The HITRAN2016 molecular spectroscopic database"
        assert [a.surname for a in r.authors] == ["Gordon", "Rothman"]
        assert (r.pages.first, r.pages.last) == ("3", "69")
        assert r.doi.canonical == "10.1016/j.jqsrt.2017.06.038"
        assert str(r.bibcode) == "2017JQSRT.203....3G"
