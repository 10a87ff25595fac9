"""Renderer tests: the escape table, field order, goldens, and roundtrips."""

from __future__ import annotations

import array
import itertools
import json
import re
import string

import pytest
from hypothesis import given, strategies as st

import refs.render
from refs import (
    BibcodeFormatError,
    BibRecord,
    Pages,
    RefEntry,
    UnrenderableError,
    bibtex_to_record,
    escape_html,
    make_author,
    parse_bibcode,
    parse_doi,
    render_bibtex,
    render_html,
    render_json,
    render_text,
)
from refs.bibtex import parse_entries
from refs.identifiers import ADS_ABS_URL
from refs.model import AuthorName
from refs.render import escape_value

from corpus import build_corpus_entries
from conftest import GOLDEN_DIR
from stored_forms import v4_record
from strategies import (
    KEY_BREAKERS, accepted_bibcodes, bibcodes_with_a_key_breaker, entry_from_dict, json_records,
    optional_json_text,
)

RAW_SPECIALS = set('&<>"\'')

# Text rich in BibTeX's specials, in the word "and", in what spells an HTML
# character reference after "&", and in the no-break and thin spaces, which
# BibTeX does not separate words on. As the parser reads it back: single
# spaces, none at either end, and something besides whitespace.
BIBTEX_RICH_TEXT = (
    st.lists(
        st.sampled_from([*"{}\\%&$#_, éßλЖ;\u00a0\u2009", " and ", " AND ", "&lt", "&#38",
                         "&amp;"])
        | st.sampled_from(string.ascii_letters + string.digits),
        min_size=1, max_size=30,
    )
    .map(lambda pieces: re.sub(" +", " ", "".join(pieces)).strip(" "))
    .filter(str.strip)
)

# The exact five-entry substitution table, applied per codepoint.
ESCAPE_TABLE = {"&": "&amp;", "<": "&lt;", '"': "&quot;", "'": "&#x27;", ">": "&gt;"}


def table_escape(raw: str) -> str:
    """Independent oracle for escape_html: per-character table lookup."""
    return "".join(ESCAPE_TABLE.get(c, c) for c in raw)


json_entries = st.builds(
    RefEntry,
    records=st.lists(json_records, min_size=1, max_size=3),
    note=optional_json_text,
    global_id=st.none() | st.integers(1, 10**12),
)


# What a text field may hold besides text, each of which the JSON renderer refuses.
ODD_VALUES = st.integers().filter(bool) | st.sampled_from([1.5, True, b"x", (1, 2), {"a": 1}])
TEXT_FIELDS = ["title", "journal", "volume", "number", "publisher", "note", "given_name",
               "first_page", "last_page"]


def set_text_field(entry: RefEntry, where: str, value) -> None:
    """Put ``value`` in the note, or in one text field of the entry's last record."""
    record = entry.records[-1]
    if where == "note":
        entry.note = value
    elif where == "given_name":
        record.authors = [*record.authors, AuthorName((value,), "B")]
    elif where in ("first_page", "last_page"):
        first, last = (record.pages.first, record.pages.last) if record.pages else ("1", None)
        record.pages = Pages(value, last) if where == "first_page" else Pages(first, value)
    else:
        setattr(record, where, value)


# Name text rich in what the BibTeX author rule escapes or braces, in "and"
# as a word and inside words, and in the whitespace around an "and" that
# decides whether it is a word: \s also matches U+001C to U+001F, U+0085 and
# U+2028, and not the no-break space.
name_text = st.lists(
    st.sampled_from(["and", "AND", "aNd", "Andy", "band", " ", "\n", "\t", "\x1c", "\x1d",
                     "\x1e", "\x1f", "\x85", "\u2028", "\u00a0", ",", *refs.render._VALUE_ESCAPES,
                     "x", "é"]),
    max_size=8,
).map("".join)
AND_WORD = re.compile(r"(?:^|\s)and(?:\s|$)", re.IGNORECASE)


def bibtex_author_by_parts(author: AuthorName) -> str:
    """The author rule as first written: escape each part, then brace what needs it."""
    surname = escape_value(author.surname)
    if not author.given_names:
        return "{" + surname + "}"
    given = escape_value(" ".join(author.given_names))
    if "," in surname or AND_WORD.search(surname):
        surname = "{" + surname + "}"
    if AND_WORD.search(given):
        given = "{" + given + "}"
    return f"{surname}, {given}"


# _bibtex_author's test of whether a name needs work, as first written: one
# case-insensitive alternation over "surname\ngiven names".
NAME_NEEDS_WORK = re.compile(
    f"[,{re.escape(''.join(refs.render._VALUE_ESCAPES))}]|{AND_WORD.pattern}", re.I)


def bibtex_author_by_one_search(author: AuthorName) -> str:
    """_bibtex_author as first written, its test one search of NAME_NEEDS_WORK."""
    surname, given = author.surname, " ".join(author.given_names)
    if NAME_NEEDS_WORK.search(surname + "\n" + given) is not None:
        surname, given = escape_value(surname), escape_value(given)
        if author.given_names and ("," in surname or AND_WORD.search(surname)):
            surname = "{" + surname + "}"
        if AND_WORD.search(given):
            given = "{" + given + "}"
    return f"{surname}, {given}" if author.given_names else "{" + surname + "}"


def json_object(entry: RefEntry) -> dict:
    """What ``render_json`` writes for ``entry``, as ``json.loads`` reads it: each record as
    version 4 stored it plus its two links, then the entry's ID, labels and note when set."""
    records = [{**v4_record(r), **{key: url for key, url in
                                   (("doi_url", r.doi_url), ("ads_url", r.ads_url)) if url}}
               for r in entry.records]
    out = {"records": records}
    if entry.global_id is not None:
        out |= {"global_id": entry.global_id, "labels": entry.display_labels}
    if entry.note is not None:
        out["note"] = entry.note
    return out


def full_entry(global_id=None, note=None) -> RefEntry:
    record = BibRecord(
        title="T",
        authors=[make_author("A. B.", "Cee")],
        journal="J",
        volume="9",
        pages=Pages("1", "2"),
        year=2001,
        doi=parse_doi("10.1000/x"),
        bibcode=parse_bibcode("2017JQSRT.203....3G"),
    )
    return RefEntry(records=[record], note=note, global_id=global_id)


class TestEscapeHtml:
    def test_ampersand(self):
        assert escape_html("&") == "&amp;"

    def test_all_five(self):
        assert escape_html("a<b>'c'\"d\"") == "a&lt;b&gt;&#x27;c&#x27;&quot;d&quot;"

    def test_empty(self):
        assert escape_html("") == ""

    def test_matches_table_oracle_on_ascii(self):
        every_ascii = "".join(chr(i) for i in range(128))
        assert escape_html(every_ascii) == table_escape(every_ascii)

    @given(st.text(max_size=200))
    def test_no_raw_special_characters_survive(self, s):
        out = escape_html(s)
        assert not {"<", ">", '"', "'"} & set(out)
        # every ampersand left is the start of one of the five entities
        for i, c in enumerate(out):
            if c == "&":
                assert out[i:].startswith(("&amp;", "&lt;", "&gt;", "&quot;", "&#x27;"))

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=60))
    def test_matches_oracle_property(self, s):
        assert escape_html(s) == table_escape(s)

    def test_injective_on_ascii(self):
        inputs = ["".join(chr(i) for i in range(32, 127))[k : k + 3] for k in range(0, 90)]
        outputs = {escape_html(s) for s in inputs}
        assert len(outputs) == len(set(inputs))


class TestRenderHtml:
    def test_full_record_shape(self):
        body = render_html(full_entry()).body
        assert body == (
            'A. B. Cee, &quot;T&quot;, <i>J</i> <b>9</b>, 1-2 (2001). '
            '<a href="https://doi.org/10.1000/x">[link]</a> '
            '<a href="https://ui.adsabs.harvard.edu/abs/2017JQSRT.203....3G">[ADS]</a>'
        )

    def test_two_record_entry_labels_lines(self):
        entry = RefEntry(
            records=[
                BibRecord(title="First source", year=2001, doi=parse_doi("10.1000/a")),
                BibRecord(title="Second source", year=2002, doi=parse_doi("10.1000/b")),
            ],
            global_id=663,
        )
        lines = render_html(entry).body.split("<br>\n")
        assert lines[0].startswith("663a. ")
        assert lines[1].startswith("663b. ")

    def test_title_specials_escaped(self):
        entry = RefEntry(records=[BibRecord(title="a<b", year=2000, doi=parse_doi("10.1000/c"))])
        assert "&lt;" in render_html(entry).body
        assert "a<b" not in render_html(entry).body

    def test_never_double_escapes(self):
        entry = RefEntry(records=[BibRecord(title="&amp;", year=2000, doi=parse_doi("10.1000/c"))])
        assert "&amp;amp;" in render_html(entry).body

    def test_note_precedes_authors(self):
        body = render_html(full_entry(note="Context first.")).body
        assert body.index("Context first.") < body.index("A. B. Cee")

    def test_note_only_on_first_line(self):
        entry = RefEntry(
            records=[
                BibRecord(title="First", year=2001, doi=parse_doi("10.1000/a")),
                BibRecord(title="Second", year=2002, doi=parse_doi("10.1000/b")),
            ],
            note="Shared note.",
            global_id=5,
        )
        lines = render_html(entry).body.split("<br>\n")
        assert "Shared note." in lines[0]
        assert "Shared note." not in lines[1]

    def test_unrenderable_record(self):
        entry = RefEntry(records=[BibRecord(doi=parse_doi("10.1000/void"))])
        with pytest.raises(UnrenderableError):
            render_html(entry)

    def test_field_order_invariant_on_corpus(self):
        for entry in build_corpus_entries():
            body = render_html(entry).body
            record = entry.records[0]
            year_text = str(record.year) if record.year else "n.d."
            year_pos = body.index(f"({year_text})")
            if record.volume:
                assert body.index(f"<b>{escape_html(record.volume)}</b>") < year_pos
            if record.title:
                title_end = body.index("&quot;,") if record.journal or record.volume else None
                if title_end is not None and record.volume:
                    assert title_end < body.index(f"<b>{escape_html(record.volume)}</b>")
            if record.journal and record.volume:
                assert body.index("<i>") < body.index("<b>")
            if record.doi_url:
                assert body.index("href") > year_pos

    def test_golden_corpus(self):
        bodies = "\n".join(render_html(e).body for e in build_corpus_entries()) + "\n"
        golden = (GOLDEN_DIR / "html_corpus.html").read_text(encoding="utf-8")
        assert bodies == golden


class TestRenderBibtex:
    def test_all_eight_fields_present(self):
        record = BibRecord(
            title="T",
            authors=[make_author("A.", "Cee")],
            journal="J",
            volume="9",
            number="2",
            pages=Pages("1", "2"),
            year=2001,
            publisher="P",
            doi=parse_doi("10.1000/x"),
        )
        body = render_bibtex(RefEntry(records=[record])).body
        for name in ("title", "author", "journal", "volume", "number", "pages", "year", "publisher"):
            assert f"{name} = {{" in body

    def test_field_order(self):
        record = BibRecord(
            title="T",
            authors=[make_author("A.", "Cee")],
            journal="J",
            volume="9",
            number="2",
            pages=Pages("1", "2"),
            year=2001,
            publisher="P",
            doi=parse_doi("10.1000/x"),
        )
        body = render_bibtex(RefEntry(records=[record])).body
        order = ["title =", "author =", "journal =", "volume =", "number =",
                 "pages =", "year =", "publisher =", "doi ="]
        positions = [body.index(piece) for piece in order]
        assert positions == sorted(positions)

    def test_bibcode_key(self):
        body = render_bibtex(full_entry()).body
        assert body.startswith("@article{2017JQSRT.203....3G,")

    @given(accepted_bibcodes() | bibcodes_with_a_key_breaker())
    def test_every_accepted_bibcode_reads_back_as_its_key(self, raw):
        try:
            bibcode = parse_bibcode(raw)
        except BibcodeFormatError:
            assert set(KEY_BREAKERS) & set(raw)
            return
        record = BibRecord(title="T", authors=[make_author("A.", "Cee")], bibcode=bibcode)
        body = render_bibtex(RefEntry([record])).body
        assert [entry.key for entry in parse_entries(body)] == [raw]
        assert bibtex_to_record(body) == record

    def test_surname_year_key_without_bibcode(self):
        record = BibRecord(title="T", authors=[make_author("A.", "Cee")], year=2001,
                           doi=parse_doi("10.1000/x"))
        body = render_bibtex(RefEntry(records=[record])).body
        assert body.startswith("@article{Cee2001,")

    def test_escape_table_in_values(self):
        record = BibRecord(title="50% & rising", year=2001, doi=parse_doi("10.1000/x"))
        assert r"50\% \& rising" in render_bibtex(RefEntry(records=[record])).body

    def test_roundtrip_reproduces_record(self):
        record = BibRecord(
            title="Escaping {braces} & 100% of $pecial #chars_here",
            authors=[make_author("A. B.", "Cee"), make_author("D.", "Eff")],
            journal="J & J",
            volume="9",
            number="2",
            pages=Pages("1", "2"),
            year=2001,
            publisher="P",
            doi=parse_doi("10.1000/x"),
        )
        body = render_bibtex(RefEntry(records=[record])).body
        assert bibtex_to_record(body) == record

    @pytest.mark.parametrize("surname", ["Smith, Jr", "Smith,Jr.", "a, b, c", ","])
    def test_comma_in_a_surname_parses_back(self, surname):
        record = BibRecord(
            title="T",
            authors=[make_author("A. B.", surname), make_author("", surname),
                     make_author("D.", "Eff")],
            year=2001,
        )
        body = render_bibtex(RefEntry(records=[record])).body
        assert f"author = {{{{{surname}}}, A. B. and {{{surname}}} and Eff, D.}}" in body
        assert bibtex_to_record(body).authors == record.authors

    @pytest.mark.parametrize("surname", ["Smith and Jones", "Smith AND Jones", "and",
                                         "Smith and", "and Jones"])
    def test_and_in_a_surname_keeps_one_author(self, surname):
        record = BibRecord(
            title="T",
            authors=[make_author("A", surname), make_author("D.", "Eff")],
            year=2001,
        )
        body = render_bibtex(RefEntry(records=[record])).body
        assert f"author = {{{{{surname}}}, A and Eff, D.}}" in body
        assert bibtex_to_record(body).authors == record.authors

    def test_and_in_given_names_keeps_one_author(self):
        record = BibRecord(title="T", authors=[make_author("A and", "Smith"),
                                               make_author("D.", "Eff")], year=2001)
        body = render_bibtex(RefEntry(records=[record])).body
        assert "author = {Smith, {A and} and Eff, D.}" in body
        assert bibtex_to_record(body).authors == record.authors

    @pytest.mark.parametrize("title", ["a &lt b &#38 c", "&amp;", "x&#x41;y", "&lt;&gt;"])
    def test_escaped_ampersand_is_not_read_as_a_character_reference(self, title):
        record = BibRecord(title=title, year=2001)
        body = render_bibtex(RefEntry(records=[record])).body
        assert bibtex_to_record(body).title == title

    def test_a_brace_in_a_value_parses_back(self):
        record = BibRecord(title="{T", authors=[make_author("A{", "B")], year=2001)
        body = render_bibtex(RefEntry(records=[record])).body
        assert "author = {B, A\\textbraceleft{}}," in body
        assert bibtex_to_record(body) == record

    @given(st.lists(st.tuples(st.lists(name_text, max_size=3), name_text.filter(str.strip)),
                    min_size=1, max_size=3))
    def test_author_field_matches_the_rule_part_by_part(self, names):
        authors = [AuthorName(tuple(given), surname) for given, surname in names]
        body = render_bibtex(RefEntry([BibRecord(title="T", authors=authors)])).body
        expected = " and ".join(bibtex_author_by_parts(a) for a in authors)
        assert f"\n    author = {{{expected}}},\n" in body

    @given(st.lists(name_text, max_size=3), name_text.filter(str.strip))
    def test_each_author_is_written_as_by_one_search(self, given, surname):
        author = AuthorName(tuple(given), surname)
        assert refs.render._bibtex_author(author) == bibtex_author_by_one_search(author)

    def test_only_ascii_a_n_and_d_spell_and_in_any_case(self):
        # What lets _bibtex_author skip the "and" search when the lowercase text holds no
        # "and": no other character matches those letters under IGNORECASE, or lowercases
        # to one of them.
        code_points = array.array("I", itertools.chain(range(128, 0xD800), range(0xE000, 0x110000)))
        others = code_points.tobytes().decode("utf-32-le")
        assert re.search("[and]", others, re.IGNORECASE) is None
        assert re.search("[and]", others.lower()) is None

    def test_braced_surname_before_a_closing_brace_is_not_one_name(self):
        record = BibRecord(title="T", authors=[make_author("A}", "Smith, Jr")], year=2001)
        body = render_bibtex(RefEntry(records=[record])).body
        assert "author = {{Smith, Jr}, A\\textbraceright{}}," in body
        assert bibtex_to_record(body) == record

    @given(
        title=BIBTEX_RICH_TEXT,
        journal=BIBTEX_RICH_TEXT,
        names=st.lists(st.tuples(st.just("") | BIBTEX_RICH_TEXT, BIBTEX_RICH_TEXT),
                       min_size=1, max_size=3),
    )
    def test_specials_in_titles_journals_and_names_parse_back(self, title, journal, names):
        record = BibRecord(
            title=title,
            authors=[AuthorName(tuple(given.split(" ")) if given else (), surname)
                     for given, surname in names],
            journal=journal,
            year=2001,
        )
        body = render_bibtex(RefEntry(records=[record])).body
        assert bibtex_to_record(body) == record

    def test_a_no_break_space_in_a_name_parses_back(self):
        record = BibRecord(title="T", authors=[AuthorName(("A\u00a0B",), "van\u00a0Berg")])
        body = render_bibtex(RefEntry(records=[record])).body
        assert bibtex_to_record(body) == record

    def test_multi_record_keys_get_sublabels(self):
        entry = RefEntry(
            records=[
                BibRecord(title="A", authors=[make_author("A.", "Cee")], year=2001,
                          doi=parse_doi("10.1000/a")),
                BibRecord(title="B", authors=[make_author("A.", "Cee")], year=2001,
                          doi=parse_doi("10.1000/b")),
            ],
            global_id=8,
        )
        body = render_bibtex(entry).body
        assert "@article{Cee2001a," in body
        assert "@article{Cee2001b," in body

    def test_golden_corpus(self):
        bodies = "\n\n".join(render_bibtex(e).body for e in build_corpus_entries()) + "\n"
        assert bodies.encode("utf-8") == (GOLDEN_DIR / "bibtex_corpus.bib").read_bytes()


class TestRenderJson:
    def test_roundtrips_to_equal_entry(self):
        entry = full_entry(global_id=9, note="note body")
        loaded = entry_from_dict(json.loads(render_json(entry).body))
        assert loaded == entry

    def test_note_member_present(self):
        payload = json.loads(render_json(full_entry(note="important")).body)
        assert payload["note"] == "important"

    def test_deterministic(self):
        entry = full_entry(global_id=4)
        assert render_json(entry).body == render_json(entry).body

    def test_fixed_point(self):
        entry = full_entry(global_id=4, note="n")
        once = render_json(entry).body
        again = render_json(entry_from_dict(json.loads(once))).body
        assert once == again

    def test_no_trailing_whitespace(self):
        body = render_json(full_entry()).body
        assert not body.endswith(("\n", " "))
        assert not any(line != line.rstrip() for line in body.splitlines())

    @given(json_entries, st.none() | st.tuples(st.sampled_from(TEXT_FIELDS), ODD_VALUES))
    def test_bytes_match_the_stdlib_encoder(self, entry, odd):
        if odd is None:
            assert render_json(entry).body == json.dumps(json_object(entry), sort_keys=True,
                                                         ensure_ascii=False, indent=2)
        else:
            set_text_field(entry, *odd)
            with pytest.raises(TypeError):
                render_json(entry)

    @pytest.mark.parametrize("value", [None, 7, 1.5, True, (1, 2), b"x", {1: "a"}, {"a": [1.0]}])
    def test_a_title_that_is_not_text_is_refused(self, value):
        with pytest.raises(TypeError):
            render_json(RefEntry([BibRecord(title=value)]))

    @pytest.mark.parametrize("where", ["journal", "volume", "number", "publisher", "year",
                                       "given_name", "first_page", "last_page", "note",
                                       "global_id"])
    def test_a_float_anywhere_in_an_entry_is_refused(self, where):
        author = AuthorName((1.5,) if where == "given_name" else ("A.",), "B")
        pages = Pages(1.5 if where == "first_page" else "1", 1.5 if where == "last_page" else None)
        record = BibRecord(title="T", authors=[author], pages=pages)
        entry = RefEntry([record], note=1.5 if where == "note" else None, global_id=1)
        if where in ("journal", "volume", "number", "publisher", "year"):
            setattr(record, where, 1.5)
        if where == "global_id":
            entry.global_id = 1.5
        with pytest.raises(TypeError):
            render_json(entry)

    @pytest.mark.parametrize("where", TEXT_FIELDS)
    def test_an_int_in_a_text_field_is_refused(self, where):
        entry = RefEntry([BibRecord(title="T", authors=[make_author("A.", "B")])], global_id=1)
        set_text_field(entry, where, 7)
        with pytest.raises(TypeError):
            render_json(entry)

    def test_golden_corpus(self):
        bodies = "\n".join(render_json(e).body for e in build_corpus_entries()) + "\n"
        assert bodies.encode("utf-8") == (GOLDEN_DIR / "json_corpus.json").read_bytes()

    def test_the_bibcode_is_written_as_its_text(self):
        entry = full_entry()
        payload = json.loads(render_json(entry).body)
        record = payload["records"][0]
        assert record["bibcode"] == entry.records[0].bibcode.text
        assert record["ads_url"] == ADS_ABS_URL + record["bibcode"]
        assert render_bibtex(entry).body.startswith("@article{" + record["bibcode"] + ",")
        assert record["ads_url"] in render_html(entry).body
        assert record["ads_url"] in render_text(entry).body


class TestRenderText:
    def test_matches_stripped_html(self):
        entry = full_entry(global_id=3, note="Leading note.")
        html_body = render_html(entry).body
        # Independent de-markup oracle: anchors become their hrefs, tags drop,
        # entities decode.
        import html as html_mod

        stripped = re.sub(r'<a href="([^"]+)">\[[^\]]+\]</a>', r"\1", html_body)
        stripped = re.sub(r"</?(i|b)>", "", stripped)
        stripped = stripped.replace("<br>\n", "\n")
        stripped = html_mod.unescape(stripped)
        assert stripped == render_text(entry).body

    def test_no_double_spaces_without_journal(self):
        entry = RefEntry(
            records=[
                BibRecord(title="T", authors=[make_author("A.", "B")], year=2000,
                          doi=parse_doi("10.1000/x"))
            ]
        )
        assert "  " not in render_text(entry).body

    def test_note_precedes_authors(self):
        body = render_text(full_entry(note="The note.")).body
        assert body.index("The note.") < body.index("A. B. Cee")

    def test_links_are_bare_urls(self):
        body = render_text(full_entry()).body
        assert "https://doi.org/10.1000/x" in body
        assert "<a" not in body

    def test_golden_corpus(self):
        bodies = "\n".join(render_text(e).body for e in build_corpus_entries()) + "\n"
        golden = (GOLDEN_DIR / "text_corpus.txt").read_text(encoding="utf-8")
        assert bodies == golden


class TestCrossFormatConsistency:
    @pytest.mark.parametrize("renderer", [render_html, render_text, render_bibtex, render_json],
                             ids=["html", "text", "bibtex", "json"])
    @pytest.mark.parametrize("where", ["title", "journal", "volume", "number", "publisher", "note"])
    def test_a_text_field_that_is_not_text_is_a_type_error_in_every_format(self, where, renderer):
        # In the second record, so a renderer that checked only the first would pass it.
        entry = RefEntry([*full_entry().records, BibRecord(title="U", doi=parse_doi("10.1000/y"))],
                         note="n", global_id=2)
        set_text_field(entry, where, 7)
        with pytest.raises(TypeError):
            renderer(entry)

    def test_canonical_doi_embedded_in_every_format(self):
        entry = full_entry(global_id=2)
        doi = entry.records[0].doi.canonical
        for renderer in (render_html, render_json, render_bibtex, render_text):
            assert doi in renderer(entry).body
