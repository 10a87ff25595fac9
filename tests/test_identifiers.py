"""DOI and bibcode grammar tests."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, strategies as st

from urllib.parse import quote

from refs import (
    Bibcode,
    BibcodeError,
    BibcodeFormatError,
    BibcodeLengthError,
    Doi,
    InvalidDoiError,
    parse_bibcode,
    parse_doi,
)
from refs.identifiers import (
    _AUTHOR, _DOI_PREFIXES, _DOI_RE, _JOURNAL, _PAGE, _QUALIFIER, _VOLUME, _YEAR, ADS_ABS_URL,
    BIBCODE_LENGTH,
)

from strategies import (
    KEY_BREAKERS, accepted_bibcodes, accepted_dois, bibcodes_with_a_key_breaker, doi_texts,
    text_around, valid_bibcodes,
)

EXAMPLE = "2017JQSRT.203....3G"


def parse_doi_checking_twice(raw: str) -> Doi:
    """parse_doi as first written: the grammar checked here, then again by Doi."""
    if not raw or not raw.strip():
        raise InvalidDoiError("empty DOI string")
    text = raw.strip()
    lowered = text.lower()
    for prefix in _DOI_PREFIXES:
        if lowered.startswith(prefix):
            text = text[len(prefix):]
            break
    canonical = text.lower()
    if not _DOI_RE.match(canonical):
        raise InvalidDoiError(f"not a valid DOI: {raw!r}")
    return Doi(canonical)


def outcome(parse, raw: str):
    try:
        return parse(raw)
    except InvalidDoiError as exc:
        return str(exc)


def parse_bibcode_by_fields(raw: str) -> tuple:
    """parse_bibcode as it was while Bibcode held six fields: the text split into
    (year, journal, volume, qualifier, page, author_initial), each field checked as that
    constructor checked it, in its order."""
    s = raw.strip()
    if len(s) != BIBCODE_LENGTH:
        raise BibcodeLengthError(f"bibcode must be {BIBCODE_LENGTH} characters, got {len(s)}: {raw!r}")
    year_text = s[_YEAR]
    if not all(c in "0123456789" for c in year_text):
        raise BibcodeFormatError(f"bibcode year is not numeric: {year_text!r} in {s!r}")
    qualifier_char = s[_QUALIFIER]
    if qualifier_char in "0123456789":
        qualifier = None
        page = s[_QUALIFIER:_PAGE.stop].lstrip(".")
    else:
        qualifier = None if qualifier_char == "." else qualifier_char
        page = s[_PAGE].lstrip(".")
    year, journal, volume, author_initial = (
        int(year_text), s[_JOURNAL].rstrip("."), s[_VOLUME].lstrip("."), s[_AUTHOR])
    if not 1000 <= year <= 9999:
        raise BibcodeFormatError(f"bibcode year out of range: {year}")
    if len(journal) > 5:
        raise BibcodeFormatError(f"journal abbreviation too wide: {journal!r}")
    if len(volume) > 4:
        raise BibcodeFormatError(f"volume too wide: {volume!r}")
    if qualifier is not None:
        if len(qualifier) != 1 or not qualifier.isalnum():
            raise BibcodeFormatError(f"qualifier must be one alphanumeric character: {qualifier!r}")
        if len(page) > 4:
            raise BibcodeFormatError(f"page {page!r} does not fit beside qualifier {qualifier!r}")
    elif len(page) > 5:
        raise BibcodeFormatError(f"page too wide: {page!r}")
    if len(author_initial) != 1 or not (author_initial.isalpha() or author_initial == "."):
        raise BibcodeFormatError(f"author initial must be one letter or '.': {author_initial!r}")
    return year, journal, volume, qualifier, page, author_initial


def format_bibcode_by_fields(fields: tuple) -> str:
    """A bibcode's text as it was joined while Bibcode held six fields, each padded."""
    year, journal, volume, qualifier, page, author_initial = fields
    if qualifier is None and len(page) == 5:
        middle = page
    else:
        middle = (qualifier or ".") + page.rjust(4, ".")
    return f"{year}{journal.ljust(5, '.')}{volume.rjust(4, '.')}{middle}{author_initial}"


def bibcode_outcome(parse, raw: str):
    try:
        return parse(raw)
    except BibcodeError as exc:
        return type(exc), str(exc)


class TestParseDoi:
    def test_strips_url_prefix_and_lowercases(self):
        doi = parse_doi("https://doi.org/10.1016/J.JQSRT.2017.06.038")
        assert doi.canonical == "10.1016/j.jqsrt.2017.06.038"

    @pytest.mark.parametrize(
        "raw",
        [
            "http://doi.org/10.1000/x",
            "doi.org/10.1000/x",
            "doi:10.1000/x",
            "DOI:10.1000/x",
            "  10.1000/x  ",
        ],
    )
    def test_prefix_variants(self, raw):
        assert parse_doi(raw).canonical == "10.1000/x"

    def test_already_canonical_is_identity(self):
        assert parse_doi("10.1000/x").canonical == "10.1000/x"

    @pytest.mark.parametrize("raw", ["not-a-doi", "", "10./x", "10.12/x", "10.1234/", "11.1234/x"])
    def test_rejections(self, raw):
        with pytest.raises(InvalidDoiError):
            parse_doi(raw)

    def test_error_names_the_input(self):
        with pytest.raises(InvalidDoiError, match="not-a-doi"):
            parse_doi("not-a-doi")

    def test_url_property(self):
        assert parse_doi("10.1000/x").url == "https://doi.org/10.1000/x"

    @given(doi_texts())
    def test_idempotent(self, raw):
        first = parse_doi(raw)
        assert parse_doi(first.canonical).canonical == first.canonical

    @given(accepted_dois())
    def test_idempotent_on_its_own_output(self, doi):
        assert parse_doi(doi.canonical) == doi

    @pytest.mark.parametrize("raw", ["10.1000/\ud800", "10.1000/a\udfffb", "\udc80"])
    def test_a_lone_surrogate_is_refused(self, raw):
        with pytest.raises(InvalidDoiError, match="not a valid DOI"):
            parse_doi(raw)

    def test_a_canonical_doi_ends_at_its_last_character(self):
        # "$" also matches before a final line break; the store's DOI-set key joins DOIs
        # with spaces, so no DOI may hold whitespace.
        with pytest.raises(InvalidDoiError, match="not a valid canonical DOI"):
            Doi("10.1000/abc\n")

    @given(
        st.tuples(
            st.sampled_from(["", " ", "doi:", "DOI:", "https://doi.org/", "HTTP://DOI.ORG/"]),
            st.sampled_from(["10.", "10.1", "11.", ""]),
            st.text("0123456789", max_size=10),
            st.sampled_from(["/", "", "//"]),
            text_around("aZ/. \t\"", 4),
        ).map("".join)
        | st.text()
    )
    def test_accepts_and_refuses_as_checking_twice(self, raw):
        assert outcome(parse_doi, raw) == outcome(parse_doi_checking_twice, raw)


class TestParseBibcode:
    def test_journal_example(self):
        b = parse_bibcode(EXAMPLE)
        assert b.year == 2017
        assert b.journal == "JQSRT"
        assert b.volume == "203"
        assert b.qualifier is None
        assert b.page == "3"
        assert b.author_initial == "G"

    def test_trailing_whitespace_tolerated(self):
        assert parse_bibcode(EXAMPLE + " ") == parse_bibcode(EXAMPLE)

    def test_full_width_roundtrip(self):
        raw = "1111AAAAA1111A1111A"
        b = parse_bibcode(raw)
        assert (b.journal, b.volume, b.qualifier, b.page) == ("AAAAA", "1111", "A", "1111")
        assert b.text == raw

    def test_wrong_length(self):
        with pytest.raises(BibcodeLengthError):
            parse_bibcode(EXAMPLE[:-1])

    def test_non_digit_year(self):
        with pytest.raises(BibcodeFormatError):
            parse_bibcode("20x7JQSRT.203....3G")

    def test_a_digit_in_the_author_column_is_refused(self):
        with pytest.raises(BibcodeFormatError,
                           match="^author initial must be one letter or '.': '3'$"):
            parse_bibcode("2017JQSRT.203....33")

    def test_page_overflow_uses_qualifier_column(self):
        b = parse_bibcode("2017ApJ...85510234S")
        assert b.qualifier is None
        assert b.page == "10234"
        assert b.text == "2017ApJ...85510234S"

    def test_letter_qualifier(self):
        b = parse_bibcode("1975ApJ...199L..19T")
        assert b.qualifier == "L"
        assert b.page == "19"


class TestFormatBibcode:
    def test_paper_example_roundtrip(self):
        assert parse_bibcode(EXAMPLE).text == EXAMPLE

    def test_the_text_is_kept_and_the_fields_drop_the_padding(self):
        b = Bibcode("2000A.......1....1X")
        assert b.text == str(b) == "2000A.......1....1X"
        assert (b.journal, b.volume, b.qualifier, b.page) == ("A", "1", None, "1")

    @pytest.mark.parametrize("text", [EXAMPLE[:-1], " " + EXAMPLE, EXAMPLE + "\n"])
    def test_the_constructor_takes_exactly_19_characters(self, text):
        with pytest.raises(BibcodeLengthError, match=f"got {len(text)}"):
            Bibcode(text)

    def test_the_qualifier_must_be_alphanumeric(self):
        with pytest.raises(BibcodeFormatError, match="qualifier must be one alphanumeric"):
            Bibcode("2000A.......1-...1X")

    def test_the_year_must_be_at_least_1000(self):
        with pytest.raises(BibcodeFormatError, match="bibcode year out of range: 999"):
            Bibcode("0999A.......1....1X")

    # KEY_BREAKERS, then a space and characters str.isprintable refuses: a tab, a line
    # break, U+00A0, U+2028, a NUL and a soft hyphen.
    @pytest.mark.parametrize("breaker", KEY_BREAKERS + " \t\n\u00a0\u2028\x00\u00ad")
    def test_a_character_that_breaks_its_bibtex_key_is_refused(self, breaker):
        with pytest.raises(BibcodeFormatError, match="which its BibTeX key cannot"):
            parse_bibcode(f"2017JQ{breaker}RT.203....3G")


class TestAdsUrl:
    def test_journal_with_an_ampersand_is_encoded(self):
        assert parse_bibcode("2019A&A...625A..13S").ads_url == ADS_ABS_URL + "2019A%26A...625A..13S"

    @given(valid_bibcodes() | accepted_bibcodes())
    def test_matches_quoting_every_bibcode(self, text):
        bibcode = Bibcode(text)
        assert bibcode.ads_url == ADS_ABS_URL + quote(text, safe="")


# Digits, ASCII letters, periods, whitespace, the characters a BibTeX key
# cannot hold, and characters that are digits to str.isdigit but not ASCII:
# Arabic-Indic and Devanagari digits, and a superscript two, which int() refuses.
BIBCODE_CHARS = string.digits + string.ascii_letters + ". \t\n\u00a0\u0663\u0969\u00b2" + KEY_BREAKERS


@st.composite
def bibcode_like(draw) -> str:
    """A valid bibcode with up to four characters replaced, maybe padded with whitespace."""
    chars = list(draw(valid_bibcodes()))
    for i in draw(st.lists(st.integers(0, BIBCODE_LENGTH - 1), max_size=4)):
        chars[i] = draw(st.sampled_from(BIBCODE_CHARS))
    pad = st.text(" \t\n", max_size=2)
    return draw(pad) + "".join(chars) + draw(pad)


class TestParseBibcodeProperty:
    @given(bibcode_like() | st.text(BIBCODE_CHARS, min_size=BIBCODE_LENGTH,
                                     max_size=BIBCODE_LENGTH)
           | accepted_bibcodes() | bibcodes_with_a_key_breaker())
    def test_accepts_refuses_and_splits_as_first_written(self, raw):
        """The one-field Bibcode against the six-field parser it replaced: the same
        verdicts, messages and fields, except that it also refuses KEY_BREAKERS, then
        whitespace and control characters inside the 19."""
        ours, reference = (bibcode_outcome(parse_bibcode, raw),
                           bibcode_outcome(parse_bibcode_by_fields, raw))
        refused = isinstance(reference[0], type)  # (error type, message), else the fields
        text = raw.strip()
        if not refused and set(KEY_BREAKERS) & set(raw):
            reference = (BibcodeFormatError, "bibcode holds '{', '}' or ',', which its"
                         f" BibTeX key cannot: {text!r}")
        elif not refused and (" " in text or not text.isprintable()):
            reference = (BibcodeFormatError, "bibcode holds whitespace or a control"
                         f" character, which its BibTeX key cannot: {text!r}")
        elif not refused:
            assert format_bibcode_by_fields(reference) == ours.text == raw.strip()
            ours = (ours.year, ours.journal, ours.volume, ours.qualifier, ours.page,
                    ours.author_initial)
        assert ours == reference


class TestRoundtripProperty:
    @given(valid_bibcodes())
    def test_format_after_parse_is_identity(self, raw):
        assert parse_bibcode(raw).text == raw

    @given(valid_bibcodes())
    def test_parse_twice_is_stable(self, raw):
        b = parse_bibcode(raw)
        assert parse_bibcode(b.text) == b
