"""Strict parsing, validation and formatting of DOIs and 19-character ADS bibcodes."""

from __future__ import annotations

import re
from urllib.parse import quote

from .errors import BibcodeFormatError, BibcodeLengthError, InvalidDoiError
from .values import Frozen, slot_setters

# A lone surrogate is not text: no request, store or file could carry it.
_DOI_RE = re.compile(r"^10\.[0-9]{4,9}/[^\s\ud800-\udfff]+\Z")

# Prefixes stripped from raw DOI input, longest first, matched case-insensitively.
_DOI_PREFIXES = ("https://doi.org/", "http://doi.org/", "doi.org/", "doi:")

BIBCODE_LENGTH = 19

ADS_ABS_URL = "https://ui.adsabs.harvard.edu/abs/"
DOI_URL_PREFIX = "https://doi.org/"

# The characters urllib.parse.quote never encodes.
_ALWAYS_SAFE = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~"


class Doi(Frozen):
    """A DOI in canonical form: lowercase, no URL scheme, no doi.org host."""

    __slots__ = ("canonical",)
    canonical: str

    def __init__(self, canonical: str) -> None:
        if not _DOI_RE.match(canonical):
            raise InvalidDoiError(f"not a valid canonical DOI: {canonical!r}")
        if canonical != canonical.lower():
            raise InvalidDoiError(f"canonical DOI must be lowercase: {canonical!r}")
        _set_canonical(self, canonical)

    def __str__(self) -> str:
        return self.canonical

    @property
    def url(self) -> str:
        return DOI_URL_PREFIX + self.canonical


(_set_canonical,) = slot_setters(Doi)


def parse_doi(raw: str) -> Doi:
    """Normalize a raw DOI string and validate its grammar.

    Strips the doi.org URL forms and the "doi:" prefix, then lowercases.
    Raises InvalidDoiError when the remainder does not match
    ``10.<4-9 digits>/<suffix>``.
    """
    if not raw or not raw.strip():
        raise InvalidDoiError("empty DOI string")
    text = raw.strip()
    lowered = text.lower()
    for prefix in _DOI_PREFIXES:
        if lowered.startswith(prefix):
            text = text[len(prefix):]
            break
    try:
        # Lowercasing is idempotent, so Doi can only refuse the grammar.
        return Doi(text.lower())
    except InvalidDoiError:
        raise InvalidDoiError(f"not a valid DOI: {raw!r}") from None


# Bibcode columns, 0-indexed half-open ranges into the 19-character string.
_YEAR = slice(0, 4)
_JOURNAL = slice(4, 9)
_VOLUME = slice(9, 13)
_QUALIFIER = 13
_PAGE = slice(14, 18)
_AUTHOR = 18


class Bibcode(Frozen):
    """One ADS bibcode, split into its fixed-width fields.

    The formatted form is always exactly 19 characters; empty positions are
    periods. A page longer than four characters spills into the qualifier
    column, in which case ``qualifier`` is None.
    """

    __slots__ = ("year", "journal", "volume", "page", "author_initial", "qualifier")
    year: int
    journal: str
    volume: str
    page: str
    author_initial: str
    qualifier: str | None

    def __init__(self, year: int, journal: str, volume: str, page: str, author_initial: str,
                 qualifier: str | None = None) -> None:
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
                raise BibcodeFormatError(
                    f"page {page!r} does not fit beside qualifier {qualifier!r}"
                )
        elif len(page) > 5:
            raise BibcodeFormatError(f"page too wide: {page!r}")
        if len(author_initial) != 1 or not (author_initial.isalpha() or author_initial == "."):
            raise BibcodeFormatError(f"author initial must be one letter or '.': {author_initial!r}")
        _set_year(self, year)
        _set_journal(self, journal)
        _set_volume(self, volume)
        _set_page(self, page)
        _set_author_initial(self, author_initial)
        _set_qualifier(self, qualifier)

    def __str__(self) -> str:
        return format_bibcode(self)

    @property
    def ads_url(self) -> str:
        """Link to the abstract page, with the bibcode percent-encoded."""
        return ads_abs_url(format_bibcode(self))


_set_year, _set_journal, _set_volume, _set_page, _set_author_initial, _set_qualifier = (
    slot_setters(Bibcode))


def parse_bibcode(raw: str) -> Bibcode:
    """Split a 19-character bibcode into its fields.

    Surrounding whitespace is tolerated. Period padding is stripped from
    each field: the journal is left-aligned, volume and page right-aligned.
    A digit in the qualifier column is read as the leading digit of a
    five-character page.
    """
    s = raw.strip()
    if len(s) != BIBCODE_LENGTH:
        raise BibcodeLengthError(f"bibcode must be {BIBCODE_LENGTH} characters, got {len(s)}: {raw!r}")
    year_text = s[_YEAR]
    if not (year_text.isascii() and year_text.isdigit()):
        raise BibcodeFormatError(f"bibcode year is not numeric: {year_text!r} in {s!r}")
    qualifier_char = s[_QUALIFIER]
    if qualifier_char in "0123456789":
        # Page overflow: the page starts in the qualifier column.
        qualifier = None
        page = s[_QUALIFIER:_PAGE.stop].lstrip(".")
    else:
        qualifier = None if qualifier_char == "." else qualifier_char
        page = s[_PAGE].lstrip(".")
    return Bibcode(int(year_text), s[_JOURNAL].rstrip("."), s[_VOLUME].lstrip("."), page,
                   s[_AUTHOR], qualifier)


def ads_abs_url(text: str) -> str:
    """The ADS abstract page of a formatted bibcode, with the bibcode percent-encoded."""
    if text.strip(_ALWAYS_SAFE):
        text = quote(text, safe="")
    return ADS_ABS_URL + text


def format_bibcode(b: Bibcode) -> str:
    """Emit the exact 19-character form of a bibcode."""
    page = b.page
    if b.qualifier is None and len(page) == 5:
        middle = page
    else:
        middle = (b.qualifier or ".") + page.rjust(4, ".")
    # Bibcode holds a year of four digits, so it needs no padding.
    out = f"{b.year}{b.journal.ljust(5, '.')}{b.volume.rjust(4, '.')}{middle}{b.author_initial}"
    if len(out) != BIBCODE_LENGTH:
        raise BibcodeFormatError(f"formatted bibcode is {len(out)} characters: {out!r}")
    return out
