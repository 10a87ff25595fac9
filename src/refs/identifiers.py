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
    """One ADS bibcode: its 19 characters, checked once, column by column.

    Empty positions are periods. The year is four ASCII digits, at least
    1000. The qualifier column holds a period, an alphanumeric character,
    or an ASCII digit that starts a five-character page. The author
    initial is a letter or a period. No column holds ``{``, ``}``, ``,``,
    whitespace or any other character that ``str.isprintable`` refuses,
    because the text is also the entry's BibTeX key. The fields are
    read-only properties of the columns, with the period padding stripped.
    """

    __slots__ = ("text",)
    text: str

    def __init__(self, text: str) -> None:
        if len(text) != BIBCODE_LENGTH:
            raise BibcodeLengthError(
                f"bibcode must be {BIBCODE_LENGTH} characters, got {len(text)}: {text!r}")
        year = text[_YEAR]
        if not (year.isascii() and year.isdigit()):
            raise BibcodeFormatError(f"bibcode year is not numeric: {year!r} in {text!r}")
        if year < "1000":
            raise BibcodeFormatError(f"bibcode year out of range: {int(year)}")
        qualifier = text[_QUALIFIER]
        if not (qualifier == "." or qualifier.isalnum()):
            raise BibcodeFormatError(
                f"qualifier must be one alphanumeric character: {qualifier!r}")
        author_initial = text[_AUTHOR]
        if not (author_initial.isalpha() or author_initial == "."):
            raise BibcodeFormatError(
                f"author initial must be one letter or '.': {author_initial!r}")
        if "{" in text or "}" in text or "," in text:
            raise BibcodeFormatError(
                f"bibcode holds '{{', '}}' or ',', which its BibTeX key cannot: {text!r}")
        if " " in text or not text.isprintable():
            raise BibcodeFormatError(
                f"bibcode holds whitespace or a control character, which its BibTeX key"
                f" cannot: {text!r}")
        _set_text(self, text)

    def __str__(self) -> str:
        return self.text

    year = property(lambda self: int(self.text[_YEAR]))
    journal = property(lambda self: self.text[_JOURNAL].rstrip("."))
    volume = property(lambda self: self.text[_VOLUME].lstrip("."))
    author_initial = property(lambda self: self.text[_AUTHOR])

    @property
    def qualifier(self) -> str | None:
        """None for a period, and for a digit that starts a five-character page."""
        qualifier = self.text[_QUALIFIER]
        return None if qualifier in ".0123456789" else qualifier

    @property
    def page(self) -> str:
        start = _QUALIFIER if self.text[_QUALIFIER] in "0123456789" else _PAGE.start
        return self.text[start:_PAGE.stop].lstrip(".")

    @property
    def ads_url(self) -> str:
        """Link to the abstract page, with the bibcode percent-encoded."""
        text = self.text
        if text.strip(_ALWAYS_SAFE):
            text = quote(text, safe="")
        return ADS_ABS_URL + text


(_set_text,) = slot_setters(Bibcode)


def parse_bibcode(raw: str) -> Bibcode:
    """A bibcode from its 19 characters; surrounding whitespace is tolerated."""
    text = raw.strip()
    if len(text) != BIBCODE_LENGTH:
        raise BibcodeLengthError(
            f"bibcode must be {BIBCODE_LENGTH} characters, got {len(text)}: {raw!r}")
    return Bibcode(text)
