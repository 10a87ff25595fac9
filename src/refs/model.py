"""Canonical bibliographic data model.

Every resolver populates these types and every renderer consumes them, so
nothing downstream needs to know which service a record came from.
"""

from __future__ import annotations

import enum
from typing import Any

from .errors import InvalidAuthorError, UnusableMetadataError
from .identifiers import Bibcode, Doi
from .values import Frozen, Value, slot_setters

MIN_YEAR = 1500
MAX_YEAR = 2999


class SourceType(str, enum.Enum):
    """Kind of cited work. Articles dominate, so they are the default."""

    ARTICLE = "article"
    BOOK = "book"
    PROCEEDINGS = "proceedings"
    THESIS = "thesis"
    REPORT = "report"
    PRIVATE_COMMUNICATION = "private-communication"
    UNPUBLISHED = "unpublished"
    OTHER = "other"


_SOURCE_TYPES = {t.value: t for t in SourceType}
_TEXT_OR_NULL = (str, type(None))


class AuthorName(Frozen):
    """One author, kept as given-name tokens plus surname.

    Initials are derived, never stored: the first letter of each given-name
    token, uppercased, with a trailing period. A name with no given-name
    tokens (a consortium, say) renders as the bare surname.
    """

    __slots__ = ("given_names", "surname")
    given_names: tuple[str, ...]
    surname: str

    def __init__(self, given_names: tuple[str, ...], surname: str) -> None:
        if not surname.strip():
            raise InvalidAuthorError("author surname must be non-empty")
        _set_given_names(self, given_names)
        _set_surname(self, surname)

    @property
    def initials(self) -> list[str]:
        out = []
        for token in self.given_names:
            letter = token[:1]
            if letter.isalpha() or (letter := next(filter(str.isalpha, token), "")):
                out.append(letter.upper() + ".")
        return out

    @property
    def formatted(self) -> str:
        """The display form: initials then surname, e.g. ``I. E. Gordon``."""
        parts = self.initials
        parts.append(self.surname)
        return " ".join(parts)


_set_given_names, _set_surname = slot_setters(AuthorName)


def make_author(raw_given: str, raw_surname: str) -> AuthorName:
    """Build an AuthorName from raw given-name and surname strings.

    Given names are split on whitespace and hyphens; each token contributes
    one initial. Raises InvalidAuthorError when the surname is blank.
    """
    surname = raw_surname.strip()
    if not surname:
        raise InvalidAuthorError(f"author surname must be non-empty (given={raw_given!r})")
    tokens = tuple(t for t in raw_given.replace("-", " ").split() if t)
    return AuthorName(given_names=tokens, surname=surname)


def format_pages(first: str, last: str | None = None) -> str:
    """Render a page range as ``first-last``, or just ``first``."""
    if not first:
        raise ValueError("first page must be non-empty")
    return f"{first}-{last}" if last else first


def sub_labels(n: int) -> list[str]:
    """Labels for the records nested under one entry.

    A single record carries no label; two or more get consecutive lowercase
    letters, continuing spreadsheet-style ("z", "aa", "ab", ...) past 26.
    """
    if n < 1:
        raise ValueError(f"record count must be >= 1, got {n}")
    if n == 1:
        return [""]
    return [_alpha_label(i) for i in range(1, n + 1)]


def _alpha_label(i: int) -> str:
    out = ""
    while i > 0:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


class Pages(Frozen):
    """First page plus an optional last page."""

    __slots__ = ("first", "last")
    first: str
    last: str | None

    def __init__(self, first: str, last: str | None = None) -> None:
        if not first:
            raise ValueError("first page must be non-empty")
        _set_first(self, first)
        _set_last(self, last)

    @property
    def formatted(self) -> str:
        return format_pages(self.first, self.last)


_set_first, _set_last = slot_setters(Pages)


class BibRecord(Value):
    """Source-independent metadata for one cited work.

    The title holds clean Unicode: HTML entities are decoded once, at the
    resolver boundary, never at render time. ``doi_url`` and ``ads_url``
    are read-only properties, derived from ``doi`` and ``bibcode`` on each
    read, and None without them. ``authors`` of None means an empty list.
    """

    __slots__ = ("title", "authors", "source_type", "journal", "volume", "number", "pages",
                 "year", "publisher", "doi", "bibcode")
    title: str
    authors: list[AuthorName]
    source_type: SourceType
    journal: str | None
    volume: str | None
    number: str | None
    pages: Pages | None
    year: int | None
    publisher: str | None
    doi: Doi | None
    bibcode: Bibcode | None

    def __init__(
        self,
        title: str = "",
        authors: list[AuthorName] | None = None,
        source_type: SourceType = SourceType.ARTICLE,
        journal: str | None = None,
        volume: str | None = None,
        number: str | None = None,
        pages: Pages | None = None,
        year: int | None = None,
        publisher: str | None = None,
        doi: Doi | None = None,
        bibcode: Bibcode | None = None,
    ) -> None:
        if year is not None and not MIN_YEAR <= year <= MAX_YEAR:
            raise UnusableMetadataError(f"year out of range [{MIN_YEAR}, {MAX_YEAR}]: {year}")
        self.title = title
        self.authors = [] if authors is None else authors
        self.source_type = source_type
        self.journal = journal
        self.volume = volume
        self.number = number
        self.pages = pages
        self.year = year
        self.publisher = publisher
        self.doi = doi
        self.bibcode = bibcode

    doi_url = property(lambda self: None if self.doi is None else self.doi.url)
    ads_url = property(lambda self: None if self.bibcode is None else self.bibcode.ads_url)


class RefEntry(Value):
    """One stored reference: an ID, one or more nested records, and a note.

    ``global_id`` is None until the store assigns one. Display labels are
    the ID concatenated with each record's sub-label, e.g. ``663a``.
    """

    __slots__ = ("records", "note", "global_id")
    records: list[BibRecord]
    note: str | None
    global_id: int | None

    def __init__(self, records: list[BibRecord], note: str | None = None,
                 global_id: int | None = None) -> None:
        if not records:
            raise ValueError("an entry needs at least one record")
        if global_id is not None and global_id < 1:
            raise ValueError(f"global_id must be positive, got {global_id}")
        self.records = records
        self.note = note
        self.global_id = global_id

    @property
    def sub_labels(self) -> list[str]:
        return sub_labels(len(self.records))

    @property
    def display_labels(self) -> list[str]:
        """Composite labels like ``["663a", "663b"]``, or ``[""]`` pre-store."""
        prefix = "" if self.global_id is None else str(self.global_id)
        return [prefix + sub for sub in self.sub_labels]


def entry_label(records: list[BibRecord]) -> str:
    """The label ``refs list`` prints: the first record's title, else its first author, else
    ``(untitled)``. The store writes it once, at add."""
    first = records[0]
    return first.title or (first.authors[0].formatted if first.authors else "(untitled)")


# --- row codec, the store's ``records`` column ------------------------------

def record_to_row(r: BibRecord) -> list[Any]:
    """A record as a list of its fields in constructor order, each as plain JSON data.

    Authors are ``[given_names, surname]``, the source type its value,
    pages ``[first, last]``, the DOI its canonical form and the bibcode its
    19 characters; an absent field is None. The row has no keys, so a new
    ``BibRecord`` field changes what a stored row means: it needs a new
    schema version, and a reader of today's rows in ``refs.migrations``.
    """
    pages, doi, bibcode = r.pages, r.doi, r.bibcode
    return [
        r.title, [[list(a.given_names), a.surname] for a in r.authors], r.source_type.value,
        r.journal, r.volume, r.number, None if pages is None else [pages.first, pages.last],
        r.year, r.publisher, None if doi is None else doi.canonical,
        None if bibcode is None else bibcode.text,
    ]


def record_from_row(row: list[Any]) -> BibRecord:
    """The record record_to_row wrote, built through every constructor check.

    Each field must hold the JSON type record_to_row writes: the title
    text; journal, volume, number and publisher text or null; pages null
    or ``[text, text or null]``; the year an int or null; authors a list,
    each author's given names a list of text. Any other type raises
    TypeError. The DOI goes straight to ``Doi``, which checks the grammar
    and the lowercase form that ``parse_doi`` would produce, and the
    bibcode to ``Bibcode``: neither is stored with text to strip.
    """
    title, authors, source_type, journal, volume, number, pages, year, publisher, doi, bibcode = row
    if not (title.__class__ is str and authors.__class__ is list
            and journal.__class__ in _TEXT_OR_NULL and volume.__class__ in _TEXT_OR_NULL
            and number.__class__ in _TEXT_OR_NULL and publisher.__class__ in _TEXT_OR_NULL
            and (year is None or year.__class__ is int)):
        raise TypeError("a field holds a JSON type that record_to_row does not write")
    try:
        source_type = _SOURCE_TYPES[source_type]
    except (KeyError, TypeError):
        source_type = SourceType(source_type)  # raises the enum's ValueError
    if pages is not None:
        first, last = pages if pages.__class__ is list else (None, None)
        if first.__class__ is not str or last.__class__ not in _TEXT_OR_NULL:
            raise TypeError(f"pages are not [text, text or null]: {pages!r}")
        pages = Pages(first, last)
    names = []
    for given, surname in authors:
        if given.__class__ is not list:
            raise TypeError(f"given names are not a list: {given!r}")
        "".join(given)  # raises TypeError unless every given name is text
        names.append(AuthorName(tuple(given), surname))
    return BibRecord(
        title, names, source_type, journal, volume, number, pages, year, publisher,
        None if doi is None else Doi(doi),
        None if bibcode is None else Bibcode(bibcode),
    )

