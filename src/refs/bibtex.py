"""Brace-aware BibTeX tokenizer, plus the mapping from one entry to a BibRecord."""

from __future__ import annotations

import html
import re

from .errors import BibcodeError, BibtexCardinalityError, BibtexParseError, InvalidDoiError
from .identifiers import parse_bibcode, parse_doi
from .model import AuthorName, BibRecord, Pages, SourceType
from .values import Frozen, slot_setters

_ENTRY_TYPE_MAP = {
    "article": SourceType.ARTICLE,
    "book": SourceType.BOOK,
    "inbook": SourceType.BOOK,
    "inproceedings": SourceType.PROCEEDINGS,
    "proceedings": SourceType.PROCEEDINGS,
    "conference": SourceType.PROCEEDINGS,
    "phdthesis": SourceType.THESIS,
    "mastersthesis": SourceType.THESIS,
    "techreport": SourceType.REPORT,
    "unpublished": SourceType.UNPUBLISHED,
}

# render.escape_value's escapes, plus the ``\{`` and ``\}`` that doi.org writes.
_ESCAPE = r"\\text(backslash|braceleft|braceright)\{\}|\\([{}%&$#_])"
# An escape; an HTML character reference, spelled as html.unescape reads
# one but not across a brace or backslash; or a brace outside both: case
# protection, which is dropped. A ``\&`` is an escape, so the text after
# it is never read as a reference.
_CLEAN_RE = re.compile(
    _ESCAPE + r"|(&(?:#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;{}\\]{1,32};?))|[{}]"
)
_TEXT_COMMANDS = {"backslash": "\\", "braceleft": "{", "braceright": "}"}
# BibTeX separates words only with these; a U+00A0 or U+2009 is part of a word.
_SPACE = " \t\r\n"
_SPACE_RUN_RE = re.compile(f"[{_SPACE}]+")
_PAGE_RANGE_RE = re.compile(r"\s*(?:--|–|—|-)\s*")
_YEAR_RE = re.compile(r"\d{4}")
_BRACE_RE = re.compile("[{}]")
# What _find_outside_braces looks for, in group 1, or else a "{" whose group it
# skips. BibTeX splits authors on "and" in any case, between its whitespace.
_AND_RE = re.compile(rf"([{_SPACE}]+(?i:and)(?=[{_SPACE}]))|\{{")
_COMMA_RE = re.compile(r"(,)|\{")
_QUOTE_RE = re.compile(r'(")|\{')
# The parts of an entry between its values.
_WHITESPACE_RE = re.compile(r"\s*")
_FIELD_GAP_RE = re.compile(r"[\s,]*")
_ASSIGNMENT_RE = re.compile(r"([\w-]+)\s*=\s*")
_BARE_VALUE_RE = re.compile(r"[^,\n]*")


class BibtexEntry(Frozen):
    """One ``@type{key, ...}`` block with raw (still escaped) field values."""

    __slots__ = ("entry_type", "key", "fields", "raw")
    entry_type: str
    key: str
    fields: dict[str, str]
    raw: str

    def __init__(self, entry_type: str, key: str, fields: dict[str, str], raw: str = "") -> None:
        _set_entry_type(self, entry_type)
        _set_key(self, key)
        _set_fields(self, fields)
        _set_raw(self, raw)


_set_entry_type, _set_key, _set_fields, _set_raw = slot_setters(BibtexEntry)


def _unescaped(match: re.Match) -> str:
    command, char = match.group(1, 2)
    if command:
        return _TEXT_COMMANDS[command]
    return char or ""


def _cleaned(match: re.Match) -> str:
    reference = match.group(3)
    return html.unescape(reference) if reference else _unescaped(match)


def clean_value(raw: str) -> str:
    """Turn a raw field value into model text.

    Case-protection braces are dropped, escapes resolved, HTML character
    references decoded unless an escaped ``\\&`` starts them, and
    line-wrapped whitespace collapsed to single spaces.
    """
    return _SPACE_RUN_RE.sub(" ", _CLEAN_RE.sub(_cleaned, raw)).strip(" ")


def _group_end(text: str, opening: int, end: int) -> int:
    """The index just past the "}" that closes a "{" at ``opening``: -1 if none
    does before ``end``, ``opening`` if no "{" is there. Only this counts depth."""
    if not text.startswith("{", opening, end):
        return opening
    depth = 0
    for brace in _BRACE_RE.finditer(text, opening, end):
        depth += 1 if brace.group() == "{" else -1
        if not depth:
            return brace.end()
    return -1


def _find_outside_braces(text: str, sought: re.Pattern, pos: int, end: int) -> re.Match | None:
    """The first match of ``sought`` from ``pos`` to ``end`` that no brace group holds.

    ``sought`` matches what is looked for in its group 1, or else a "{", whose
    group is skipped whole; a "{" that nothing closes ends the search.
    """
    while (match := sought.search(text, pos, end)) and match.group(1) is None:
        pos = _group_end(text, match.start(), end)
        if pos < 0:
            return None
    return match


def parse_entries(text: str) -> list[BibtexEntry]:
    """Tokenize every @-entry in the input, respecting nested braces."""
    entries = []
    start = text.find("@")
    while start != -1:
        entries.append(_parse_entry(text, start))
        start = text.find("@", start + len(entries[-1].raw))
    return entries


def _parse_entry(text: str, start: int) -> BibtexEntry:
    i = start + 1
    while i < len(text) and (text[i].isalpha() or text[i] in "-_"):
        i += 1
    entry_type = text[start + 1 : i].lower()
    if not entry_type:
        raise BibtexParseError("expected an entry type after '@'", offset=start)
    i = _WHITESPACE_RE.match(text, i).end()
    end = _group_end(text, i, len(text))
    if end == i:
        raise BibtexParseError(f"expected '{{' after @{entry_type}", offset=i)
    if end < 0:
        raise BibtexParseError("unbalanced braces in entry", offset=start)
    comma = text.find(",", i + 1, end - 1)
    if comma == -1:
        raise BibtexParseError("entry has no key separator comma", offset=i + 1)
    key = text[i + 1 : comma].strip()
    if not key:
        raise BibtexParseError("entry has an empty key", offset=i + 1)
    fields = _parse_fields(text, comma + 1, end - 1)
    return BibtexEntry(entry_type=entry_type, key=key, fields=fields, raw=text[start:end])


def _parse_fields(text: str, i: int, end: int) -> dict[str, str]:
    """The ``name = value`` pairs from ``i`` to ``end``, where their entry closes."""
    fields: dict[str, str] = {}
    while (i := _FIELD_GAP_RE.match(text, i, end).end()) < end:
        assignment = _ASSIGNMENT_RE.match(text, i, end)
        if not assignment:
            raise BibtexParseError("malformed field assignment", offset=i)
        value, i = _parse_value(text, assignment.end(), end)
        fields[assignment.group(1).lower()] = value
    return fields


def _parse_value(text: str, i: int, end: int) -> tuple[str, int]:
    """A braced, quoted or bare value at ``i``, and the index past it. A braced
    value always closes, as every brace in a balanced entry does; in a quoted
    value, a '"' inside braces is text."""
    close = _group_end(text, i, end)
    if close > i:
        return text[i + 1 : close - 1], close
    if text.startswith('"', i, end):
        quote = _find_outside_braces(text, _QUOTE_RE, i + 1, end)
        if quote is None:
            raise BibtexParseError("unterminated quoted value", offset=i)
        return text[i + 1 : quote.start()], quote.end()
    bare = _BARE_VALUE_RE.match(text, i, end)
    return bare.group().strip(), bare.end()


def split_authors(raw: str) -> list[str]:
    """Split an author field on the word ``and``, in any case, between runs of
    BibTeX whitespace at brace depth zero."""
    parts = []
    start = 0
    while separator := _find_outside_braces(raw, _AND_RE, start, len(raw)):
        parts.append(raw[start : separator.start()])
        start = separator.end()
    parts.append(raw[start:])
    return [p.strip(_SPACE) for p in parts if p.strip(_SPACE)]


def _author_from_bibtex(name: str) -> AuthorName:
    """One name of an author field: as make_author reads it, but words are split
    only where BibTeX splits them, at its own whitespace and at hyphens."""
    stripped = name.strip(_SPACE)
    if stripped and _group_end(stripped, 0, len(stripped)) == len(stripped):
        # Braced whole, like "{HITRAN Collaboration}": a surname alone.
        return AuthorName(given_names=(), surname=clean_value(stripped))
    cut = _find_outside_braces(stripped, _COMMA_RE, 0, len(stripped))
    if cut:
        given, surname = clean_value(stripped[cut.end() :]), clean_value(stripped[: cut.start()])
    else:
        given, _, surname = clean_value(stripped).rpartition(" ")
    return AuthorName(tuple(filter(None, given.replace("-", " ").split(" "))), surname)


def split_page_range(value: str) -> Pages | None:
    """Read a page spec like ``3-69``, ``306--312`` or plain ``7``."""
    text = value.strip()
    if not text:
        return None
    parts = _PAGE_RANGE_RE.split(text, maxsplit=1)
    if len(parts) == 2 and parts[0] and parts[1]:
        return Pages(first=parts[0], last=parts[1])
    return Pages(first=text)


def bibtex_to_record(raw: str) -> BibRecord:
    """Parse a string holding exactly one BibTeX entry into a BibRecord.

    The entry key doubles as the bibcode when it parses as one; an ADS
    export is keyed that way. Raises BibtexCardinalityError unless the
    input holds exactly one entry.
    """
    entries = parse_entries(raw)
    if len(entries) != 1:
        raise BibtexCardinalityError(f"expected exactly one BibTeX entry, found {len(entries)}")
    entry = entries[0]

    doi = None
    if entry.fields.get("doi"):
        try:
            doi = parse_doi(clean_value(entry.fields["doi"]))
        except InvalidDoiError:
            doi = None
    bibcode = None
    try:
        bibcode = parse_bibcode(entry.key)
    except BibcodeError:
        pass

    year = None
    if entry.fields.get("year"):
        match = _YEAR_RE.search(entry.fields["year"])
        if match:
            year = int(match.group())

    authors = [_author_from_bibtex(a) for a in split_authors(entry.fields.get("author", ""))]

    return BibRecord(
        title=clean_value(entry.fields.get("title", "")),
        authors=authors,
        source_type=_ENTRY_TYPE_MAP.get(entry.entry_type, SourceType.OTHER),
        journal=clean_value(entry.fields["journal"]) if entry.fields.get("journal") else None,
        volume=clean_value(entry.fields["volume"]) if entry.fields.get("volume") else None,
        number=clean_value(entry.fields["number"]) if entry.fields.get("number") else None,
        pages=split_page_range(clean_value(entry.fields.get("pages", ""))),
        year=year,
        publisher=clean_value(entry.fields["publisher"]) if entry.fields.get("publisher") else None,
        doi=doi,
        bibcode=bibcode,
    )
