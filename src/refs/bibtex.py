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


def parse_entries(text: str) -> list[BibtexEntry]:
    """Tokenize every @-entry in the input, respecting nested braces."""
    entries = []
    i = 0
    n = len(text)
    while True:
        start = text.find("@", i)
        if start == -1:
            return entries
        entry, i = _parse_entry(text, start)
        entries.append(entry)


def _parse_entry(text: str, start: int) -> tuple[BibtexEntry, int]:
    n = len(text)
    i = start + 1
    type_start = i
    while i < n and (text[i].isalpha() or text[i] in "-_"):
        i += 1
    entry_type = text[type_start:i].lower()
    if not entry_type:
        raise BibtexParseError("expected an entry type after '@'", offset=start)
    while i < n and text[i].isspace():
        i += 1
    if i >= n or text[i] != "{":
        raise BibtexParseError(f"expected '{{' after @{entry_type}", offset=i)
    body_start = i + 1
    depth = 1
    i += 1
    while i < n and depth > 0:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    if depth != 0:
        raise BibtexParseError("unbalanced braces in entry", offset=start)
    body = text[body_start : i - 1]
    comma = body.find(",")
    if comma == -1:
        raise BibtexParseError("entry has no key separator comma", offset=body_start)
    key = body[:comma].strip()
    if not key:
        raise BibtexParseError("entry has an empty key", offset=body_start)
    fields = _parse_fields(body[comma + 1 :], body_start + comma + 1)
    return BibtexEntry(entry_type=entry_type, key=key, fields=fields, raw=text[start:i]), i


def _parse_fields(body: str, base_offset: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    i = 0
    n = len(body)
    while i < n:
        while i < n and (body[i].isspace() or body[i] == ","):
            i += 1
        if i >= n:
            break
        name_start = i
        while i < n and (body[i].isalnum() or body[i] in "-_"):
            i += 1
        name = body[name_start:i].lower()
        while i < n and body[i].isspace():
            i += 1
        if not name or i >= n or body[i] != "=":
            raise BibtexParseError("malformed field assignment", offset=base_offset + name_start)
        i += 1
        while i < n and body[i].isspace():
            i += 1
        value, i = _parse_value(body, i, base_offset)
        fields[name] = value
    return fields


def _parse_value(body: str, i: int, base_offset: int) -> tuple[str, int]:
    n = len(body)
    if i >= n:
        return "", i
    ch = body[i]
    if ch == "{":
        depth = 1
        start = i + 1
        i += 1
        while i < n and depth > 0:
            if body[i] == "{":
                depth += 1
            elif body[i] == "}":
                depth -= 1
            i += 1
        if depth != 0:
            raise BibtexParseError("unbalanced braces in field value", offset=base_offset + start - 1)
        return body[start : i - 1], i
    if ch == '"':
        start = i + 1
        i += 1
        while i < n and body[i] != '"':
            i += 1
        if i >= n:
            raise BibtexParseError("unterminated quoted value", offset=base_offset + start - 1)
        return body[start:i], i + 1
    start = i
    while i < n and body[i] not in ",\n":
        i += 1
    return body[start:i].strip(), i


def split_authors(raw: str) -> list[str]:
    """Split an author field on `` and `` at brace depth zero."""
    parts = []
    depth = 0
    current = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if depth == 0 and raw.startswith(" and ", i):
            parts.append("".join(current))
            current = []
            i += 5
            continue
        current.append(ch)
        i += 1
    parts.append("".join(current))
    return [p.strip(_SPACE) for p in parts if p.strip(_SPACE)]


def _top_level_comma(name: str) -> int:
    """Index of the first comma outside braces, or -1."""
    depth = 0
    for i, ch in enumerate(name):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            return i
    return -1


def _is_one_group(name: str) -> bool:
    """Whether the brace that opens name is the one that closes it."""
    depth = 0
    for i, ch in enumerate(name):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i == len(name) - 1
    return False


def _author_from_bibtex(name: str) -> AuthorName:
    """One name of an author field: as make_author reads it, but words are split
    only where BibTeX splits them, at its own whitespace and at hyphens."""
    stripped = name.strip(_SPACE)
    if stripped.startswith("{") and _is_one_group(stripped):
        # Braced whole, like "{HITRAN Collaboration}": a surname alone.
        return AuthorName(given_names=(), surname=clean_value(stripped))
    comma = _top_level_comma(stripped)
    if comma != -1:
        given, surname = clean_value(stripped[comma + 1 :]), clean_value(stripped[:comma])
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
