"""House output formats: HTML, BibTeX, JSON and plain text.

Field order follows one fixed citation shape: note, authors, quoted title,
italic journal, bold volume, pages, year in parentheses, then the DOI and
ADS hyperlinks. The golden files under tests/ are the byte-level authority
for the exact punctuation.

Every renderer raises TypeError for a title that is not text, or a note,
journal, volume, number or publisher that is neither text nor None, whether
or not its format prints that field.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring
from typing import Iterable

from .errors import UnrenderableError
from .formats import RenderedCitation, RenderFormat
from .model import AuthorName, BibRecord, RefEntry, SourceType, format_pages

_BIBTEX_TYPE = {
    SourceType.ARTICLE: "article",
    SourceType.BOOK: "book",
    SourceType.PROCEEDINGS: "inproceedings",
    SourceType.THESIS: "phdthesis",
    SourceType.REPORT: "techreport",
    SourceType.PRIVATE_COMMUNICATION: "unpublished",
    SourceType.UNPUBLISHED: "unpublished",
    SourceType.OTHER: "misc",
}

# A source type's JSON string, read without the enum's Python-level ``value`` property.
_JSON_SOURCE_TYPE = {t: encode_basestring(t.value) for t in SourceType}

_BIBTEX_KEY_JUNK = re.compile(r"[\s{},\"\\]+")

# Characters with special meaning in BibTeX/LaTeX values and their escapes.
# Braces become text commands: BibTeX counts even an escaped brace when it
# balances a value's braces.
_VALUE_ESCAPES = {
    "\\": r"\textbackslash{}",
    "{": r"\textbraceleft{}",
    "}": r"\textbraceright{}",
    "%": r"\%",
    "&": r"\&",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
}
_VALUE_ESCAPE_TABLE = str.maketrans(_VALUE_ESCAPES)
_VALUE_SPECIAL = re.compile("[" + re.escape("".join(_VALUE_ESCAPES)) + "]")
# The word BibTeX splits an author list on, in any case. Under IGNORECASE only
# ASCII a, n and d match its letters, and no other character lowercases to one,
# so text whose lowercase form holds no "and" cannot match it.
_AND_WORD = re.compile(r"(?:^|\s)and(?:\s|$)", re.IGNORECASE)
# Besides an "and" word, what makes _bibtex_author escape or brace a name part.
_NAME_SPECIAL = re.compile("[," + re.escape("".join(_VALUE_ESCAPES)) + "]")
_TEXT_OR_NONE = (str, type(None))


def _check_text(entry: RefEntry) -> None:
    """The module's type rule, which the JSON writer's escaper keeps by itself."""
    note = entry.note
    for r in entry.records:
        if not (isinstance(r.title, str) and isinstance(note, _TEXT_OR_NONE)
                and isinstance(r.journal, _TEXT_OR_NONE) and isinstance(r.volume, _TEXT_OR_NONE)
                and isinstance(r.number, _TEXT_OR_NONE)
                and isinstance(r.publisher, _TEXT_OR_NONE)):
            raise TypeError("a title, journal, volume, number, publisher or note is not text")


def escape_html(raw: str) -> str:
    """Apply exactly five entity mappings, ampersand first.

    & < " ' > become &amp; &lt; &quot; &#x27; &gt;. Every other character
    passes through unchanged.
    """
    out = raw.replace("&", "&amp;")
    out = out.replace("<", "&lt;")
    out = out.replace('"', "&quot;")
    out = out.replace("'", "&#x27;")
    return out.replace(">", "&gt;")


def _citation_line(record: BibRecord, note: str | None, markup: bool) -> str:
    """One citation line, either HTML (markup=True) or plain text."""
    esc = escape_html if markup else str
    authors, title, journal, volume, pages, year = (
        record.authors, record.title, record.journal, record.volume, record.pages, record.year)
    if not (authors or title or journal or volume or pages or year):
        raise UnrenderableError()

    segments = []
    if authors:
        # One escape for the list: ", " holds nothing escape_html changes.
        segments.append(esc(", ".join([a.formatted for a in authors])))
    if title:
        segments.append("&quot;" + esc(title) + "&quot;" if markup else '"' + title + '"')
    if markup:
        journal = journal and f"<i>{esc(journal)}</i>"
        volume = volume and f"<b>{esc(volume)}</b>"
    if journal and volume:
        segments.append(journal + " " + volume)
    elif journal or volume:
        segments.append(journal or volume)
    if pages:
        segments.append(esc(format_pages(pages.first, pages.last)))

    year_text = str(year) if year is not None else "n.d."
    line = f"{', '.join(segments)} ({year_text})." if segments else f"({year_text})."

    if (doi := record.doi) is not None:
        line += f' <a href="{esc(doi.url)}">[link]</a>' if markup else " " + doi.url
    if (bibcode := record.bibcode) is not None:
        # Percent-encoded, so it holds nothing escape_html would change.
        ads_url = bibcode.ads_url
        line += f' <a href="{ads_url}">[ADS]</a>' if markup else " " + ads_url

    if note:
        line = f"{esc(note)} {line}"
    return line


def _entry_body(entry: RefEntry, markup: bool, label: str) -> str:
    """Each record's citation line, prefixed ``<label><sub-label>. `` once stored."""
    _check_text(entry)
    records = entry.records
    if len(records) == 1:  # most entries: no sub-label to number
        line = _citation_line(records[0], entry.note, markup)
        return f"{label}. {line}" if label else line
    lines = []
    for i, (record, sub) in enumerate(zip(records, entry.sub_labels)):
        line = _citation_line(record, entry.note if i == 0 else None, markup)
        lines.append(f"{label}{sub}. {line}" if label else line)
    return ("<br>\n" if markup else "\n").join(lines)


def _label(entry: RefEntry) -> str:
    return "" if entry.global_id is None else str(entry.global_id)


def render_html(entry: RefEntry) -> RenderedCitation:
    """Render every nested record as one HTML line; the note leads the first.

    All free text goes through escape_html; only the <i>/<b>/<a> tags and
    the label punctuation are emitted raw.
    """
    label = _label(entry)
    return RenderedCitation(RenderFormat.HTML, _entry_body(entry, True, label), label)


def render_text(entry: RefEntry) -> RenderedCitation:
    """Same field order as HTML with markup stripped and links as bare URLs."""
    label = _label(entry)
    return RenderedCitation(RenderFormat.TEXT, _entry_body(entry, False, label), label)


def _bibtex_key(record: BibRecord, sub: str) -> str:
    if record.bibcode is not None:
        return record.bibcode.text
    surname = record.authors[0].surname if record.authors else "ref"
    year = str(record.year) if record.year is not None else "nd"
    return _BIBTEX_KEY_JUNK.sub("", f"{surname}{year}{sub}")


def escape_value(text: str) -> str:
    """Escape a field value for emission inside braces."""
    if _VALUE_SPECIAL.search(text) is None:
        return text
    return text.translate(_VALUE_ESCAPE_TABLE)


def _bibtex_author(author: AuthorName) -> str:
    surname, given = author.surname, " ".join(author.given_names)
    parts = surname + "\n" + given
    if _NAME_SPECIAL.search(parts) or ("and" in parts.lower() and _AND_WORD.search(parts)):
        surname, given = escape_value(surname), escape_value(given)
        # Braced, so that a comma is not read as the surname/given-name split
        # and an "and" does not split the author in two.
        if author.given_names and ("," in surname or _AND_WORD.search(surname)):
            surname = "{" + surname + "}"
        if _AND_WORD.search(given):
            given = "{" + given + "}"
    return f"{surname}, {given}" if author.given_names else "{" + surname + "}"


def _bibtex_block(record: BibRecord, sub: str) -> str:
    lines = [f"@{_BIBTEX_TYPE[record.source_type]}{{{_bibtex_key(record, sub)},"]
    if title := record.title:
        lines.append(f"    title = {{{escape_value(title)}}},")
    if authors := record.authors:
        lines.append(f"    author = {{{' and '.join([_bibtex_author(a) for a in authors])}}},")
    if journal := record.journal:
        lines.append(f"    journal = {{{escape_value(journal)}}},")
    if volume := record.volume:
        lines.append(f"    volume = {{{escape_value(volume)}}},")
    if number := record.number:
        lines.append(f"    number = {{{escape_value(number)}}},")
    if pages := record.pages:
        lines.append(f"    pages = {{{escape_value(format_pages(pages.first, pages.last))}}},")
    if (year := record.year) is not None:
        lines.append(f"    year = {{{year!s}}},")
    if publisher := record.publisher:
        lines.append(f"    publisher = {{{escape_value(publisher)}}},")
    if (doi := record.doi) is not None:
        lines.append(f"    doi = {{{escape_value(doi.canonical)}}},")
    lines.append("}")
    return "\n".join(lines)


def render_bibtex(entry: RefEntry) -> RenderedCitation:
    """One BibTeX block per nested record.

    Fields are emitted in the order title, author, journal, volume, number,
    pages, year, publisher, doi, skipping absent ones. The entry key is the
    bibcode when there is one, else surname plus year (plus the sub-label
    when records share an entry).
    """
    _check_text(entry)
    records = entry.records
    if len(records) == 1:  # most entries: the key takes no sub-label
        body = _bibtex_block(records[0], "")
    else:
        body = "\n\n".join([_bibtex_block(record, sub)
                             for record, sub in zip(records, entry.sub_labels)])
    return RenderedCitation(RenderFormat.BIBTEX, body, _label(entry))


def render_json(entry: RefEntry) -> RenderedCitation:
    """Canonical JSON form: sorted keys, UTF-8, two-space indent, no trailing whitespace.

    Each member of the entry and of its records is written straight from its
    field, in sorted key order at its fixed depth, with absent fields left
    out and each record's ``doi_url`` and ``ads_url`` derived. Text goes
    through the stdlib's C escaper, and the ID and year are numbers; a value
    of any other type in a text field raises TypeError.
    """
    members = []
    records = entry.records
    if (global_id := entry.global_id) is not None:
        # One record's only label is the ID itself.
        labels = [str(global_id)] if len(records) == 1 else entry.display_labels
        members += ['"global_id": ' + _json_int(global_id),
                    '"labels": ' + _json_list(map(encode_basestring, labels), "  ")]
    if entry.note is not None:
        members.append('"note": ' + encode_basestring(entry.note))
    members.append('"records": ' + _json_list([_json_record(r) for r in records], "  "))
    body = "{\n  " + ",\n  ".join(members) + "\n}"
    return RenderedCitation(RenderFormat.JSON, body, _label(entry))


def _json_record(r: BibRecord) -> str:
    """A record's members in key order, as an item of "records"."""
    text = encode_basestring
    doi, bibcode, pages = r.doi, r.bibcode, r.pages
    authors = [f'{{\n          "given_names": {_json_list(map(text, a.given_names), " " * 10)},'
               f'\n          "surname": {text(a.surname)}\n        }}' for a in r.authors]
    members = []
    if bibcode is not None:
        members.append('"ads_url": ' + text(bibcode.ads_url))
    members.append('"authors": ' + _json_list(authors, " " * 6))
    if bibcode is not None:
        members.append('"bibcode": ' + text(bibcode.text))
    if doi is not None:
        members += ['"doi": ' + text(doi.canonical), '"doi_url": ' + text(doi.url)]
    if r.journal is not None:
        members.append('"journal": ' + text(r.journal))
    if r.number is not None:
        members.append('"number": ' + text(r.number))
    if pages is not None:
        last = pages.last
        members.append(f'"pages": {{\n        "first": {text(pages.first)},'
                       f'\n        "last": {"null" if last is None else text(last)}\n      }}')
    if r.publisher is not None:
        members.append('"publisher": ' + text(r.publisher))
    members += ['"source_type": ' + _JSON_SOURCE_TYPE[r.source_type],
                '"title": ' + text(r.title)]
    if r.volume is not None:
        members.append('"volume": ' + text(r.volume))
    if r.year is not None:
        members.append('"year": ' + _json_int(r.year))
    return "{\n      " + ",\n      ".join(members) + "\n    }"


def _json_int(value: int) -> str:
    """The ID or the year as a JSON number; any other type, a bool included, raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{type(value).__name__} is not one of the JSON renderer's types")
    return int.__repr__(value)


def _json_list(items: Iterable[str], pad: str) -> str:
    """Written items as a JSON array whose closing bracket is indented by ``pad``."""
    inner = ",\n  " + pad
    written = inner.join(items)
    return f"[{inner[1:]}{written}\n{pad}]" if written else "[]"


_RENDERERS = {
    RenderFormat.HTML: render_html,
    RenderFormat.JSON: render_json,
    RenderFormat.BIBTEX: render_bibtex,
    RenderFormat.TEXT: render_text,
}


def render_format(entry: RefEntry, fmt: RenderFormat) -> RenderedCitation:
    """One house format for one entry."""
    return _RENDERERS[fmt](entry)


def render_all(entry: RefEntry) -> dict[RenderFormat, RenderedCitation]:
    """Every house format for one entry."""
    return {fmt: render_format(entry, fmt) for fmt in RenderFormat}
