"""House output formats: HTML, BibTeX, JSON and plain text.

Field order follows one fixed citation shape: note, authors, quoted title,
italic journal, bold volume, pages, year in parentheses, then the DOI and
ADS hyperlinks. The golden files under tests/ are the byte-level authority
for the exact punctuation.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring
from typing import Iterable

from .errors import UnrenderableError
from .formats import RenderedCitation, RenderFormat
from .identifiers import format_bibcode
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
# The word BibTeX splits an author list on, in any case.
_AND_WORD = re.compile(r"(?:^|\s)and(?:\s|$)", re.IGNORECASE)
# What makes _bibtex_author escape or brace a name part, in "surname\ngiven names".
_NAME_NEEDS_WORK = re.compile(f"[,{re.escape(''.join(_VALUE_ESCAPES))}]|{_AND_WORD.pattern}", re.I)


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
    esc = escape_html if markup else (lambda s: s)

    if not (
        record.authors
        or record.title
        or record.journal
        or record.volume
        or record.pages
        or record.year
    ):
        raise UnrenderableError("record has no renderable fields")

    segments = []
    if record.authors:
        # One escape for the list: ", " holds nothing escape_html changes.
        segments.append(esc(", ".join([a.formatted for a in record.authors])))
    if record.title:
        if markup:
            segments.append("&quot;" + esc(record.title) + "&quot;")
        else:
            segments.append('"' + record.title + '"')
    journal_volume = []
    if record.journal:
        journal_volume.append(f"<i>{esc(record.journal)}</i>" if markup else record.journal)
    if record.volume:
        journal_volume.append(f"<b>{esc(record.volume)}</b>" if markup else record.volume)
    if journal_volume:
        segments.append(" ".join(journal_volume))
    if record.pages:
        segments.append(esc(format_pages(record.pages.first, record.pages.last)))

    year_text = str(record.year) if record.year is not None else "n.d."
    head = ", ".join(segments)
    line = f"{head} ({year_text})." if head else f"({year_text})."

    links = []
    if doi_url := record.doi_url:
        links.append(f'<a href="{esc(doi_url)}">[link]</a>' if markup else doi_url)
    if ads_url := record.ads_url:
        links.append(f'<a href="{esc(ads_url)}">[ADS]</a>' if markup else ads_url)
    if links:
        line += " " + " ".join(links)

    if note:
        line = f"{esc(note)} {line}" if markup else f"{note} {line}"
    return line


def _entry_lines(entry: RefEntry, markup: bool) -> list[str]:
    lines = []
    for i, (record, sub) in enumerate(zip(entry.records, entry.sub_labels)):
        note = entry.note if i == 0 else None
        line = _citation_line(record, note, markup)
        if entry.global_id is not None:
            line = f"{entry.global_id}{sub}. {line}"
        lines.append(line)
    return lines


def _label(entry: RefEntry) -> str:
    return "" if entry.global_id is None else str(entry.global_id)


def render_html(entry: RefEntry) -> RenderedCitation:
    """Render every nested record as one HTML line; the note leads the first.

    All free text goes through escape_html; only the <i>/<b>/<a> tags and
    the label punctuation are emitted raw.
    """
    body = "<br>\n".join(_entry_lines(entry, markup=True))
    return RenderedCitation(format=RenderFormat.HTML, body=body, global_label=_label(entry))


def render_text(entry: RefEntry) -> RenderedCitation:
    """Same field order as HTML with markup stripped and links as bare URLs."""
    body = "\n".join(_entry_lines(entry, markup=False))
    return RenderedCitation(format=RenderFormat.TEXT, body=body, global_label=_label(entry))


def _bibtex_key(record: BibRecord, sub: str) -> str:
    if record.bibcode is not None:
        return format_bibcode(record.bibcode)
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
    if _NAME_NEEDS_WORK.search(surname + "\n" + given) is not None:
        surname, given = escape_value(surname), escape_value(given)
        # Braced, so that a comma is not read as the surname/given-name split
        # and an "and" does not split the author in two.
        if author.given_names and ("," in surname or _AND_WORD.search(surname)):
            surname = "{" + surname + "}"
        if _AND_WORD.search(given):
            given = "{" + given + "}"
    return f"{surname}, {given}" if author.given_names else "{" + surname + "}"


def _bibtex_block(record: BibRecord, sub: str) -> str:
    fields: list[tuple[str, str]] = []
    if record.title:
        fields.append(("title", escape_value(record.title)))
    if record.authors:
        fields.append(("author", " and ".join(_bibtex_author(a) for a in record.authors)))
    if record.journal:
        fields.append(("journal", escape_value(record.journal)))
    if record.volume:
        fields.append(("volume", escape_value(record.volume)))
    if record.number:
        fields.append(("number", escape_value(record.number)))
    if record.pages:
        fields.append(("pages", escape_value(format_pages(record.pages.first, record.pages.last))))
    if record.year is not None:
        fields.append(("year", str(record.year)))
    if record.publisher:
        fields.append(("publisher", escape_value(record.publisher)))
    if record.doi is not None:
        fields.append(("doi", escape_value(record.doi.canonical)))

    lines = [f"@{_BIBTEX_TYPE[record.source_type]}{{{_bibtex_key(record, sub)},"]
    lines.extend(f"    {name} = {{{value}}}," for name, value in fields)
    lines.append("}")
    return "\n".join(lines)


def render_bibtex(entry: RefEntry) -> RenderedCitation:
    """One BibTeX block per nested record.

    Fields are emitted in the order title, author, journal, volume, number,
    pages, year, publisher, doi, skipping absent ones. The entry key is the
    bibcode when there is one, else surname plus year (plus the sub-label
    when records share an entry).
    """
    multi = len(entry.records) > 1
    blocks = [
        _bibtex_block(record, sub if multi else "")
        for record, sub in zip(entry.records, entry.sub_labels)
    ]
    return RenderedCitation(
        format=RenderFormat.BIBTEX, body="\n\n".join(blocks), global_label=_label(entry)
    )


def render_json(entry: RefEntry) -> RenderedCitation:
    """Canonical JSON form: sorted keys, UTF-8, two-space indent, no trailing whitespace.

    The bytes are those of ``json.dumps(entry_to_dict(entry), sort_keys=True,
    ensure_ascii=False, indent=2)``, written from the fields in that key order at
    their fixed depths. Strings go through the stdlib's C escaper and ints are
    numbers; any other type in a field raises TypeError.
    """
    members = []
    if entry.global_id is not None:
        labels = _json_list(map(_json_value, entry.display_labels), "  ")
        members += ['"global_id": ' + _json_value(entry.global_id), '"labels": ' + labels]
    if entry.note is not None:
        members.append('"note": ' + _json_value(entry.note))
    members.append('"records": ' + _json_list(map(_json_record, entry.records), "  "))
    body = "{\n  " + ",\n  ".join(members) + "\n}"
    return RenderedCitation(format=RenderFormat.JSON, body=body, global_label=_label(entry))


def _json_record(r: BibRecord) -> str:
    """The members record_to_dict gives a record, in key order, as an item of "records"."""
    doi, bibcode, pages = r.doi, r.bibcode, r.pages
    authors = (f'{{\n          "given_names": {_json_list(map(_json_value, a.given_names), " " * 10)},'
               f'\n          "surname": {_json_value(a.surname)}\n        }}' for a in r.authors)
    members = [
        None if bibcode is None else '"ads_url": ' + _json_value(bibcode.ads_url),
        '"authors": ' + _json_list(authors, " " * 6),
        None if bibcode is None else '"bibcode": ' + _json_value(format_bibcode(bibcode)),
        None if doi is None else '"doi": ' + _json_value(doi.canonical),
        None if doi is None else '"doi_url": ' + _json_value(doi.url),
        None if r.journal is None else '"journal": ' + _json_value(r.journal),
        None if r.number is None else '"number": ' + _json_value(r.number),
        None if pages is None else f'"pages": {{\n        "first": {_json_value(pages.first)},'
                                   f'\n        "last": {_json_value(pages.last)}\n      }}',
        None if r.publisher is None else '"publisher": ' + _json_value(r.publisher),
        '"source_type": ' + _json_value(r.source_type.value),
        '"title": ' + _json_value(r.title),
        None if r.volume is None else '"volume": ' + _json_value(r.volume),
        None if r.year is None else '"year": ' + _json_value(r.year),
    ]
    return "{\n      " + ",\n      ".join(filter(None, members)) + "\n    }"


def _json_value(value) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not one of the JSON renderer's types")


def _json_list(items: Iterable[str], pad: str) -> str:
    """Written items as a JSON array whose closing bracket is indented by ``pad``."""
    inner = ",\n  " + pad
    written = inner.join(items)
    return f"[{inner[1:]}{written}\n{pad}]" if written else "[]"


def render_format(entry: RefEntry, fmt: RenderFormat) -> RenderedCitation:
    """One house format for one entry."""
    renderer = {
        RenderFormat.HTML: render_html,
        RenderFormat.JSON: render_json,
        RenderFormat.BIBTEX: render_bibtex,
        RenderFormat.TEXT: render_text,
    }[fmt]
    return renderer(entry)


def render_all(entry: RefEntry) -> dict[RenderFormat, RenderedCitation]:
    """Every house format for one entry."""
    return {fmt: render_format(entry, fmt) for fmt in RenderFormat}
