"""The renderers give the bytes of their first, plainer versions.

The reference below is the earlier code of ``_citation_line``,
``_entry_lines``, ``render_bibtex`` with its ``_bibtex_block``,
``render_json`` with its ``_json_record``, and ``AuthorName.initials`` and
``formatted``, copied as it was, with the ``_json_value`` it wrote every
JSON value with. The only edits are the names: each reference function
calls the other reference functions, and the helpers that did not change
(the escapers, ``_bibtex_key``, ``_bibtex_author``, ``_json_list``) come
from ``refs.render``.
"""

from __future__ import annotations

from json.encoder import encode_basestring

import pytest
from hypothesis import given, strategies as st

from refs import AuthorName, BibRecord, RefEntry, RenderedCitation, RenderFormat
from refs.errors import UnrenderableError
from refs.model import format_pages
from refs.render import (
    _BIBTEX_TYPE,
    _bibtex_author,
    _bibtex_key,
    _json_list,
    escape_html,
    escape_value,
    render_format,
)

from strategies import json_records, json_text


def reference_initials(author: AuthorName) -> list[str]:
    out = []
    for token in author.given_names:
        letter = token[:1]
        if not letter.isalpha():
            letter = next((c for c in token if c.isalpha()), None)
        if letter is not None:
            out.append(letter.upper() + ".")
    return out


def reference_formatted(author: AuthorName) -> str:
    """The display form: initials then surname, e.g. ``I. E. Gordon``."""
    return " ".join([*reference_initials(author), author.surname])


def reference_citation_line(record: BibRecord, note: str | None, markup: bool) -> str:
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
        segments.append(esc(", ".join([reference_formatted(a) for a in record.authors])))
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


def reference_entry_lines(entry: RefEntry, markup: bool) -> list[str]:
    lines = []
    for i, (record, sub) in enumerate(zip(entry.records, entry.sub_labels)):
        note = entry.note if i == 0 else None
        line = reference_citation_line(record, note, markup)
        if entry.global_id is not None:
            line = f"{entry.global_id}{sub}. {line}"
        lines.append(line)
    return lines


def reference_render_html(entry: RefEntry) -> RenderedCitation:
    body = "<br>\n".join(reference_entry_lines(entry, markup=True))
    return RenderedCitation(body)


def reference_render_text(entry: RefEntry) -> RenderedCitation:
    body = "\n".join(reference_entry_lines(entry, markup=False))
    return RenderedCitation(body)


def reference_bibtex_block(record: BibRecord, sub: str) -> str:
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


def reference_render_bibtex(entry: RefEntry) -> RenderedCitation:
    multi = len(entry.records) > 1
    blocks = [
        reference_bibtex_block(record, sub if multi else "")
        for record, sub in zip(entry.records, entry.sub_labels)
    ]
    return RenderedCitation("\n\n".join(blocks))


def reference_json_value(value) -> str:
    """Any field's value: text through the C escaper, an int as a number, None as null."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not one of the JSON renderer's types")


def reference_render_json(entry: RefEntry) -> RenderedCitation:
    members = []
    if entry.global_id is not None:
        labels = _json_list(map(reference_json_value, entry.display_labels), "  ")
        members += ['"global_id": ' + reference_json_value(entry.global_id), '"labels": ' + labels]
    if entry.note is not None:
        members.append('"note": ' + reference_json_value(entry.note))
    members.append('"records": ' + _json_list(map(reference_json_record, entry.records), "  "))
    body = "{\n  " + ",\n  ".join(members) + "\n}"
    return RenderedCitation(body)


def reference_json_record(r: BibRecord) -> str:
    """A record's members in key order, as an item of "records"."""
    doi, bibcode, pages = r.doi, r.bibcode, r.pages
    authors = (f'{{\n          "given_names": {_json_list(map(reference_json_value, a.given_names), " " * 10)},'
               f'\n          "surname": {reference_json_value(a.surname)}\n        }}' for a in r.authors)
    members = [
        None if bibcode is None else '"ads_url": ' + reference_json_value(bibcode.ads_url),
        '"authors": ' + _json_list(authors, " " * 6),
        None if bibcode is None else '"bibcode": ' + reference_json_value(bibcode.text),
        None if doi is None else '"doi": ' + reference_json_value(doi.canonical),
        None if doi is None else '"doi_url": ' + reference_json_value(doi.url),
        None if r.journal is None else '"journal": ' + reference_json_value(r.journal),
        None if r.number is None else '"number": ' + reference_json_value(r.number),
        None if pages is None else f'"pages": {{\n        "first": {reference_json_value(pages.first)},'
                                   f'\n        "last": {reference_json_value(pages.last)}\n      }}',
        None if r.publisher is None else '"publisher": ' + reference_json_value(r.publisher),
        '"source_type": ' + reference_json_value(r.source_type.value),
        '"title": ' + reference_json_value(r.title),
        None if r.volume is None else '"volume": ' + reference_json_value(r.volume),
        None if r.year is None else '"year": ' + reference_json_value(r.year),
    ]
    return "{\n      " + ",\n      ".join(filter(None, members)) + "\n    }"


REFERENCE = {
    RenderFormat.HTML: reference_render_html,
    RenderFormat.TEXT: reference_render_text,
    RenderFormat.BIBTEX: reference_render_bibtex,
    RenderFormat.JSON: reference_render_json,
}

notes = st.none() | json_text
global_ids = st.none() | st.integers(1, 10**12)


def rendered(render, entry: RefEntry):
    """The text a renderer gives, or the type of what it raises."""
    try:
        citation = render(entry)
    except UnrenderableError as exc:
        return type(exc)
    return citation.body


def assert_every_format_matches(entry: RefEntry) -> None:
    for fmt in RenderFormat:
        assert rendered(lambda e: render_format(e, fmt), entry) == rendered(REFERENCE[fmt], entry)


class TestRenderersMatchTheReference:
    @given(json_records, notes, global_ids)
    def test_one_record(self, record, note, global_id):
        assert_every_format_matches(RefEntry([record], note, global_id))

    @given(st.lists(json_records, min_size=2, max_size=3), notes, global_ids)
    def test_two_or_three_records(self, entry_records, note, global_id):
        assert_every_format_matches(RefEntry(entry_records, note, global_id))

    @given(st.lists(json_text | st.text(max_size=4), max_size=4).map(tuple), json_text)
    def test_initials_and_formatted(self, given_names, surname):
        author = AuthorName(given_names, surname + "x")
        assert author.initials == reference_initials(author)
        assert author.formatted == reference_formatted(author)

    @pytest.mark.parametrize("given_names", [(), ("Iouli", "E."), ("1x", "..", "-"), ("éa", "ß")])
    def test_initials_and_formatted_on_examples(self, given_names):
        author = AuthorName(given_names, "Gordon")
        assert (author.initials, author.formatted) == (
            reference_initials(author), reference_formatted(author))
