"""The BibTeX reader gives what its first tokenizer gave, away from two fixed bugs.

The reference below is the earlier tokenizer of ``refs.bibtex``: its
``parse_entries`` with ``_parse_entry``, ``_parse_fields`` and
``_parse_value``, and ``split_authors``, ``_top_level_comma``,
``_is_one_group`` and ``_author_from_bibtex``, copied as they were. The only
edits are the names: each reference function calls the other reference
functions, and ``clean_value``, ``BibtexEntry`` and ``_SPACE`` come from
``refs.bibtex``. That tokenizer counted brace depth in five loops of its
own. Two of them were wrong, and the inputs here stay clear of both:

- ``split_authors`` split only on a lower-case ``and`` with one space on
  each side, so no generated name holds the word ``and`` in any case.
- A quoted value ended at the first ``"``, even inside braces, so no
  brace group holds a ``"``.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, strategies as st

from refs import BibtexParseError
from refs.bibtex import (
    _SPACE,
    BibtexEntry,
    _author_from_bibtex,
    clean_value,
    parse_entries,
    split_authors,
)
from refs.model import AuthorName

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def reference_parse_entries(text: str) -> list[BibtexEntry]:
    """Tokenize every @-entry in the input, respecting nested braces."""
    entries = []
    i = 0
    while True:
        start = text.find("@", i)
        if start == -1:
            return entries
        entry, i = reference_parse_entry(text, start)
        entries.append(entry)


def reference_parse_entry(text: str, start: int) -> tuple[BibtexEntry, int]:
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
    fields = reference_parse_fields(body[comma + 1 :], body_start + comma + 1)
    return BibtexEntry(entry_type=entry_type, key=key, fields=fields, raw=text[start:i]), i


def reference_parse_fields(body: str, base_offset: int) -> dict[str, str]:
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
        value, i = reference_parse_value(body, i, base_offset)
        fields[name] = value
    return fields


def reference_parse_value(body: str, i: int, base_offset: int) -> tuple[str, int]:
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


def reference_split_authors(raw: str) -> list[str]:
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


def reference_top_level_comma(name: str) -> int:
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


def reference_is_one_group(name: str) -> bool:
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


def reference_author_from_bibtex(name: str) -> AuthorName:
    """One name of an author field: as make_author reads it, but words are split
    only where BibTeX splits them, at its own whitespace and at hyphens."""
    stripped = name.strip(_SPACE)
    if stripped.startswith("{") and reference_is_one_group(stripped):
        # Braced whole, like "{HITRAN Collaboration}": a surname alone.
        return AuthorName(given_names=(), surname=clean_value(stripped))
    comma = reference_top_level_comma(stripped)
    if comma != -1:
        given, surname = clean_value(stripped[comma + 1 :]), clean_value(stripped[:comma])
    else:
        given, _, surname = clean_value(stripped).rpartition(" ")
    return AuthorName(tuple(filter(None, given.replace("-", " ").split(" "))), surname)


def outcome(function, *args):
    """What a call gives: its result, or the type and message of what it raised."""
    try:
        result = function(*args)
    except Exception as error:  # noqa: BLE001 - any error is compared, not handled
        return type(error), str(error)
    if isinstance(result, list) and result and isinstance(result[0], BibtexEntry):
        return [(e.entry_type, e.key, e.fields, e.raw) for e in result]
    return result


def assert_same_reading(text: str) -> None:
    """parse_entries agrees with the reference, and so do split_authors on
    every author field it finds and _author_from_bibtex on the field and on
    each name in it."""
    assert outcome(parse_entries, text) == outcome(reference_parse_entries, text)
    try:
        entries = reference_parse_entries(text)
    except BibtexParseError:
        return
    for entry in entries:
        raw = entry.fields.get("author", "")
        assert split_authors(raw) == reference_split_authors(raw)
        for name in [raw, *reference_split_authors(raw)]:
            assert_same_author(name)


def assert_same_author(name: str) -> None:
    assert outcome(_author_from_bibtex, name) == outcome(reference_author_from_bibtex, name)


# Generated entries. Every value is built valid, with braces balanced by
# construction. No word is "and" in any case, but some hold it; one holds a
# no-break space, which BibTeX does not separate words on.
words = st.sampled_from([
    "Gordon", "I.~E.", "J.", "de", "la", "Ro-th", "d'Or", "x\u00a0y", "\\'e", "50\\%",
    "A\\&B", "&amp;", "@home", "#1", "a=b", "éü", "Sand", "ANDY", "Anders", "nd", "An", "-",
])
spaces = st.sampled_from([" ", " ", "  ", "\n", "\n    ", "\t", " \r\n "])


def joined(parts: st.SearchStrategy[str], min_size: int = 0) -> st.SearchStrategy[str]:
    """Parts, each followed by a run of whitespace."""
    return st.lists(st.tuples(parts, spaces), min_size=min_size, max_size=3).map(
        lambda drawn: "".join(part + gap for part, gap in drawn)
    )


# Brace groups nest two deep. Inside one, commas and the word "and" in any
# case are text, but no '"' is used.
_in_groups = words | st.sampled_from([",", "and", "AND", "{}"])
groups = joined(_in_groups).map(lambda text: "{" + text + "}")
groups = joined(_in_groups | groups).map(lambda text: "{" + text + "}")


def phrases(with_commas: bool) -> st.SearchStrategy[str]:
    """Words and groups, joined by whitespace; some end in a comma if with_commas."""
    part = words | groups
    if with_commas:
        part = part | words.map(lambda w: w + ",")
    return joined(part, min_size=1).map(str.rstrip)


names = st.one_of(
    phrases(with_commas=False),
    st.tuples(phrases(False), phrases(False)).map(", ".join),
    groups,
)
author_lists = st.lists(names, min_size=1, max_size=3).map(" and ".join)
# A value braced, quoted, or braced around a '"' at its top level.
_wrappings = st.sampled_from(["{%s}", '"%s"', '{%s "quoted" }'])
fields = st.one_of(
    st.tuples(st.sampled_from(["author", "Author"]), _wrappings, author_lists),
    st.tuples(st.sampled_from(["title", "Journal", "x-y_z"]), _wrappings,
              phrases(with_commas=True)),
).map(lambda field: field[0] + " = " + field[1] % field[2]) | st.tuples(
    st.sampled_from(["year", "volume"]), st.sampled_from(["=", " =\n  "]),
    st.text("0123456789abXY", min_size=1, max_size=4),
).map("".join)


@st.composite
def entries(draw) -> str:
    entry_type = draw(st.sampled_from(["article", "ARTICLE", "InProceedings", "tech-report"]))
    key = draw(st.sampled_from(["k", "2017JQSRT.203....3G", "Gordon_2017", "a:b-c"]))
    separator = draw(st.sampled_from([", ", ",\n  ", ","]))
    body = separator.join(draw(st.lists(fields, max_size=4)))
    trailing = draw(st.sampled_from(["", ",", ",\n"]))
    gap = draw(st.sampled_from(["", " "]))
    return f"@{entry_type}{gap}{{{key}{separator}{body}{trailing}}}"


@st.composite
def bibliographies(draw) -> str:
    """One or two entries with text between them, sometimes cut short."""
    text = draw(st.sampled_from(["", "\n\n", "% a comment\n"])).join(
        draw(st.lists(entries(), min_size=1, max_size=2)))
    if draw(st.booleans()):
        return text
    return text[: draw(st.integers(0, len(text)))]


class TestAgreesWithTheReference:
    @given(bibliographies())
    def test_generated_bibliographies(self, text):
        assert_same_reading(text)

    def test_every_recorded_bibtex_body_and_ads_author(self):
        bodies, ads_authors = [], []
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            for recorded in json.loads(path.read_text(encoding="utf-8"))["entries"]:
                url, body = recorded["request"]["url"], recorded["response"]["body"]
                if recorded["request"].get("accept") == "application/x-bibtex":
                    bodies.append(body)  # doi.org's, refusals and the empty body among them
                elif url.endswith("/export/bibtex"):
                    bodies.append(json.loads(body)["export"])
                elif "/search/query" in url and body.startswith("{"):
                    for doc in json.loads(body).get("response", {}).get("docs", []):
                        ads_authors += [" ".join(a.split()) for a in doc.get("author", [])]
        assert len(bodies) >= 10 and ads_authors
        for body in bodies:
            assert_same_reading(body)
        for name in ads_authors:
            assert_same_author(name)
