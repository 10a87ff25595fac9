"""Hypothesis strategies that more than one test module draws from.

A helper module, like ``corpus.py``: test modules import it at the top,
and no test module imports another for it.
"""

from __future__ import annotations

import string

from hypothesis import strategies as st

from refs import (
    AuthorName,
    Bibcode,
    BibRecord,
    Doi,
    InvalidDoiError,
    Pages,
    RefEntry,
    SourceType,
    parse_doi,
)
from refs.identifiers import BIBCODE_LENGTH
from refs.migrations import row_from_dict
from refs.model import MAX_YEAR, MIN_YEAR, record_from_row

# The characters a BibTeX key cannot hold, which Bibcode refuses in any column.
KEY_BREAKERS = "{},"
# The Unicode categories of the characters that str.isprintable refuses: controls,
# format characters, surrogates, private use, unassigned and separators. Bibcode
# refuses them and the space, because BibTeX's key scanner stops at whitespace.
NOT_PRINTABLE = ("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs")


def text_around(specials: str, run: int) -> st.SearchStrategy[str]:
    """Up to four of ``specials`` between two runs of up to ``run`` characters of any kind.

    Each part is one text draw over a plain alphabet. Hypothesis draws text
    over a mixed one (``sampled_from(...) | characters()``) a character at a
    time, several times slower.
    """
    any_run = st.text(max_size=run)
    return st.tuples(any_run, st.text(specials, max_size=4), any_run).map("".join)


def doi_texts() -> st.SearchStrategy[str]:
    """The strings ``10\\.[0-9]{4,9}/[!-~]{1,30}`` matches, built from two text draws.

    Hypothesis draws these several times faster than ``st.from_regex``.
    """
    return st.builds(
        "10.{}/{}".format,
        st.text(string.digits, min_size=4, max_size=9),
        st.text(st.characters(min_codepoint=ord("!"), max_codepoint=ord("~")), min_size=1,
                max_size=30),
    )


def _parsed_or_none(raw: str) -> Doi | None:
    try:
        return parse_doi(raw)
    except InvalidDoiError:
        return None


def accepted_dois() -> st.SearchStrategy[Doi]:
    """DOIs that parse_doi accepts, with suffixes rich in quotes, backslashes and Unicode."""
    prefix = st.text(string.digits, min_size=4, max_size=9).map("10.".__add__)
    suffix = text_around('"\\():/*?Ab', 13)
    raw = st.tuples(prefix, suffix).map("/".join)
    return raw.map(_parsed_or_none).filter(lambda doi: doi is not None)


def valid_bibcodes() -> st.SearchStrategy[str]:
    """Generator of structurally valid 19-character bibcodes."""
    upper = st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    year = st.integers(1000, 2999).map(lambda y: f"{y:04d}")
    journal = st.one_of(
        st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ&", min_size=1, max_size=5),
        st.sampled_from(["ApJ", "A&A", "MNRAS", "JQSRT", "PASP", "Sci"]),
    ).map(lambda j: j.ljust(5, "."))
    volume = st.one_of(
        st.text("0123456789", min_size=1, max_size=4),
        st.sampled_from(["conf", "meet", "book", "proc"]),
    ).map(lambda v: v.rjust(4, "."))
    qualifier = st.sampled_from(".ELPQRSTUVWXYZ")
    page = st.text("0123456789", min_size=0, max_size=4).map(lambda p: p.rjust(4, "."))
    overflow_page = st.text("0123456789", min_size=5, max_size=5)
    middle = st.one_of(st.tuples(qualifier, page).map("".join), overflow_page)
    author = st.one_of(upper, st.just("."))
    return st.tuples(year, journal, volume, middle, author).map("".join)


def accepted_bibcodes() -> st.SearchStrategy[str]:
    """Texts Bibcode accepts, built column by column: the journal, volume and page
    columns hold any printable character but the space and KEY_BREAKERS."""
    anything = st.characters(exclude_categories=NOT_PRINTABLE, exclude_characters=KEY_BREAKERS)
    return st.builds(
        "{}{}{}{}{}{}".format,
        st.integers(1000, 9999),
        st.text(anything, min_size=5, max_size=5),
        st.text(anything, min_size=4, max_size=4),
        st.sampled_from(".LQ0") | st.characters(categories=("Lu", "Ll", "Nd")),
        st.text(anything, min_size=4, max_size=4),
        st.characters(categories=("Lu", "Ll", "Lo")) | st.just("."),
    )


def bibcodes_with_a_key_breaker() -> st.SearchStrategy[str]:
    """An accepted text with one column after the year replaced by a KEY_BREAKERS character."""
    return st.builds(lambda text, i, breaker: text[:i] + breaker + text[i + 1:],
                     accepted_bibcodes(), st.integers(4, BIBCODE_LENGTH - 1),
                     st.sampled_from(KEY_BREAKERS))


# What JSON escapes (quotes, backslashes, control characters), and U+2028/U+2029,
# which it leaves bare.
JSON_SPECIALS = '"\\\x00\x1f\x7f\u2028\u2029'


def json_text_around(run: int) -> st.SearchStrategy[str]:
    """Up to three of JSON_SPECIALS between two runs of up to ``run`` characters of any
    kind. Unlike ``text_around``'s, the runs hold lone surrogates too, which JSON
    escapes and no store can hold."""
    any_run = st.text(st.characters(), max_size=run)
    return st.tuples(any_run, st.text(JSON_SPECIALS, max_size=3), any_run).map("".join)


json_text = json_text_around(10)
optional_json_text = st.none() | json_text
# Built, not filtered: text that is not empty, and text around a character
# that str.strip keeps. Each character str.isspace accepts is Cc, Zs, Zl or Zp.
nonempty_json_text = st.builds(
    str.__add__, st.characters() | st.sampled_from(JSON_SPECIALS), json_text
)
nonblank_json_text = st.builds(
    "{}{}{}".format,
    json_text,
    st.characters(exclude_categories=("Cc", "Zs", "Zl", "Zp")) | st.sampled_from('"\\\x00\x7f'),
    json_text,
)
# Every field drawn, each source type, titles of up to 43 characters.
json_records = st.builds(
    BibRecord,
    title=json_text_around(20),
    authors=st.lists(st.builds(
        AuthorName,
        given_names=st.lists(json_text, max_size=3).map(tuple),
        surname=nonblank_json_text,
    ), max_size=3),
    source_type=st.sampled_from(SourceType),
    journal=optional_json_text,
    volume=optional_json_text,
    number=optional_json_text,
    pages=st.none() | st.builds(Pages, first=nonempty_json_text, last=optional_json_text),
    year=st.none() | st.integers(MIN_YEAR, MAX_YEAR),
    publisher=optional_json_text,
    doi=st.none() | doi_texts().map(parse_doi),
    bibcode=st.none() | accepted_bibcodes().map(Bibcode),
)


def entry_from_dict(d: dict) -> RefEntry:
    """The entry whose ``render_json`` body ``json.loads`` reads as ``d``."""
    return RefEntry([record_from_row(row_from_dict(r)) for r in d["records"]], d.get("note"),
                    d.get("global_id"))
