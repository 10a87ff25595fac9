"""The recorded fixtures as test data: their exchanges, their JSON answers, and
changes to make to those answers.

A helper module, like ``corpus.py``: test modules import it at the top,
and no test module imports another for it.
"""

from __future__ import annotations

import json
from urllib.parse import parse_qs, unquote, urlsplit

from hypothesis import strategies as st

from refs import parse_doi
from refs.resolvers import ADS_FIELD_LIST, CSL_JSON_ACCEPT

from conftest import FIXTURE_DIR

# Every exchange of the recorded fixtures, in the order replay reads them.
RECORDED = [entry for archive in sorted(FIXTURE_DIR.glob("*.json"))
            for entry in json.loads(archive.read_text(encoding="utf-8"))["entries"]]


def fixture_matches() -> dict:
    """Each free-text query of the CrossRef archive, with the DOI its top hit carries."""
    archive = json.loads((FIXTURE_DIR / "crossref.json").read_text(encoding="utf-8"))
    matches = {}
    for entry in archive["entries"]:
        items = json.loads(entry["response"]["body"])["message"]["items"]
        text = parse_qs(urlsplit(entry["request"]["url"]).query)["query.bibliographic"][0]
        matches[text] = parse_doi(items[0]["DOI"]) if items else None
    return matches


# The (query, DOI) pairs whose recorded or synthesized CrossRef answer has a top hit.
MATCHED = [(text, doi) for text, doi in fixture_matches().items() if doi]


def recorded_answers() -> list[tuple[tuple[str, str], int, object]]:
    """Every recorded JSON answer that an add reads: each ADS DOI search, citation JSON
    and CrossRef search, as (the add's subject, its index in RECORDED, its decoded body)."""
    answers = []
    for index, entry in enumerate(RECORDED):
        request, response = entry["request"], entry["response"]
        parts = urlsplit(request["url"])
        params = parse_qs(parts.query)
        if parts.hostname == "doi.org" and request["accept"] == CSL_JSON_ACCEPT:
            subject = ("--doi", unquote(parts.path[1:]))
        elif params.get("fl") == [ADS_FIELD_LIST] and params["q"][0].startswith('doi:"'):
            subject = ("--doi", params["q"][0].removeprefix('doi:"').removesuffix('"'))
        elif "query.bibliographic" in params:
            subject = ("--query", params["query.bibliographic"][0])
        else:
            continue
        if response["status"] == 200 and response["body"][:1] in "{[":
            answers.append((subject, index, json.loads(response["body"])))
    return answers


def node_paths(node, path: tuple = ()) -> list[tuple]:
    """The path of every node of a decoded JSON value, the root's ``()`` first."""
    paths = [path]
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            paths += node_paths(child, (*path, key))
    return paths


RECORDED_ANSWERS = [(subject, index, body, node_paths(body))
                    for subject, index, body in recorded_answers()]
# What a changed node becomes: each JSON type, text the readers treat specially
# (a year, a page range, an entity, a lone surrogate), and the shapes the
# answers nest. One sampled value is far cheaper to draw than a built one.
REPLACEMENTS = [
    None, True, False, 0, -1, 1200, 2017, 99999, 1.5, float("nan"), float("inf"),
    "", " ", "x", "2017", "20x7", "1-2", "a &amp; b", "Doe, J.", "journal-article",
    "10.1234/x", "\ud800", [], [None], [1], ["x"], ["x", 1], [[1]], [[2017, 9]], [["2017"]],
    [{}], [{"a": 1}], {}, {"a": 1}, {"date-parts": [[1200]]}, {"family": "x"},
    {"DOI": "10.1234/x"},
]
DELETE = object()
NODE_CHANGES = st.sampled_from([*REPLACEMENTS, DELETE])


def with_node(body, path: tuple, value):
    """A copy of a decoded JSON value whose node at ``path`` is ``value``, or is deleted
    when ``value`` is DELETE; ``value`` itself when ``path`` is the root's."""
    if not path:
        return value
    body = json.loads(json.dumps(body))
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return body
