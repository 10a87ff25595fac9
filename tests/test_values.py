"""The slotted value types behave as the dataclasses they replaced.

Each type is compared with a dataclass twin built here from the same field
list, defaults and frozenness: the twin is the reference.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import pickle
from pathlib import Path
from typing import Any

import pytest

from refs import (
    AdsConfig,
    AuthorName,
    BibRecord,
    Bibcode,
    Doi,
    HttpRequest,
    HttpResponse,
    Pages,
    RefEntry,
    RenderedCitation,
    RenderFormat,
    ResolutionPath,
    ResolutionReport,
    SourceType,
    render_all,
)
import refs.values
from refs.bibtex import BibtexEntry
from refs.resolvers import DEFAULT_ADS_BASE_URL

REQUIRED = dataclasses.MISSING
LIST = object()  # default_factory=list
DICT = object()  # default_factory=dict


DOI = Doi("10.1016/j.jqsrt.2017.06.038")
BIBCODE = Bibcode("2017JQSRT.203....3G")
AUTHOR = AuthorName(("I.", "E."), "Gordon")
RECORD_ARGS = ("T", [AUTHOR], SourceType.BOOK, "J", "1", "2", Pages("1", "2"), 2001, "P",
               DOI, BIBCODE)
RECORD = BibRecord(*RECORD_ARGS)
FALLBACK_RECORD = BibRecord("T", [AUTHOR], doi=DOI)


def report_renders(report: ResolutionReport) -> dict:
    """All four formats of the report's entry, with its BibTeX text, if any, in that slot."""
    renders = render_all(report.entry)
    if report.bibtex is not None:
        renders[RenderFormat.BIBTEX] = RenderedCitation(report.bibtex)
    return renders


class Spec:
    """One value type: its fields with the dataclass defaults, and sample arguments.

    ``derived`` maps each read-only property computed from the fields to
    its rule: it is no field, so it is not in the twin.
    """

    def __init__(self, cls: type, frozen: bool, fields: list[tuple[str, Any]],
                 full: tuple, other: tuple, required: tuple, derived: dict | None = None):
        self.cls = cls
        self.frozen = frozen
        self.names = [name for name, _ in fields]
        self.full = full  # every field, positionally
        self.other = other  # every field, unequal to full
        self.required = required  # the fields without defaults
        self.derived = derived or {}
        twin_fields = []
        for name, default in fields:
            if default is REQUIRED:
                twin_fields.append((name, Any))
            elif default is LIST:
                twin_fields.append((name, Any, dataclasses.field(default_factory=list)))
            elif default is DICT:
                twin_fields.append((name, Any, dataclasses.field(default_factory=dict)))
            else:
                twin_fields.append((name, Any, dataclasses.field(default=default)))
        self.twin = dataclasses.make_dataclass(cls.__name__, twin_fields, frozen=frozen)
        self.twin.__qualname__ = cls.__qualname__

    def __repr__(self) -> str:
        return self.cls.__name__


SPECS = [
    Spec(Doi, True, [("canonical", REQUIRED)],
         (DOI.canonical,), ("10.1000/x",), ("10.1000/x",)),
    Spec(Bibcode, True, [("text", REQUIRED)],
         ("2017JQSRT.203L...3G",), ("2017JQSRT.203....3G",), ("1999ApJ.....112345.",),
         {"year": lambda b: int(b.text[:4]), "journal": lambda b: b.text[4:9].rstrip("."),
          "volume": lambda b: b.text[9:13].lstrip("."),
          "qualifier": lambda b: None if b.text[13] in ".0123456789" else b.text[13],
          "page": lambda b: b.text[13 if b.text[13].isdigit() else 14:18].lstrip("."),
          "author_initial": lambda b: b.text[18],
          "ads_url": lambda b: "https://ui.adsabs.harvard.edu/abs/" + b.text}),
    Spec(AuthorName, True, [("given_names", REQUIRED), ("surname", REQUIRED)],
         (("I.", "E."), "Gordon"), ((), "HITRAN"), (("A",), "B")),
    Spec(Pages, True, [("first", REQUIRED), ("last", None)],
         ("3", "69"), ("3", "70"), ("7",)),
    Spec(BibRecord, False,
         [("title", ""), ("authors", LIST), ("source_type", SourceType.ARTICLE),
          ("journal", None), ("volume", None), ("number", None), ("pages", None),
          ("year", None), ("publisher", None), ("doi", None), ("bibcode", None)],
         RECORD_ARGS,
         ("U", [], SourceType.OTHER, None, None, None, None, None, None, None, None),
         (),
         {"doi_url": lambda r: None if r.doi is None else r.doi.url,
          "ads_url": lambda r: None if r.bibcode is None else r.bibcode.ads_url}),
    Spec(RefEntry, False, [("records", REQUIRED), ("note", None), ("global_id", None)],
         ([RECORD], "note", 3), ([RECORD, FALLBACK_RECORD], None, 3), ([FALLBACK_RECORD],)),
    Spec(RenderedCitation, True, [("body", REQUIRED)], ("<i>x</i>",), ("x",), ("{}",)),
    Spec(BibtexEntry, True,
         [("entry_type", REQUIRED), ("key", REQUIRED), ("fields", REQUIRED), ("raw", "")],
         ("article", "k", {"title": "T"}, "@article{k, title={T}}"),
         ("book", "k", {"title": "T"}, ""), ("misc", "m", {})),
    Spec(HttpRequest, True, [("method", REQUIRED), ("url", REQUIRED), ("headers", DICT)],
         ("GET", "https://x.test/a", {"Accept": "text/plain"}), ("GET", "https://x.test/a", {}),
         ("GET", "https://x.test/b"), {"body": lambda r: None}),
    Spec(HttpResponse, True, [("status", REQUIRED), ("headers", DICT), ("body", b"")],
         (429, {"Retry-After": "2"}, b"slow"), (200, {}, b"ok"), (200,)),
    Spec(AdsConfig, False,
         [("base_url", DEFAULT_ADS_BASE_URL), ("token", ""), ("max_retries", 3),
          ("backoff_base", 1.0)],
         ("https://ads.test/v1", "s3cret", 2, 0.5), ("https://ads.test/v1", "", 2, 0.5), ()),
    Spec(ResolutionReport, False,
         [("doi", REQUIRED), ("path_taken", REQUIRED), ("record", REQUIRED), ("entry", REQUIRED),
          ("bibtex", None), ("warnings", LIST), ("unverified", False)],
         (DOI, ResolutionPath.ADS, RECORD, RefEntry([RECORD], "n", 3), "@misc{k}", ["w"], True),
         (DOI, ResolutionPath.ADS, RECORD, RefEntry([RECORD]), None, [], True),
         (DOI, ResolutionPath.FALLBACK, FALLBACK_RECORD, RefEntry([FALLBACK_RECORD])),
         {"renders": report_renders,
          "bibcode": lambda r: r.record.bibcode if r.path_taken is ResolutionPath.ADS else None}),
]


def fields_of(obj, names: list[str]) -> list:
    return [getattr(obj, name) for name in names]


def outcome(action):
    """What an action returns, or the type of exception it raises."""
    try:
        return action()
    except Exception as exc:  # the twin sets which types are expected
        return type(exc)


@pytest.mark.parametrize("spec", SPECS, ids=repr)
class TestLikeTheDataclass:
    def test_fields_are_the_slots_in_constructor_order(self, spec):
        assert list(spec.cls.__slots__) == spec.names
        assert not hasattr(spec.cls(*spec.full), "__dict__")

    def test_positional_construction(self, spec):
        assert fields_of(spec.cls(*spec.full), spec.names) == list(spec.full)
        assert spec.cls(*spec.full) == spec.cls(**dict(zip(spec.names, spec.full)))
        for args in (spec.full, spec.other, spec.required):
            ours, twin = spec.cls(*args), spec.twin(*args)
            assert fields_of(ours, spec.names) == fields_of(twin, spec.names)

    def test_repr(self, spec):
        for args in (spec.full, spec.other, spec.required):
            assert repr(spec.cls(*args)) == repr(spec.twin(*args))

    def test_equality(self, spec):
        samples = (spec.full, spec.other, spec.required)
        for a in samples:
            for b in samples:
                assert (spec.cls(*a) == spec.cls(*b)) is (spec.twin(*a) == spec.twin(*b))
                assert (spec.cls(*a) != spec.cls(*b)) is (spec.twin(*a) != spec.twin(*b))
        assert spec.cls(*spec.full) != spec.twin(*spec.full)
        assert spec.twin(*spec.full) != spec.cls(*spec.full)
        assert spec.cls(*spec.full) != object()

    def test_a_subclass_keeps_the_fields_and_is_another_class(self, spec):
        subclass = type("Sub", (spec.cls,), {"__slots__": ()})
        twin_subclass = type("Sub", (spec.twin,), {})
        ours, twin = subclass(*spec.full), twin_subclass(*spec.full)
        assert repr(ours) == repr(twin)
        assert ours == subclass(*spec.full)
        assert ours != spec.cls(*spec.full)
        assert spec.cls(*spec.full) != ours
        assert outcome(lambda: hash(ours)) == outcome(lambda: hash(twin))
        assert copy.deepcopy(ours) == ours

    def test_hash(self, spec):
        for args in (spec.full, spec.other, spec.required):
            want = outcome(lambda: hash(spec.twin(*args)))
            assert outcome(lambda: hash(spec.cls(*args))) == want
        assert (spec.cls.__hash__ is None) is (not spec.frozen)

    def test_assignment_and_deletion(self, spec):
        ours, twin = spec.cls(*spec.full), spec.twin(*spec.full)
        for name in spec.names:
            value = getattr(twin, name)
            for obj in (ours, twin):
                if spec.frozen:
                    with pytest.raises(AttributeError):
                        setattr(obj, name, value)
                    with pytest.raises(AttributeError):
                        delattr(obj, name)
                else:
                    setattr(obj, name, value)
            assert getattr(ours, name) == value
        with pytest.raises(AttributeError):
            ours.not_a_field = 1

    def test_derived_properties_are_read_only_and_follow_the_fields(self, spec):
        for name, rule in spec.derived.items():
            assert isinstance(getattr(spec.cls, name), property)
            for args in (spec.full, spec.other, spec.required):
                obj = spec.cls(*args)
                assert getattr(obj, name) == rule(obj)
                with pytest.raises(AttributeError):
                    setattr(obj, name, getattr(obj, name))
            if not spec.frozen:
                obj = spec.cls(*spec.required)
                for field, value in zip(spec.names, spec.full):
                    setattr(obj, field, value)
                assert getattr(obj, name) == rule(spec.cls(*spec.full))

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_instances(self, spec, duplicate):
        for args in (spec.full, spec.required):
            obj = spec.cls(*args)
            clone = duplicate(obj)
            assert clone is not obj
            assert type(clone) is spec.cls
            assert clone == obj
            assert repr(clone) == repr(spec.twin(*args))


def test_only_values_py_names_setattr():
    """Every Frozen constructor sets its fields one way, through ``slot_setters``.

    ``object.__setattr__`` outside ``values.py`` would be a second idiom, and
    a slower one: it looks the field up by name on every call.
    """
    package = Path(refs.values.__file__).parent
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "values.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
    ]
    assert uses == []
