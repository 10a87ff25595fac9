"""Seeded synthetic bibliographic works and the truth the output checks use.

Everything here is plain data: the benchmark turns a ``Work`` into the
program's inputs (a raw DOI string, or a ``BibRecord`` built through the
public model API) and later compares what the program stored against the
``Work`` it started from, never against the program's own renderers.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass

SURNAMES = (
    "Gordon", "Rothman", "Hill", "Kochanov", "Tan", "Robitaille", "Wilzewski",
    "Kramida", "Müller", "Ångström", "O'Brien", "García-López", "Nakamura",
    "Dvořák", "Øster", "Ivanova", "Lee", "Smith", "Okafor", "Haldane",
    "Šimečková", "Björk", "Nguyen", "Fischer", "Rossi", "Kowalski", "Zhang",
)
GIVEN_NAMES = (
    "Iouli E.", "Laurence S.", "Christian", "Roman V.", "Yan", "Thomas P.",
    "Anne-Marie", "Jonas S.", "Ewa", "Kenji", "Zoë", "J.", "Maria Luisa",
    "Chidi", "Élodie", "Pavel", "A. B.",
)
WORDS = (
    "molecular", "spectroscopic", "database", "line", "lists", "for", "diatomic",
    "molecules", "in", "astrophysical", "spectroscopy", "pressure", "broadening",
    "of", "water", "vapour", "the", "infrared", "band", "intensities", "and",
    "high-resolution", "measurements", "ab", "initio", "dipole", "moment",
    "surface", "ozone", "methane", "isotopologues", "temperature", "dependence",
    "collision-induced", "absorption", "update", "atomic", "levels", "energy",
    "transitions", "cross", "sections", "a", "new", "analysis", "survey",
)
# Title fragments that exercise escaping and markup in the renderers.
TITLE_SPICE = ("H<sub>2</sub>O", "CO & CO<sub>2</sub>", '"hot" bands', "O'Neill's rule")
JOURNALS = (
    ("Journal of Quantitative Spectroscopy and Radiative Transfer", "JQSRT", "Elsevier BV"),
    ("Astronomy & Astrophysics", "A&A", "EDP Sciences"),
    ("The Astrophysical Journal", "ApJ", "American Astronomical Society"),
    ("Monthly Notices of the Royal Astronomical Society", "MNRAS", "Oxford University Press"),
    ("Journal of Molecular Spectroscopy", "JMoSp", "Elsevier BV"),
    ("Icarus", "Icar", "Elsevier BV"),
    ("Physical Review A", "PhRvA", "American Physical Society"),
)
# CSL work types, weighted towards journal articles as real registries are.
CSL_TYPES = ("journal-article",) * 8 + ("book", "paper-conference", "report", "dataset")
NOTES = (
    "Line positions only.",
    "Used for the pressure-broadening parameters.",
    "Superseded in part by a later release.",
    "Intensities rescaled by the isotopic abundance.",
)

DOI_PREFIX = "10.5072"  # the DOI test prefix: never a real registration


@dataclass(frozen=True, slots=True)
class Author:
    given: str
    surname: str


@dataclass(frozen=True, slots=True)
class Work:
    """One bibliographic work as the upstream services know it."""

    doi: str  # canonical: lowercase, no scheme
    title: str  # clean Unicode, single-spaced
    authors: tuple[Author, ...]
    year: int
    csl_type: str = "journal-article"
    journal: str | None = None
    journal_abbrev: str | None = None
    volume: str | None = None
    pages: str | None = None
    publisher: str | None = None
    bibcode: str | None = None

    @property
    def first_surname(self) -> str:
        return self.authors[0].surname


def _ascii_initial(surname: str) -> str:
    folded = unicodedata.normalize("NFKD", surname)
    for c in folded:
        if c.isascii() and c.isalpha():
            return c.upper()
    return "X"


class WorkGenerator:
    """Deterministic stream of distinct works for one (namespace, seed)."""

    def __init__(self, seed: int, namespace: str):
        self.rng = random.Random(f"{namespace}:{seed}")
        self.namespace = namespace
        self.seed = seed
        self.count = 0

    def work(self, *, bibcode: bool = True, csl_type: str | None = None) -> Work:
        rng = self.rng
        self.count += 1
        n = self.count
        words = [rng.choice(WORDS) for _ in range(rng.randint(3, 9))]
        if rng.random() < 0.15:
            words.insert(rng.randrange(len(words) + 1), rng.choice(TITLE_SPICE))
        title = " ".join(words)
        title = title[0].upper() + title[1:]
        authors = tuple(
            Author(rng.choice(GIVEN_NAMES), rng.choice(SURNAMES))
            for _ in range(rng.randint(1, 6))
        )
        year = rng.randint(1950, 2024)
        kind = csl_type or rng.choice(CSL_TYPES)
        journal = abbrev = publisher = volume = pages = None
        if kind in ("journal-article", "paper-conference"):
            journal, abbrev, publisher = rng.choice(JOURNALS)
            volume = str(rng.randint(1, 999))
            first = rng.randint(1, 3000)
            pages = f"{first}-{first + rng.randint(1, 40)}" if rng.random() < 0.8 else str(first)
        else:
            publisher = rng.choice(JOURNALS)[2]
        code = None
        if bibcode:
            # Volume and page columns carry the work's serial number, so every
            # bibcode in a stream is distinct.
            code = (
                f"{year:04d}{(abbrev or 'bench')[:5]:.<5}"
                f"{(n // 9999) % 9999 + 1:.>4}.{n % 9999 + 1:.>4}"
                f"{_ascii_initial(authors[0].surname)}"
            )
        return Work(
            doi=f"{DOI_PREFIX}/{self.namespace}.{self.seed}.{n}",
            title=title,
            authors=authors,
            year=year,
            csl_type=kind,
            journal=journal,
            journal_abbrev=abbrev,
            volume=volume,
            pages=pages,
            publisher=publisher,
            bibcode=code,
        )

    def raw_doi(self, work: Work) -> str:
        """The DOI as an administrator might paste it: prefixed or upper-cased."""
        form = self.rng.randrange(4)
        if form == 0:
            return "https://doi.org/" + work.doi
        if form == 1:
            return "doi:" + work.doi.upper()
        if form == 2:
            return work.doi.upper()
        return work.doi


@dataclass(frozen=True, slots=True)
class RegistryEntry:
    """One entry to store: one or more works plus an optional note."""

    works: tuple[Work, ...]
    note: str | None = None


def registry_entry(gen: WorkGenerator) -> RegistryEntry:
    """About 5% multi-record entries and 20% with a curation note."""
    rng = gen.rng
    size = rng.choice((2, 3)) if rng.random() < 0.05 else 1
    works = tuple(gen.work(bibcode=rng.random() < 0.5) for _ in range(size))
    note = rng.choice(NOTES) if rng.random() < 0.2 else None
    return RegistryEntry(works=works, note=note)
