"""A deterministic 20-entry corpus exercising every render shape.

The ``*_corpus.*`` golden files under tests/goldens/ are generated from
exactly these entries and define the house citation style byte-for-byte.
"""

from __future__ import annotations

from refs import (
    AuthorName,
    BibRecord,
    Pages,
    RefEntry,
    SourceType,
    make_author,
    parse_bibcode,
    parse_doi,
)


def build_corpus_entries() -> list[RefEntry]:
    records = [
        # 1: everything populated
        BibRecord(
            title="The HITRAN2016 molecular spectroscopic database",
            authors=[make_author("Iouli E.", "Gordon"), make_author("Laurence S.", "Rothman")],
            journal="Journal of Quantitative Spectroscopy and Radiative Transfer",
            volume="203",
            number="C",
            pages=Pages("3", "69"),
            year=2017,
            publisher="Elsevier BV",
            doi=parse_doi("10.1016/j.jqsrt.2017.06.038"),
            bibcode=parse_bibcode("2017JQSRT.203....3G"),
        ),
        # 2: single page, no last page
        BibRecord(
            title="A single-page letter",
            authors=[make_author("A.", "Author")],
            journal="Letters in Testing",
            volume="7",
            pages=Pages("44"),
            year=1999,
            doi=parse_doi("10.5555/corpus.02"),
        ),
        # 3: no pages at all
        BibRecord(
            title="Pages unknown",
            authors=[make_author("B.", "Writer")],
            journal="Journal of Missing Fields",
            volume="12",
            year=2005,
            doi=parse_doi("10.5555/corpus.03"),
        ),
        # 4: no year
        BibRecord(
            title="An undated manuscript",
            authors=[make_author("C.", "Scribe")],
            journal="Archives",
            volume="3",
            pages=Pages("10", "12"),
            doi=parse_doi("10.5555/corpus.04"),
        ),
        # 5: no journal
        BibRecord(
            title="Standalone volume without a journal",
            authors=[make_author("D.", "Compiler")],
            volume="2",
            pages=Pages("100", "110"),
            year=2010,
            doi=parse_doi("10.5555/corpus.05"),
        ),
        # 6: no volume
        BibRecord(
            title="Journal article without a volume",
            authors=[make_author("E.", "Penner")],
            journal="Volume-Free Quarterly",
            pages=Pages("5", "9"),
            year=2012,
            doi=parse_doi("10.5555/corpus.06"),
        ),
        # 7: consortium author (no given names)
        BibRecord(
            title="A community data release",
            authors=[AuthorName(given_names=(), surname="HITRAN Collaboration")],
            journal="Data Releases",
            volume="1",
            pages=Pages("1", "20"),
            year=2020,
            doi=parse_doi("10.5555/corpus.07"),
        ),
        # 8: single-token author name
        BibRecord(
            title="Single initial",
            authors=[make_author("X", "Y")],
            journal="Minimal Names",
            volume="9",
            pages=Pages("2"),
            year=2001,
            doi=parse_doi("10.5555/corpus.08"),
        ),
        # 9: title full of characters needing escapes
        BibRecord(
            title="Escaping <all> the \"special\" characters & more: 'quotes'",
            authors=[make_author("F.", "Escaper")],
            journal="Security & Markup",
            volume="13",
            pages=Pages("666"),
            year=2013,
            doi=parse_doi("10.5555/corpus.09"),
        ),
        # 10: unicode text
        BibRecord(
            title="Measurement of the Ångström exponent and Δν shifts",
            authors=[make_author("Émile", "Müller")],
            journal="Unicode Studies",
            volume="42",
            pages=Pages("314", "320"),
            year=2018,
            doi=parse_doi("10.5555/corpus.10"),
        ),
        # 11: DOI but no bibcode (one trailing link only)
        BibRecord(
            title="Not indexed by the astronomy service",
            authors=[make_author("G.", "Outsider")],
            journal="Chemistry Letters",
            volume="77",
            pages=Pages("1234", "1240"),
            year=2016,
            doi=parse_doi("10.5555/corpus.11"),
        ),
        # 12: bibcode but no DOI
        BibRecord(
            title="Legacy record known only to the archive",
            authors=[make_author("H.", "Historian")],
            journal="Old Astronomy",
            volume="5",
            pages=Pages("55", "60"),
            year=1950,
            bibcode=parse_bibcode("1950OldA....5...55H"),
        ),
        # 13: five authors
        BibRecord(
            title="A heavily collaborative effort",
            authors=[
                make_author("A.", "Un"),
                make_author("B.", "Deux"),
                make_author("C.", "Trois"),
                make_author("D.", "Quatre"),
                make_author("E.", "Cinq"),
            ],
            journal="Teamwork",
            volume="11",
            pages=Pages("8", "19"),
            year=2021,
            doi=parse_doi("10.5555/corpus.13"),
        ),
        # 14: hyphenated given name
        BibRecord(
            title="Hyphenated given names yield two initials",
            authors=[make_author("Jean-Pierre", "Fournier")],
            journal="Onomastics",
            volume="4",
            pages=Pages("40", "41"),
            year=2008,
            doi=parse_doi("10.5555/corpus.14"),
        ),
        # 15: non-numeric volume
        BibRecord(
            title="Article in a lettered volume",
            authors=[make_author("I.", "Indexer")],
            journal="Astronomy & Astrophysics",
            volume="A7",
            pages=Pages("L1", "L4"),
            year=2014,
            doi=parse_doi("10.5555/corpus.15"),
        ),
        # 16: proceedings
        BibRecord(
            title="Conference contribution",
            authors=[make_author("J.", "Speaker")],
            source_type=SourceType.PROCEEDINGS,
            journal="Proc. Testing Symposium",
            volume="2",
            pages=Pages("200", "210"),
            year=2019,
            publisher="Symposium Press",
            doi=parse_doi("10.5555/corpus.16"),
        ),
        # 17: thesis with publisher, no journal or volume
        BibRecord(
            title="Doctoral dissertation on reference handling",
            authors=[make_author("K.", "Candidate")],
            source_type=SourceType.THESIS,
            year=2015,
            publisher="University of Somewhere",
            doi=parse_doi("10.5555/corpus.17"),
        ),
        # 18: technical report (entry carries a note)
        BibRecord(
            title="Internal validation report",
            authors=[make_author("L.", "Rapporteur")],
            source_type=SourceType.REPORT,
            number="TR-42",
            year=2022,
            publisher="Agency",
            doi=parse_doi("10.5555/corpus.18"),
        ),
        # 19: title only, plus the DOI
        BibRecord(
            title="Anonymous white paper",
            doi=parse_doi("10.5555/corpus.19"),
        ),
        # 20: authors and year, no title
        BibRecord(
            authors=[make_author("M.", "Mystery")],
            year=1987,
            doi=parse_doi("10.5555/corpus.20"),
        ),
    ]
    entries = []
    for i, record in enumerate(records, start=1):
        note = None
        if i == 18:
            note = "Used for air-broadening coefficients only."
        entries.append(RefEntry(records=[record], note=note, global_id=i))
    return entries
