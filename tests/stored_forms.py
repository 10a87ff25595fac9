"""Records in the forms that older versions of the store wrote them.

A helper module, like ``corpus.py``: test modules import it at the top,
and no test module imports another for it.
"""

from __future__ import annotations

from refs import BibRecord


def v4_record(r: BibRecord) -> dict:
    """A record as version 4 stored it: an object of its non-null fields, links left out."""
    fields = {
        "source_type": r.source_type.value, "title": r.title,
        "authors": [{"given_names": list(a.given_names), "surname": a.surname} for a in r.authors],
        "journal": r.journal, "volume": r.volume, "number": r.number,
        "pages": r.pages and {"first": r.pages.first, "last": r.pages.last},
        "year": r.year, "publisher": r.publisher, "doi": r.doi and r.doi.canonical,
        "bibcode": r.bibcode and r.bibcode.text,
    }
    return {key: value for key, value in fields.items() if value is not None}
