"""The four house formats and a rendered citation, apart from the renderers.

Reading an entry's stored HTML or BibTeX needs these two names only, so a
command that emits stored text never loads ``refs.render`` or the model.
"""

from __future__ import annotations

import enum

from .values import Frozen, slot_setters


class RenderFormat(str, enum.Enum):
    HTML = "html"
    JSON = "json"
    BIBTEX = "bibtex"
    TEXT = "text"


class RenderedCitation(Frozen):
    """One reference rendered in one format: its text, ``body``."""

    __slots__ = ("body",)
    body: str

    def __init__(self, body: str) -> None:
        _set_body(self, body)


(_set_body,) = slot_setters(RenderedCitation)
