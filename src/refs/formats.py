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
    """One reference rendered in one concrete format."""

    __slots__ = ("format", "body", "global_label")
    format: RenderFormat
    body: str
    global_label: str

    def __init__(self, format: RenderFormat, body: str, global_label: str) -> None:
        _set_format(self, format)
        _set_body(self, body)
        _set_global_label(self, global_label)


_set_format, _set_body, _set_global_label = slot_setters(RenderedCitation)
