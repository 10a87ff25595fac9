"""The four house formats and a rendered citation, apart from the renderers.

Reading an entry's stored HTML or BibTeX needs these two names only, so a
command that emits stored text never loads ``refs.render`` or the model.
"""

from __future__ import annotations

import enum

from .values import Frozen


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
        object.__setattr__(self, "format", format)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "global_label", global_label)
