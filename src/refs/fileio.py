"""Atomic file replacement: a reader sees a file's old contents or its new, never a mix."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def replace_files(contents: Iterable[tuple[Path, Iterable[str]]]) -> None:
    """Write each target's text chunks to a temp file beside it, then move all into place.

    No target is replaced until every file is written, so a failure while
    producing or writing any text leaves all targets as they were. Text is
    UTF-8 with LF line endings. Chunks are written as they come, so a
    large file is never held in memory as one string.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for path, chunks in contents:
            tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
                staged.append((tmp, path))
                fh.writelines(chunks)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
