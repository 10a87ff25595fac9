"""Atomic file replacement: a reader sees a file's old contents or its new, never a mix."""

from __future__ import annotations

import os
from contextlib import ExitStack
from pathlib import Path
from typing import Iterable, Sequence


def replace_files(paths: Sequence[Path], rows: Iterable[Sequence[str]]) -> None:
    """Write the files together through temp files beside them, then move all into place.

    Every temp file is opened first. Each row then carries one text chunk
    per path, in the order of ``paths``, so one pass over the rows writes
    all files in lockstep and a large file is never held in memory as one
    string. No target is replaced until every file is written, flushed to
    disk and closed, so a failure while producing or writing any text
    leaves all targets as they were. After the moves, each target's
    directory is flushed too, so the new names survive a crash. Text is
    UTF-8 with LF line endings.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        with ExitStack() as stack:
            files = []
            for path in paths:
                tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
                files.append(stack.enter_context(open(tmp, "x", encoding="utf-8", newline="\n")))
                staged.append((tmp, path))
            for row in rows:
                for fh, chunk in zip(files, row, strict=True):
                    fh.write(chunk)
            for fh in files:
                fh.flush()
                os.fsync(fh.fileno())
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    for directory in dict.fromkeys(path.parent for path in paths):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
