"""Run one `refs` command as `python -m refs.cli` does, and report its peak memory.

Usage: python benchmarks/cli_child.py [--spans SPAN_FILE] REFS_ARGS...

With ``--spans`` the tracer is installed and the command's spans are
appended to SPAN_FILE. The last line on standard error is always
``peak_rss_kb N``: the process's high-water resident set (VmHWM). Its
rusage figure would not do, because Linux carries the parent's peak
across fork and exec into it.
"""

import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import refs.cli  # noqa: E402

from memory import peak_rss_kb  # noqa: E402


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        return refs.cli.main(argv)
    from tracing import TARGETS, Tracer

    span_file, argv = Path(argv[1]), argv[2:]
    tracer = Tracer()
    # The benchmark's own transport never runs in a CLI process.
    tracer.install([t for t in TARGETS if t[0].startswith("refs.")])
    try:
        return refs.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
    finally:
        print(f"peak_rss_kb {peak_rss_kb()}", file=sys.stderr)
    sys.exit(status)
