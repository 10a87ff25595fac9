"""Peak memory of the current process, free of what its parents used.

``getrusage`` reports a ``ru_maxrss`` that Linux carries across fork and
exec: a process started by a large one reads the large one's peak. The
high-water mark of the process's own address space (``VmHWM`` in
/proc/self/status) starts afresh at exec.
"""

from __future__ import annotations


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")
