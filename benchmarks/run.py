"""Offline benchmark of refs: latency-injected imports, a 10k-entry registry, CLI sessions.

    python3 benchmarks/run.py --workload import-rtt --seed 1 --seconds 15 --trace 0

Workloads: import-rtt, registry-10k, cli-session, or ``all`` (each in its
own process, one after the other). Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is
non-zero when any output check failed or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Measure the checkout's own source, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("import-rtt", "registry-10k", "cli-session")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by a traced run for its untraced phase.
    parser.add_argument("--setup-repeats", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _print_details(label: str, outcome, start_rss_mb: float, facts: bool) -> None:
    from calibrate import NOMINAL_COMMIT_MS, NOMINAL_US
    from stats import describe, median

    windows = sum(1 for w in outcome.windows if w.ops)
    print(f"[{label}] op_ms {describe(outcome.op_ms)} ms, as measured, {windows} windows")
    print(f"[{label}] reference task {outcome.reference_us():.6g} us (nominal {NOMINAL_US:g})")
    setup = [c.program_s for c in outcome.setups]
    reference_ms = [ms for c in outcome.setups for ms in c.reference_ms]
    print(f"[{label}] setup {describe(setup)} s, as measured; commit reference "
          f"{median(reference_ms):.6g} ms/commit (nominal {NOMINAL_COMMIT_MS:g})")
    print(f"[{label}] peak RSS before the workload {start_rss_mb:.6g} MB")
    for name, value, unit in outcome.details:
        shown = describe(value) if isinstance(value, list) else f"{value:.6g}"
        print(f"[{label}] {name} {shown} {unit}")
    if facts:  # a traced run prints them with the per-layer metrics
        for name, value in sorted(outcome.facts.items()):
            print(f"[{label}] {name} {value:.6g}")
    error_rate = outcome.failed / outcome.attempted
    print(f"[{label}] error_rate {error_rate:.6g} failed/attempted ({outcome.failed}/{outcome.attempted})")
    for message in outcome.failures:
        print(f"[{label}] FAILED {message}")


def _untraced_child(args: argparse.Namespace) -> dict | None:
    """Run the untraced phase of a traced run in its own process.

    Its own process keeps the two phases' peak memory apart. Returns the
    child's result line, or None when it printed none.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-repeats", "1"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line.replace("[untraced]", "[untraced child]", 1))
    return json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "refs").is_dir() or not (ROOT / "tests" / "fixtures").is_dir():
        print(f"no refs checkout around {BENCH_DIR}: need src/refs and tests/fixtures",
              file=sys.stderr)
        return 2
    import calibrate
    import layers
    import tracing
    import workloads
    from memory import peak_rss_kb

    start_rss_mb = peak_rss_kb() / 1024.0
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commit_ref = calibrate.CommitReference(workdir / "commit-reference.db")
    # A traced run times two phases, so each sets up once to stay well
    # inside the time a run may take.
    repeats = 1 if args.trace else args.setup_repeats
    setup = {} if repeats is None else {"setup_repeats": repeats}
    try:
        if not args.trace:
            outcome = workload(args.seed, args.seconds, workdir, commit_ref, **setup)
            e2e = outcome.end_to_end()
            _print_details("untraced", outcome, start_rss_mb, facts=True)
            for name, unit in layers.E2E_UNITS.items():
                print(f"[untraced] {name} {e2e[name]:.6g} {unit}")
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in layers.E2E_UNITS.items()}
            attempted, failed = outcome.attempted, outcome.failed
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = workload(args.seed, args.seconds, workdir, commit_ref, tracer, **setup)
            finally:
                tracer.uninstall()
            traced_e2e = traced.end_to_end()
            _print_details("traced", traced, start_rss_mb, facts=False)
            stats = tracing.SpanStats()
            stats.add(tracer.spans)
            span_file = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            span_file.unlink(missing_ok=True)
            tracer.dump(span_file)
            if traced.child_spans is not None:
                for dump in tracing.load_dumps(traced.child_spans):
                    stats.add(dump)
                with open(span_file, "a", encoding="utf-8") as fh:
                    fh.write(traced.child_spans.read_text(encoding="utf-8"))
            traced.facts["machine.reference_us"] = traced.reference_us()
            untraced = _untraced_child(args)
            if untraced is None:
                print("the untraced phase printed no result", file=sys.stderr)
                return 1
            untraced_e2e = {name: m["value"] for name, m in untraced["metrics"].items()}
            values, absent = layers.layer_metrics(
                stats, traced.facts, tracer.absent, untraced_e2e, traced_e2e
            )
            for name, unit in layers.PER_LAYER_UNITS.items():
                print(f"[traced] {name} {values[name]:.6g} {unit}")
            print(f"[traced] absent: {', '.join(absent) or 'none'}; spans written to {span_file}")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.PER_LAYER_UNITS.items()}
            attempted = traced.attempted + untraced["attempted"]
            failed = traced.failed + untraced["failed"]
    finally:
        commit_ref.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}]{line}")
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode or (results[name] is None)
    print(json.dumps(results))
    return int(status)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
