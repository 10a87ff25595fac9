"""The three workloads: closed loop, one client, seeded inputs.

Each workload returns an ``Outcome``: the samples behind the end-to-end
metrics, the result of every output check, and counters measured
without spans (transport counts, store size). Set-up time counts only the
calls into the program that build the starting state (opening the store,
``add_entry``, ``attach_crossref``), never the benchmark's own input
generation. Calls into the program go through module attributes
(``refs.pipeline.resolve_and_store_report``, ``refs.store.RefStore``), so
a tracer that patched those names sees them.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import refs.errors
import refs.identifiers
import refs.model
import refs.pipeline
import refs.render
import refs.resolvers
import refs.store

from calibrate import NOMINAL_COMMIT_MS, NOMINAL_US, CommitReference, Reference
from memory import peak_rss_kb
from stats import median
from upstream import FakeUpstream, LatencyTransport
from workgen import RegistryEntry, Work, WorkGenerator, registry_entry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
TOKEN = "bench-ads-token"

RTT_MS = 20.0
IMPORT_PASS = {"ads": 35, "fallback": 8, "fallback406": 2, "unregistered": 1, "repeat": 4}
REGISTRY_SIZE = 10_000
REGISTRY_WINDOW_S = 0.5
CLI_STORE_SIZE = 1_000
SETUP_REPEATS = 3
IMPORT_SETUP_REPEATS = 30
# Each registry build is 10 000 fsync'd commits, 12 to 27 s on a 2-vCPU VM;
# two keep a run of every workload inside the benchmark's time budget.
REGISTRY_SETUP_REPEATS = 2
SETUP_REFERENCES = 20  # commit reference timings per registry build
SCOPES = ("H2O", "CO2", "H2C18O", "CH4")
PARAMETERS = ("nu", "gamma", "S", "E")
RENDER_FORMATS = ("html", "json", "bibtex", "text")
CLI_CYCLE = 3 + len(RENDER_FORMATS)  # add, a render per format, list, export
MAX_FAILURE_MESSAGES = 20

_CSL_SOURCE_TYPE = {
    "journal-article": refs.model.SourceType.ARTICLE,
    "book": refs.model.SourceType.BOOK,
    "paper-conference": refs.model.SourceType.PROCEEDINGS,
    "report": refs.model.SourceType.REPORT,
    "dataset": refs.model.SourceType.OTHER,
}
_HTML_LABEL = re.compile(r"^<p>(\d+)[a-z]*\. ", re.M)
_BIB_DOI = re.compile(r"^    doi = \{([^}]*)\},$", re.M)


@dataclass
class Window:
    """A stretch of one run: a pass, a command cycle or half a second."""

    ops: list[tuple[float, float]] = field(default_factory=list)  # (ms, injected wait ms)
    reference_us: list[float] = field(default_factory=list)

    def scaled_ms(self) -> list[float]:
        """Latencies with the time outside injected wait scaled to nominal machine speed."""
        scale = NOMINAL_US / median(self.reference_us)
        return [(ms - wait) * scale + wait for ms, wait in self.ops]


@dataclass
class SetupClock:
    """Time spent in the program during one set-up, and the commit reference meanwhile."""

    commit_ref: CommitReference
    program_s: float = 0.0
    reference_ms: list[float] = field(default_factory=list)

    def since(self, t0: float) -> None:
        self.program_s += time.perf_counter() - t0

    def calibrate(self) -> None:
        """Time the commit reference between program calls, never inside one."""
        self.reference_ms.append(self.commit_ref.run_ms())

    def scaled_s(self) -> float:
        """Set-up time at nominal machine speed: set-up is mostly commits."""
        return self.program_s * NOMINAL_COMMIT_MS / median(self.reference_ms)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setups: list[SetupClock] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    windows: list[Window] = field(default_factory=lambda: [Window()])
    reference: Reference = field(default_factory=Reference)
    kind_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)
    details: list[tuple[str, float, str]] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)
    child_peak_kb: int | None = None  # set when the program runs in child processes
    group: int = 1  # consecutive operations averaged into one sample of op_ms_p50
    child_spans: Path | None = None

    def check(self, problems: list[str], what: str) -> None:
        """Record one checked operation; any problem makes it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    def record(self, kind: str, ms: float, wait_ms: float = 0.0) -> None:
        self.op_ms.append(ms)
        self.kind_ms[kind].append(ms)
        self.windows[-1].ops.append((ms, wait_ms))

    def calibrate(self, times: int = 1) -> None:
        """Time the reference task between operations, never inside one."""
        for _ in range(times):
            self.windows[-1].reference_us.append(self.reference.run_us())

    def new_window(self) -> None:
        if self.windows[-1].ops:
            self.windows.append(Window())

    def reference_us(self) -> float:
        return median([us for w in self.windows for us in w.reference_us])

    def end_to_end(self) -> dict[str, float]:
        """Set-up time and median operation latency at nominal machine speed, memory.

        Set-up time is the median over set-ups. The latency is the median
        over operations, each scaled by its window's reference timing and
        averaged over groups of ``group``. A window without a reference
        timing (an operation cut off before it) is left out.
        """
        peak_kb = peak_rss_kb() if self.child_peak_kb is None else self.child_peak_kb
        scaled = [ms for w in self.windows if w.reference_us for ms in w.scaled_ms()]
        n = self.group
        samples = [sum(scaled[i:i + n]) / n for i in range(0, len(scaled) - n + 1, n)]
        return {
            "setup_s": median([c.scaled_s() for c in self.setups]),
            "op_ms_p50": median(samples),
            "peak_rss_mb": peak_kb / 1024.0,
        }


class _NoTracer:
    """Stand-in so workloads need no branches on tracing."""

    request_id = None

    def paused(self):
        return contextlib.nullcontext()


NO_TRACER = _NoTracer()


def to_record(work: Work) -> refs.model.BibRecord:
    pages = None
    if work.pages:
        first, _, last = work.pages.partition("-")
        pages = refs.model.Pages(first=first, last=last or None)
    return refs.model.BibRecord(
        title=work.title,
        authors=[refs.model.make_author(a.given, a.surname) for a in work.authors],
        source_type=_CSL_SOURCE_TYPE[work.csl_type],
        journal=work.journal,
        volume=work.volume,
        pages=pages,
        year=work.year,
        publisher=work.publisher,
        doi=refs.identifiers.parse_doi(work.doi),
        bibcode=refs.identifiers.parse_bibcode(work.bibcode) if work.bibcode else None,
    )


def record_problems(record, work: Work) -> list[str]:
    """Compare a stored record with the work it was made from."""
    problems = []
    if record.title != work.title:
        problems.append(f"title {record.title!r} != {work.title!r}")
    if not record.authors or record.authors[0].surname != work.first_surname:
        got = record.authors[0].surname if record.authors else None
        problems.append(f"first surname {got!r} != {work.first_surname!r}")
    if record.year != work.year:
        problems.append(f"year {record.year} != {work.year}")
    if record.doi is None or record.doi.canonical != work.doi:
        problems.append(f"doi {record.doi} != {work.doi}")
    return problems


def _remove_db(path: Path) -> None:
    for suffix in ("", "-journal", "-wal", "-shm"):
        Path(str(path) + suffix).unlink(missing_ok=True)


# -- import-rtt --------------------------------------------------------


def _import_plan(gen: WorkGenerator, fake: FakeUpstream) -> list[tuple[str, Work]]:
    """One pass: the mix in a seeded order; repeats name a DOI added before them."""
    kinds = [k for k, n in IMPORT_PASS.items() for _ in range(n)]
    gen.rng.shuffle(kinds)
    first_new = next(i for i, k in enumerate(kinds) if k != "repeat" and k != "unregistered")
    kinds.insert(0, kinds.pop(first_new))
    plan: list[tuple[str, Work]] = []
    added: list[Work] = []
    for kind in kinds:
        if kind == "repeat":
            plan.append((kind, gen.rng.choice(added)))
            continue
        work = gen.work(bibcode=kind == "ads")
        if kind != "unregistered":
            fake.add_work(work, in_ads=kind == "ads", bibtex=kind != "fallback406")
            added.append(work)
        plan.append((kind, work))
    return plan


def _open_empty_store(path: Path, commit_ref: CommitReference, out: Outcome):
    """Set-up of import-rtt: a fresh store, timed."""
    clock = SetupClock(commit_ref)
    clock.calibrate()
    t0 = time.perf_counter()
    store = refs.store.RefStore(path)
    clock.since(t0)
    clock.calibrate()
    out.setups.append(clock)
    return store


def import_rtt(seed: int, seconds: float, workdir: Path, commit_ref: CommitReference,
               tracer=NO_TRACER, setup_repeats: int = IMPORT_SETUP_REPEATS) -> Outcome:
    """Resolve and store a seeded DOI stream through a 20 ms RTT upstream.

    Every pass starts from an empty store. Opening one takes milliseconds,
    so set-up is also repeated ``setup_repeats`` times before the first pass.
    """
    out = Outcome()
    for i in range(setup_repeats):
        db = workdir / f"import-setup-{i}.db"
        _open_empty_store(db, commit_ref, out).close()
        _remove_db(db)
    cfg = refs.resolvers.AdsConfig(token=TOKEN, max_retries=3, backoff_base=0.0)
    gen = WorkGenerator(seed, "rtt")
    transport_totals: Counter = Counter()
    sums = Counter()
    settled = 0
    measured = 0.0
    pass_no = 0
    while pass_no == 0 or measured < seconds:
        db = workdir / f"import-{pass_no}.db"
        fake = FakeUpstream(TOKEN)
        plan = _import_plan(gen, fake)
        store = _open_empty_store(db, commit_ref, out)
        transport = LatencyTransport(fake, RTT_MS)
        gid_by_doi: dict[str, int] = {}
        pass_start = time.perf_counter()
        for i, (kind, work) in enumerate(plan):
            tracer.request_id = f"{pass_no}:{i}"
            raw = gen.raw_doi(work)
            before, waited = transport.total_requests, transport.wait_s
            error = gid = report = None
            t1 = time.perf_counter()
            try:
                doi = refs.identifiers.parse_doi(raw)
                gid, report = refs.pipeline.resolve_and_store_report(doi, None, store, cfg, transport)
            except Exception as exc:  # any refusal is checked below, never fatal
                error = exc
            out.record(kind, (time.perf_counter() - t1) * 1000.0, (transport.wait_s - waited) * 1000.0)
            settled += 1
            spent = transport.total_requests - before
            with tracer.paused():
                problems = _import_problems(kind, work, error, gid, report, gid_by_doi, store, out)
            if report is not None:
                sums[f"path_{report.path_taken.value}"] += 1
            if kind in ("ads", "fallback", "fallback406") and not problems:
                sums["useful_requests"] += spent
                gid_by_doi[work.doi] = gid
            out.check(problems, f"import {kind} {work.doi}")
            out.calibrate()
        measured += time.perf_counter() - pass_start
        out.new_window()
        with tracer.paused():
            live = store.list_entries()
            dois = sorted(r.doi.canonical for e in live for r in e.records)
            out.check([] if dois == sorted(gid_by_doi) else
                      [f"store holds {len(dois)} DOIs, expected {len(gid_by_doi)}"],
                      f"import pass {pass_no} store contents")
        store.close()
        sums["bytes_per_entry"] += db.stat().st_size / max(1, len(live))
        _remove_db(db)
        transport_totals.update(transport.requests)
        for name in ("retries", "bytes_in", "wait_s", "overshoot_s", "upstream_s"):
            sums[name] += getattr(transport, name)
        pass_no += 1

    requests = sum(transport_totals.values())
    requests_per_doi = requests / settled
    reports = sums["path_ads"] + sums["path_fallback"]
    out.details += [
        ("add_ms", out.op_ms, "ms"),
        ("import_dois_per_s", settled / (sum(out.op_ms) / 1000.0), "1/s"),
        ("http_requests_per_doi", requests_per_doi, "req/doi"),
    ]
    out.facts.update({
        "transport.requests": requests_per_doi,
        **{f"transport.requests.{k}": transport_totals[k] / settled
           for k in ("ads_search", "ads_export", "doi_csl", "doi_bibtex")},
        "transport.wait_ms": sums["wait_s"] * 1000.0 / settled,
        "transport.bytes_in": sums["bytes_in"] / settled,
        "transport.retries": sums["retries"],
        "transport.useful_ratio": sums["useful_requests"] / requests,
        "resolvers.ads_hit_ratio": sums["path_ads"] / reports,
        "pipeline.fallback_share": sums["path_fallback"] / reports,
        "store.bytes_per_entry": sums["bytes_per_entry"] / pass_no,
        "bench.fake_upstream_ms": sums["upstream_s"] * 1000.0 / requests,
        "bench.sleep_overshoot_ms": sums["overshoot_s"] * 1000.0 / requests,
        "check.bibtex_add_render_mismatch": out.counts["bibtex_add_render_mismatch"] / pass_no,
    })
    return out


def _import_problems(kind, work, error, gid, report, gid_by_doi, store, out) -> list[str]:
    if kind == "unregistered":
        if isinstance(error, refs.errors.ResolutionFailedError):
            return []
        return [f"expected ResolutionFailedError, got {error!r}"]
    if error is not None:
        return [f"refused: {error!r}"]
    if kind == "repeat":
        first = gid_by_doi.get(work.doi)
        return [] if gid == first else [f"repeat returned id {gid}, first add gave {first}"]
    problems = []
    if gid in gid_by_doi.values():
        problems.append(f"new DOI got id {gid}, already in use")
    path = "ads" if kind == "ads" else "fallback"
    if report.path_taken.value != path:
        problems.append(f"path {report.path_taken.value}, expected {path}")
    entry = store.get_entry(gid)
    if len(entry.records) != 1:
        problems.append(f"{len(entry.records)} records stored")
    problems += record_problems(entry.records[0], work)
    added = report.renders[refs.render.RenderFormat.BIBTEX].body
    if added != refs.render.render_bibtex(entry).body:
        out.counts["bibtex_add_render_mismatch"] += 1
    return problems


# -- registry-10k ------------------------------------------------------


class _Registry:
    """The store under test plus the generator's view of what it must hold."""

    def __init__(self, store, gen: WorkGenerator, tracer):
        self.store = store
        self.gen = gen
        self.tracer = tracer
        self.top = 0
        self.truth: dict[int, RegistryEntry] = {}
        self.live: list[int] = []
        self._slot: dict[int, int] = {}
        self.crossref_next: Counter = Counter()

    def added(self, gid: int, entry: RegistryEntry) -> None:
        self.truth[gid] = entry
        self.top = max(self.top, gid)
        self._slot[gid] = len(self.live)
        self.live.append(gid)

    def deleted(self, gid: int) -> None:
        slot = self._slot.pop(gid)
        last = self.live.pop()
        if last != gid:
            self.live[slot] = last
            self._slot[last] = slot
        del self.truth[gid]

    def records(self, entry: RegistryEntry) -> list:
        """The program's input for an entry, built outside any span."""
        with self.tracer.paused():
            return [to_record(w) for w in entry.works]


def _entry_problems(entry, gid: int, expected: RegistryEntry) -> list[str]:
    problems = [] if entry.global_id == gid else [f"loaded id {entry.global_id}"]
    if len(entry.records) != len(expected.works):
        return problems + [f"{len(entry.records)} records, expected {len(expected.works)}"]
    for record, work in zip(entry.records, expected.works):
        problems += record_problems(record, work)
    if entry.note != expected.note:
        problems.append(f"note {entry.note!r} != {expected.note!r}")
    return problems


def build_registry(path: Path, size: int, seed: int, namespace: str, out: Outcome,
                   commit_ref: CommitReference, tracer=NO_TRACER) -> _Registry:
    """Fill a fresh store through add_entry from the seeded corpus, timing the program.

    Each entry's records are made just before its add, so the benchmark
    never holds the whole corpus as records.
    """
    _remove_db(path)
    clock = SetupClock(commit_ref)
    clock.calibrate()
    t0 = time.perf_counter()
    reg = _Registry(refs.store.RefStore(path), WorkGenerator(seed, namespace), tracer)
    clock.since(t0)
    every = max(1, size // SETUP_REFERENCES)
    for i in range(1, size + 1):
        entry = registry_entry(reg.gen)
        records = reg.records(entry)
        t0 = time.perf_counter()
        gid = reg.store.add_entry(records, note=entry.note)
        clock.since(t0)
        reg.added(gid, entry)
        if i % every == 0:
            clock.calibrate()
    for gid in reg.live[:: 20]:
        key = (SCOPES[gid % len(SCOPES)], PARAMETERS[gid % len(PARAMETERS)])
        reg.crossref_next[key] += 1
        t0 = time.perf_counter()
        reg.store.attach_crossref(*key, reg.crossref_next[key], gid)
        clock.since(t0)
    out.setups.append(clock)
    out.check([] if reg.live == list(range(1, size + 1)) else ["ids are not 1..n"],
              f"build {size}-entry registry")
    return reg


def registry_10k(seed: int, seconds: float, workdir: Path, commit_ref: CommitReference,
                 tracer=NO_TRACER, setup_repeats: int = REGISTRY_SETUP_REPEATS) -> Outcome:
    """A closed-loop op mix against a 10 000-entry store; no network."""
    out = Outcome()
    reg = None
    for _ in range(setup_repeats):
        if reg is not None:
            reg.store.close()
            reg = None  # one registry's truth in memory at a time
        reg = build_registry(workdir / "registry.db", REGISTRY_SIZE, seed, "reg", out, commit_ref, tracer)
    rng = random.Random(f"registry-mix:{seed}")
    store = reg.store
    start = time.perf_counter()
    window_end = start + REGISTRY_WINDOW_S
    op = 0
    while (now := time.perf_counter()) < start + seconds:
        if now >= window_end:
            out.new_window()
            window_end += REGISTRY_WINDOW_S
        op += 1
        if op % 20 == 0:
            out.calibrate()
        tracer.request_id = op
        r = rng.random()
        if r < 0.60:
            _op_render(reg, rng, out)
        elif r < 0.75:
            _op_duplicate(reg, rng, out)
        elif r < 0.85:
            _op_fresh_add(reg, registry_entry(reg.gen), out)
        elif r < 0.95:
            _op_crossref(reg, rng, out)
        else:
            _op_delete_readd(reg, rng, out)

    tracer.request_id = "export"
    export_dir = workdir / "registry-export"
    t0 = time.perf_counter()
    ids = [e.global_id for e in store.list_entries()]
    html_path, bib_path = store.export_bundle(ids, export_dir)
    export_s = time.perf_counter() - t0
    out.check(_export_problems(reg, ids, html_path, bib_path), "list + export of every live entry")
    out.facts["store.bytes_per_entry"] = reg.store.path.stat().st_size / len(reg.live)
    store.close()
    _remove_db(workdir / "registry.db")
    shutil.rmtree(export_dir, ignore_errors=True)
    out.details += [
        ("registry_ops_per_s", len(out.op_ms) / (sum(out.op_ms) / 1000.0), "1/s"),
        ("render_ms", out.kind_ms["render"], "ms"),
        ("dup_reject_ms", out.kind_ms["duplicate"], "ms"),
        ("store_add_ms", out.kind_ms["fresh_add"], "ms"),
        ("crossref_ms", out.kind_ms["crossref"], "ms"),
        ("delete_readd_ms", out.kind_ms["delete_readd"], "ms"),
        ("export_s", export_s, "s"),
    ]
    return out


def _timed(out: Outcome, kind: str, t0: float) -> None:
    out.record(kind, (time.perf_counter() - t0) * 1000.0)


def _op_render(reg: _Registry, rng: random.Random, out: Outcome) -> None:
    gid = rng.choice(reg.live)
    fmt = rng.choice(RENDER_FORMATS)
    renderer = getattr(refs.render, "render_" + fmt)
    t0 = time.perf_counter()
    entry = reg.store.get_entry(gid)
    body = renderer(entry).body
    _timed(out, "render", t0)
    expected = reg.truth[gid]
    problems = _entry_problems(entry, gid, expected)
    problems += [f"{fmt} render lacks {w.doi}" for w in expected.works if w.doi not in body]
    out.check(problems, f"get+render {fmt} {gid}")


def _op_duplicate(reg: _Registry, rng: random.Random, out: Outcome) -> None:
    gid = rng.choice(reg.live)
    expected = reg.truth[gid]
    records = reg.records(expected)
    t0 = time.perf_counter()
    try:
        reg.store.add_entry(records, note=expected.note)
        problems = ["duplicate DOI set was stored again"]
    except refs.errors.DuplicateEntryError as exc:
        problems = [] if exc.existing_id == gid else [f"names {exc.existing_id}, not {gid}"]
    _timed(out, "duplicate", t0)
    out.check(problems, f"duplicate add of {gid}")


def _op_fresh_add(reg: _Registry, entry: RegistryEntry, out: Outcome) -> None:
    records = reg.records(entry)
    t0 = time.perf_counter()
    gid = reg.store.add_entry(records, note=entry.note)
    _timed(out, "fresh_add", t0)
    problems = [] if gid > reg.top else [f"new id {gid} is not above {reg.top}"]
    with reg.tracer.paused():
        problems += _entry_problems(reg.store.get_entry(gid), gid, entry)
    reg.added(gid, entry)
    out.check(problems, f"fresh add {entry.works[0].doi}")


def _op_crossref(reg: _Registry, rng: random.Random, out: Outcome) -> None:
    gid = rng.choice(reg.live)
    key = (rng.choice(SCOPES), rng.choice(PARAMETERS))
    reg.crossref_next[key] += 1
    local = reg.crossref_next[key]
    t0 = time.perf_counter()
    reg.store.attach_crossref(*key, local, gid)
    found = reg.store.lookup_crossref(*key, local)
    _timed(out, "crossref", t0)
    out.check([] if found == gid else [f"lookup gave {found}"], f"crossref {key} {local} -> {gid}")


def _op_delete_readd(reg: _Registry, rng: random.Random, out: Outcome) -> None:
    gid = rng.choice(reg.live)
    expected = reg.truth[gid]
    records = reg.records(expected)
    top = reg.top
    t0 = time.perf_counter()
    reg.store.delete_entry(gid)
    new = reg.store.add_entry(records, note=expected.note)
    _timed(out, "delete_readd", t0)
    reg.deleted(gid)
    problems = [] if new > top else [f"re-add got id {new}, not above {top}"]
    with reg.tracer.paused():
        try:
            reg.store.get_entry(gid)
            problems.append(f"tombstoned {gid} still loads")
        except refs.errors.MissingEntryError:
            pass
        problems += _entry_problems(reg.store.get_entry(new), new, expected)
    reg.added(new, expected)
    out.check(problems, f"delete {gid} and re-add")


def _export_problems(reg: _Registry, ids: list[int], html_path: Path, bib_path: Path) -> list[str]:
    live = sorted(reg.live)
    problems = [] if ids == live else [f"list_entries gave {len(ids)} ids, {len(live)} live"]
    html = html_path.read_text(encoding="utf-8")
    if html.count("<p>") != len(live):
        problems.append(f"HTML holds {html.count('<p>')} <p>, expected {len(live)}")
    if [int(m) for m in _HTML_LABEL.findall(html)] != live:
        problems.append("HTML entries are not one per live ID in ID order")
    bib = bib_path.read_text(encoding="utf-8")
    expected_dois = [w.doi for gid in live for w in reg.truth[gid].works]
    if sum(1 for line in bib.splitlines() if line.startswith("@")) != len(expected_dois):
        problems.append("BibTeX block count differs from live records")
    if _BIB_DOI.findall(bib) != expected_dois:
        problems.append("BibTeX DOIs out of ID order")
    return problems


# -- cli-session -------------------------------------------------------


def recorded_dois(fixtures: Path = FIXTURES) -> list[tuple[str, dict]]:
    """Resolvable DOIs in the recorded fixtures, with what resolving them must yield."""
    kb = FakeUpstream.from_fixture_dir(fixtures, TOKEN)
    found = [(doi, kb.expected(doi)) for doi in sorted(kb.ads_bibcodes)]
    return [(doi, expected) for doi, expected in found if expected is not None]


def _cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REFS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _wall_ms(argv: list[str], env: dict[str, str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1000.0


def cli_session(seed: int, seconds: float, workdir: Path, commit_ref: CommitReference,
                tracer=NO_TRACER, setup_repeats: int = SETUP_REPEATS) -> Outcome:
    """CLI commands in child processes, as an administrator types them."""
    # The operation is a command averaged over its cycle: the median of
    # single commands would fall between the renders and the slower add,
    # list and export, and jump from run to run.
    out = Outcome(child_peak_kb=0, group=CLI_CYCLE)
    recorded = recorded_dois()
    template = workdir / "cli-template.db"
    for _ in range(setup_repeats):
        reg = build_registry(template, CLI_STORE_SIZE, seed, "cli", out, commit_ref, tracer)
        reg.store.close()
    template_records = sum(len(e.works) for e in reg.truth.values())
    out.facts["store.bytes_per_entry"] = template.stat().st_size / CLI_STORE_SIZE

    env = _cli_env()
    command = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
    if tracer is not NO_TRACER:
        out.child_spans = workdir / "cli-spans.jsonl"
        command += ["--spans", str(out.child_spans)]
    db, export_dir = workdir / "cli.db", workdir / "cli-export"
    new_id = CLI_STORE_SIZE + 1
    rng = random.Random(f"cli:{seed}")
    order = list(recorded)
    rng.shuffle(order)

    def run(kind: str, *args: str) -> subprocess.CompletedProcess:
        t0 = time.perf_counter()
        proc = subprocess.run([*command, *args, "--db", str(db)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        out.record(kind, (time.perf_counter() - t0) * 1000.0)
        out.calibrate(3)
        out.new_window()
        lines = proc.stderr.splitlines()
        if lines and lines[-1].startswith("peak_rss_kb "):
            out.child_peak_kb = max(out.child_peak_kb, int(lines.pop().split()[1]))
            proc.stderr = "\n".join(lines)
        return proc

    def check(proc, problems: list[str], what: str) -> None:
        if proc.returncode != 0:
            problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"] + problems
        out.check(problems, what)

    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        doi, expected = order[cycle % len(order)]
        shutil.copyfile(template, db)
        proc = run("add", "add", "--doi", doi, "--offline", "--fixtures", str(FIXTURES))
        want = f"id={new_id} path={expected['path']}"
        check(proc, [] if proc.stdout.strip() == want else [f"printed {proc.stdout.strip()!r}, expected {want!r}"],
              f"add {doi}")
        formats = list(RENDER_FORMATS)
        rng.shuffle(formats)
        for fmt in formats:
            proc = run("render", "render", str(new_id), "--format", fmt)
            check(proc, _cli_render_problems(fmt, proc.stdout, doi, expected, new_id), f"render {fmt} {doi}")
        proc = run("list", "list")
        lines = proc.stdout.splitlines()
        check(proc, [] if len(lines) == new_id and lines[-1].startswith(f"{new_id}\t")
              else [f"list printed {len(lines)} lines"], "list")
        proc = run("export", "export", "--all", "-o", str(export_dir))
        problems = []
        if proc.returncode == 0:
            html = (export_dir / "refs.html").read_text(encoding="utf-8")
            bib = (export_dir / "refs.bib").read_text(encoding="utf-8")
            if [int(m) for m in _HTML_LABEL.findall(html)] != list(range(1, new_id + 1)) \
                    or html.count("<p>") != new_id:
                problems.append("HTML is not one <p> per ID in ID order")
            if sum(1 for line in bib.splitlines() if line.startswith("@")) != template_records + 1:
                problems.append("BibTeX block count differs from stored records")
        check(proc, problems, "export --all")
        cycle += 1
    _remove_db(db)
    _remove_db(template)
    shutil.rmtree(export_dir, ignore_errors=True)

    out.details += [
        (f"cli_{kind}_ms", out.kind_ms[kind], "ms") for kind in ("add", "render", "list", "export")
    ]
    if tracer is not NO_TRACER:
        interp = [_wall_ms([sys.executable, "-c", "pass"], env) for _ in range(10)]
        imported = [_wall_ms([sys.executable, "-c", "import refs.cli"], env) for _ in range(10)]
        out.facts["cli.interp_ms"] = median(interp)
        out.facts["cli.import_ms"] = median(imported) - median(interp)
    return out


def _cli_render_problems(fmt: str, stdout: str, doi: str, expected: dict, new_id: int) -> list[str]:
    if fmt != "json":
        missing = [v for v in (doi, str(expected["year"])) if v not in stdout]
        return [f"{fmt} output lacks {v!r}" for v in missing]
    try:
        data = json.loads(stdout)
        record = data["records"][0]
        got = (data["global_id"], record["title"], record["authors"][0]["surname"],
               record["year"], record["doi"])
    except (ValueError, KeyError, IndexError) as exc:
        return [f"json output unreadable: {exc!r}"]
    want = (new_id, expected["title"], expected["surname"], expected["year"], doi)
    return [] if got == want else [f"json render {got} != {want}"]


WORKLOADS = {
    "import-rtt": import_rtt,
    "registry-10k": registry_10k,
    "cli-session": cli_session,
}
