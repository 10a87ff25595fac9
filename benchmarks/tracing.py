"""Spans around the program's public functions, placed from outside.

The tracer replaces the names callers look up (``refs.pipeline.resolve_bibcode``,
``refs.store.render_html``, the ``RefStore`` methods, ...) with wrappers
that record a span: name, start, end, parent span, request id and the
exception type if one escaped. Spans stay in memory until the run ends.
A target that no longer exists is recorded as absent instead of failing
the run. The untraced run never installs a tracer, so it carries no
wrappers at all.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module:qualified attribute, span name). Several targets may share a span
# name when callers in different modules look the same function up.
TARGETS = (
    ("refs.pipeline:resolve_and_store_report", "pipeline.resolve_and_store_report"),
    ("refs.pipeline:resolve_reference", "pipeline.resolve_reference"),
    ("refs.pipeline:resolve_bibcode", "resolvers.resolve_bibcode"),
    ("refs.pipeline:fetch_ads_export", "resolvers.fetch_ads_export"),
    ("refs.pipeline:fetch_csl_json", "resolvers.fetch_csl_json"),
    ("refs.pipeline:fetch_bibtex", "resolvers.fetch_bibtex"),
    ("refs.pipeline:ads_doc_to_record", "resolvers.ads_doc_to_record"),
    ("refs.pipeline:csl_to_record", "resolvers.csl_to_record"),
    ("refs.pipeline:render_all", "render.all"),
    ("refs.cli:render_all", "render.all"),
    ("refs.render:render_html", "render.html"),
    ("refs.render:render_text", "render.text"),
    ("refs.render:render_json", "render.json"),
    ("refs.render:render_bibtex", "render.bibtex"),
    ("refs.store:render_html", "render.html"),
    ("refs.store:render_bibtex", "render.bibtex"),
    ("refs.render:entry_to_dict", "model.entry_to_dict"),
    ("refs.identifiers:parse_doi", "identifiers.parse_doi"),
    ("refs.resolvers:parse_doi", "identifiers.parse_doi"),
    ("refs.store:parse_doi", "identifiers.parse_doi"),
    ("refs.cli:parse_doi", "identifiers.parse_doi"),
    ("refs.store:RefStore.__init__", "store.open"),
    ("refs.store:RefStore.add_entry", "store.add_entry"),
    ("refs.store:RefStore.get_entry", "store.get_entry"),
    ("refs.store:RefStore.list_entries", "store.list_entries"),
    ("refs.store:RefStore.export_bundle", "store.export_bundle"),
    ("refs.store:RefStore.attach_crossref", "store.attach_crossref"),
    ("refs.store:RefStore.lookup_crossref", "store.lookup_crossref"),
    ("refs.store:RefStore.delete_entry", "store.delete_entry"),
    ("refs.cli:main", "cli.main"),
    ("upstream:LatencyTransport.execute", "transport.execute"),
    ("upstream:FakeUpstream.execute", "bench.fake_upstream"),
)

# A span as recorded: [name, start_ns, end_ns, parent index, request id, error].
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_id: object = None
        self.active = True
        self.patched: set[str] = set()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        for target, name in targets:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.add(name)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))
            self.patched.add(name)
        self.absent -= self.patched

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not the program's work."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def dump(self, path: Path) -> None:
        """Append the spans as JSON lines; parent indices are local to this dump."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"dump": len(self.spans)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_dumps(path: Path) -> list[list[Span]]:
    """Read back every dump appended to a span file."""
    dumps: list[list[Span]] = []
    if not path.exists():
        return dumps
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            item = json.loads(line)
            if isinstance(item, dict):
                dumps.append([])
            else:
                dumps[-1].append(item)
    return dumps


class SpanStats:
    """Durations and self times by span name, and self time by layer and request."""

    def __init__(self) -> None:
        self.duration_ns: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        # Durations by (span name, exception type or None).
        self.outcome_ns: dict[tuple[str, str | None], list[int]] = defaultdict(list)
        self.layer_request_self_ns: dict[str, dict[object, int]] = defaultdict(lambda: defaultdict(int))

    def add(self, spans: list[Span]) -> None:
        """Self time is a span's duration minus the time its child spans cover."""
        child_ns = [0] * len(spans)
        for name, start, end, parent, _rid, _err in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _parent, rid, err), children in zip(spans, child_ns):
            duration = end - start
            self.duration_ns[name].append(duration)
            self.self_ns[name].append(duration - children)
            self.outcome_ns[(name, err)].append(duration)
            layer = name.split(".", 1)[0]
            self.layer_request_self_ns[layer][rid] += duration - children
