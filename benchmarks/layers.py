"""Per-layer metrics of a traced run.

A metric comes from spans (a median duration or self time), from
counters the workload keeps without spans (requests, bytes, store size),
or from the traced − untraced difference of an end-to-end metric. A
metric whose spans were never recorded reads 0: either the workload does
not exercise that layer, or every function it wraps is missing from the
program (then it is also listed as absent). The end-to-end metric each
should move is mapped in benchmarks/README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from stats import median
from tracing import SpanStats

# Names, units and directions are defined once, in BENCHMARK.json.
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

NS_PER = {"us": 1e3, "ms": 1e6}
OVERHEAD = "overhead."

# Per-layer metrics read from spans: name -> (how, span names). The unit
# (us or ms) comes from BENCHMARK.json. A per-layer metric that is neither
# here nor an overhead is a counter the workload keeps without spans.
SPAN_METRICS = {
    "identifiers.parse_doi_us": ("duration", ["identifiers.parse_doi"]),
    "resolvers.resolve_bibcode_self_ms": ("self", ["resolvers.resolve_bibcode"]),
    "resolvers.fetch_ads_export_self_ms": ("self", ["resolvers.fetch_ads_export"]),
    "resolvers.fetch_csl_json_self_ms": ("self", ["resolvers.fetch_csl_json"]),
    "resolvers.fetch_bibtex_self_ms": ("self", ["resolvers.fetch_bibtex"]),
    "resolvers.map_us": ("duration", ["resolvers.ads_doc_to_record", "resolvers.csl_to_record"]),
    "pipeline.resolve_ms": ("duration", ["pipeline.resolve_reference"]),
    "pipeline.self_ms": ("layer_self", ["pipeline.resolve_and_store_report", "pipeline.resolve_reference"]),
    "render.html_us": ("duration", ["render.html"]),
    "render.text_us": ("duration", ["render.text"]),
    "render.json_us": ("duration", ["render.json"]),
    "render.bibtex_us": ("duration", ["render.bibtex"]),
    "model.entry_to_dict_us": ("duration", ["model.entry_to_dict"]),
    "store.open_ms": ("duration", ["store.open"]),
    "store.add_ms": ("ok", ["store.add_entry"]),
    "store.dup_reject_ms": ("DuplicateEntryError", ["store.add_entry"]),
    "store.get_ms": ("duration", ["store.get_entry"]),
    "store.list_ms": ("duration", ["store.list_entries"]),
    "store.export_ms": ("duration", ["store.export_bundle"]),
    "store.crossref_us": ("duration", ["store.attach_crossref", "store.lookup_crossref"]),
    "store.delete_us": ("duration", ["store.delete_entry"]),
    "cli.main_ms": ("duration", ["cli.main"]),
}


def _span_value(stats: SpanStats, how: str, spans: list[str], unit: str) -> float:
    if how == "duration":
        samples = [d for s in spans for d in stats.duration_ns.get(s, [])]
    elif how == "self":
        samples = [d for s in spans for d in stats.self_ns.get(s, [])]
    elif how == "layer_self":
        samples = list(stats.layer_request_self_ns.get(spans[0].split(".")[0], {}).values())
    else:
        err = None if how == "ok" else how
        samples = [d for s in spans for d in stats.outcome_ns.get((s, err), [])]
    return median(samples) / NS_PER[unit] if samples else 0.0


def layer_metrics(stats: SpanStats, facts: dict[str, float], absent: set[str],
                  untraced: dict[str, float], traced: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, and the names of those whose spans are all absent."""
    values: dict[str, float] = {}
    missing = []
    for name, unit in PER_LAYER_UNITS.items():
        if name in SPAN_METRICS:
            how, spans = SPAN_METRICS[name]
            if all(s in absent for s in spans):
                missing.append(name)
            values[name] = _span_value(stats, how, spans, unit)
        elif name.startswith(OVERHEAD):
            e2e = name[len(OVERHEAD):]
            values[name] = traced[e2e] - untraced[e2e]
        else:
            values[name] = float(facts.get(name, 0.0))
    return values, missing
