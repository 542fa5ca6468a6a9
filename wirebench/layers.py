"""Per-layer metrics of a traced run, from server spans and client samples.

A span's self time is its duration minus the durations of its child
spans.  Times are self time per operation (``_us``/``_ms``) or per
element node of the requests that reached the layer (``_us_per_node``);
``calls`` and ``dfa_states`` are per operation; hit/miss counters are
totals.  Only spans that start inside the timed window count, so set-up
and the closing ``stats`` request are left out.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from stats import percentile
from workloads import COUNT_PREFIX, RunResult, Sample, lag_p99_ms

#: Every memo tier ``cache_stats()`` reports, in a fixed order.
MEMO_TIERS = (
    "min_dfa",
    "content_model",
    "schema_guided_det",
    "schema_guided_min_dfa",
    "bta_determinize",
    "bta_from_edtd",
    "bta_inclusion",
    "edtd_monoid",
    "schema_guided_bta_det",
)

#: (metric, span name, scale) for self time per operation.
_PER_OP = (
    ("service.protocol.decode_us", "service.protocol.decode", 1e6),
    ("service.protocol.encode_us", "service.protocol.encode", 1e6),
    ("service.server.dispatch_self_us", "service.server.handle_request", 1e6),
    ("service.registry.lookup_us", "service.registry.lookup", 1e6),
    ("service.registry.register_ms", "service.registry.register", 1e3),
    ("api.validate_self_us", "api.validate", 1e6),
    ("api.compile_ms", "api.compile", 1e3),
    ("api.approximate_self_ms", "api.approximate", 1e3),
    ("schemas.text_format.loads_ms", "schemas.text_format.loads", 1e3),
    ("schemas.text_format.dumps_ms", "schemas.text_format.dumps", 1e3),
    ("core.upper.self_ms", "core.upper", 1e3),
    ("schemas.type_automaton.ms", "schemas.type_automaton", 1e3),
    ("strings.determinize.ms", "strings.determinize", 1e3),
    ("strings.kernels.content_model_ms", "strings.kernels.content_model", 1e3),
    ("strings.kernels.structural_key_ms", "strings.kernels.structural_key", 1e3),
    ("strings.kernels.hopcroft_ms", "strings.kernels.hopcroft", 1e3),
    ("strings.schema_guided.ms", "strings.schema_guided", 1e3),
    ("strings.minimize.minimize_dfa_ms", "strings.minimize.minimize_dfa", 1e3),
    ("schemas.dfa_xsd.to_single_type_ms", "schemas.dfa_xsd.to_single_type", 1e3),
    ("schemas.edtd.reduced_ms", "schemas.edtd.reduced", 1e3),
    ("schemas.minimize.minimize_single_type_ms", "schemas.minimize.minimize_single_type", 1e3),
    ("cache.store.get_ms", "cache.store.get", 1e3),
    ("cache.store.put_ms", "cache.store.put", 1e3),
)

#: (metric, span name) for self time per element node.
_PER_NODE = (
    ("trees.xml_io.from_xml_us_per_node", "trees.xml_io.from_xml"),
    ("trees.arena.from_tree_us_per_node", "trees.arena.from_tree"),
    ("schemas.edtd.accepts_self_us_per_node", "schemas.edtd.accepts"),
    ("tree_automata.kernels.type_masks_us_per_node", "tree_automata.kernels.type_masks"),
)

#: (metric, span name) for calls per operation.
_CALLS = (
    ("strings.determinize.calls", "strings.determinize"),
    ("strings.kernels.content_model_calls", "strings.kernels.content_model"),
    ("strings.kernels.structural_key_calls", "strings.kernels.structural_key"),
    ("strings.schema_guided.calls", "strings.schema_guided"),
    ("strings.minimize.minimize_dfa_calls", "strings.minimize.minimize_dfa"),
)


def _unit(metric: str) -> str:
    if metric.endswith(("_us", "_us_per_node", "_us_per_op")):
        return "us"
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["client.lag_p99_ms", "client.cpu_share"]
    names += [
        "service.server.queue_wait_p50_ms",
        "service.server.queue_wait_p99_ms",
        "service.server.busy_share",
        "service.server.cpu_us_per_op",
        "service.server.unattributed_us",
    ]
    names += [f"service.registry.{key}" for key in ("hits", "misses", "compiles", "evictions")]
    names += [metric for metric, _, _ in _PER_OP]
    names += [metric for metric, _ in _PER_NODE]
    names += [metric for metric, _ in _CALLS]
    names += ["strings.determinize.dfa_states", "cache.store.hits", "cache.store.misses"]
    for tier in MEMO_TIERS:
        names += [f"cache.memo.{tier}.hits", f"cache.memo.{tier}.misses"]
    names += ["runtime.budget.states", "runtime.budget.steps", "trace.overhead_share"]
    return names


def metric_units() -> dict[str, str]:
    return {name: _unit(name) for name in metric_names()}


def budget_counts(samples: list[Sample]) -> tuple[int, int]:
    """States and steps the answers report, over the stream prefix."""
    prefix = [s for s in samples if s.index < COUNT_PREFIX and s.problem is None]
    return sum(s.states for s in prefix), sum(s.steps for s in prefix)


def _rids(sample: Sample) -> tuple[int, ...]:
    return (sample.rid, sample.rid + 1) if sample.kind == "op" else (sample.rid,)


def per_layer(
    result: RunResult,
    spans: list[list],
    memo: dict[str, dict],
    critical: str,
    overhead_share: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    *critical* is the sample kind whose latency the workload reports
    (``small`` or ``op``); queue waits are measured on it.
    """
    low, high = int(result.start * 1e9), int(result.end * 1e9)
    window = [span for span in spans if low <= span[4] <= high]
    children: dict[int, int] = defaultdict(int)
    for span_id, parent, _, _, start, end, _ in window:
        if parent is not None:
            children[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, int] = defaultdict(int)
    rids_by_name: dict[str, set] = defaultdict(set)
    request_ns: dict[Any, int] = defaultdict(int)
    root_ns = 0
    for span_id, parent, rid, name, start, end, note in window:
        self_ns[name] += end - start - children.get(span_id, 0)
        calls[name] += 1
        if isinstance(note, int):
            notes[name] += note
        rids_by_name[name].add(rid)
        if name == "service.server.handle_request":
            request_ns[rid] += end - start
        if parent is None:
            root_ns += end - start
    ops = max(1, len(result.samples))
    wall = result.end - result.start
    nodes_by_rid = {s.rid: s.nodes for s in result.samples}

    metrics: dict[str, float] = {}
    for metric, name, scale in _PER_OP:
        metrics[metric] = self_ns[name] / 1e9 * scale / ops
    for metric, name in _PER_NODE:
        nodes = sum(nodes_by_rid.get(rid, 0) for rid in rids_by_name[name])
        metrics[metric] = self_ns[name] / 1e3 / nodes if nodes else 0.0
    for metric, name in _CALLS:
        metrics[metric] = calls[name] / ops
    metrics["strings.determinize.dfa_states"] = notes["strings.determinize"] / ops
    metrics["cache.store.hits"] = notes["cache.store.get"]
    metrics["cache.store.misses"] = calls["cache.store.get"] - notes["cache.store.get"]

    metrics["client.lag_p99_ms"] = lag_p99_ms(result.samples)
    metrics["client.cpu_share"] = result.client_cpu_s / wall
    waits = sorted(
        (s.latency - sum(request_ns.get(rid, 0) for rid in _rids(s)) / 1e9) * 1e3
        for s in result.samples
        if s.kind == critical and s.problem is None
    )
    metrics["service.server.queue_wait_p50_ms"] = percentile(waits, 0.50) if waits else 0.0
    metrics["service.server.queue_wait_p99_ms"] = percentile(waits, 0.99) if waits else 0.0
    metrics["service.server.busy_share"] = sum(request_ns.values()) / 1e9 / wall
    cpu_us = result.server_cpu_s * 1e6 / ops
    metrics["service.server.cpu_us_per_op"] = cpu_us
    metrics["service.server.unattributed_us"] = cpu_us - root_ns / 1e3 / ops
    registry = result.server_stats.get("registry", {})
    for key in ("hits", "misses", "compiles", "evictions"):
        metrics[f"service.registry.{key}"] = registry.get(key, 0)
    for tier in MEMO_TIERS:
        counters = memo.get(tier, {})
        metrics[f"cache.memo.{tier}.hits"] = counters.get("hits", 0)
        metrics[f"cache.memo.{tier}.misses"] = counters.get("misses", 0)
    states, steps = budget_counts(result.samples)
    metrics["runtime.budget.states"] = states
    metrics["runtime.budget.steps"] = steps
    metrics["trace.overhead_share"] = overhead_share
    return {name: metrics[name] for name in metric_names()}
