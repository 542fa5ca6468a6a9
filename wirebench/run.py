"""The repository benchmark: ``python -m repro serve`` driven over the wire.

Usage (from the root of a checkout)::

    python3 wirebench/run.py --workload validate-small --seed 1 --seconds 20 --trace 0

The command starts the server as its own process, drives it from this one
client process over at most two connections with seeded inputs, checks
every answer and prints each metric by name and unit (with the sample
count of each latency), then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is made twice, untraced and
then through the span-recording launcher, and the metrics are the
per-layer ones.  ``--out FILE`` appends the full result record (metrics,
sample counts and the provenance block) to FILE as one JSON line, the
input of ``wirebench/compare.py``.  See ``wirebench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("validate-small", "validate-mixed", "approximate")
#: Server launches per run; setup_s is the median of their set-up times.
SETUPS = 5
#: The open-loop generator fails the run when its p99 lag exceeds this.
LAG_LIMIT_MS = 20.0

#: The end-to-end metrics of BENCHMARK.json.  Each workload maps them
#: onto its own named metrics (see ``headline``).
END_TO_END = {
    "setup_s": "s",
    "rate_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "server_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the result record to this file")
    return parser.parse_args(argv)


async def measure(workload, workdir: Path, *, traced: bool, setups: int, disk_tier: bool):
    """Set a server up *setups* times, run the workload on the last one
    and collect what the client and /proc saw; returns (result, trace)."""
    from server import Server
    from workloads import StealMonitor, setup_server

    setup_times: list[float] = []
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                for conn in conns:
                    await conn.close()
                server.cleanup()
            server = Server(ROOT, workdir / f"server-{attempt}", traced=traced, disk_tier=disk_tier)
            setup_s, conns = await setup_server(workload, server)
            setup_times.append(setup_s)
        # The client's own garbage collector must not stall the load
        # generator inside the timed window.
        gc.collect()
        gc.freeze()
        gc.disable()
        server_cpu = server.cpu_seconds()
        client_cpu = time.process_time()
        steal = StealMonitor()
        steal.start()
        try:
            result = await workload.run(conns)
        finally:
            steal.stop()
            gc.enable()
        result.client_cpu_s = time.process_time() - client_cpu
        result.steal = steal
        result.steal_share = steal.share(result.start, result.end)
        result.server_cpu_s = server.cpu_seconds() - server_cpu
        result.server_rss_mb = server.peak_rss_mb()
        result.setup_s = statistics.median(setup_times)
        stats = await conns[0].request({"id": "stats", "op": "stats"})
        if isinstance(stats, dict) and stats.get("ok"):
            result.server_stats = stats["result"]
        for conn in conns:
            await conn.close()
        server.stop()
        trace = None
        if traced:
            with open(server.spans_path, encoding="utf-8") as handle:
                trace = json.load(handle)
        return result, trace
    finally:
        if server is not None:
            server.cleanup()


def headline(workload, result) -> dict[str, tuple[float, str, int | None]]:
    """The workload's own end-to-end metrics: name -> (value, unit, samples).

    Rates and latency percentiles are medians over the workload's
    measured windows (see ``Workload.measured_windows``); a failed
    operation counts as an infinite latency.
    """
    from stats import percentile
    from workloads import lag_p99_ms

    attempted = len(result.samples)
    failed = sum(1 for s in result.samples if s.problem is not None)
    windows = workload.measured_windows(result)
    counted = sum(len(w.samples) for w in windows)

    def latency_ms(q: float) -> float:
        return statistics.median(
            percentile(sorted(s.latency * 1e3 for s in w.samples), q) for w in windows
        )

    rate = statistics.median(w.rate for w in windows)
    rows: dict[str, tuple[float, str, int | None]] = {"setup_s": (result.setup_s, "s", None)}
    if workload.name == "approximate":
        rows["approximate_per_s"] = (rate, "1/s", counted)
        rows["approximate_p50_ms"] = (latency_ms(0.50), "ms", counted)
        rows["approximate_p90_ms"] = (latency_ms(0.90), "ms", counted)
    else:
        if workload.name == "validate-small":
            rows["validate_rps"] = (rate, "1/s", counted)
        else:
            large = sum(1 for s in result.samples if s.kind == "large")
            rows["large_mb_per_s"] = (rate, "MB/s", large)
        rows["validate_p50_ms"] = (latency_ms(0.50), "ms", counted)
        rows["validate_p99_ms"] = (latency_ms(0.99), "ms", counted)
    rows["failed_share"] = (failed / max(1, attempted), "ratio", attempted)
    rows["server_rss_mb"] = (result.server_rss_mb, "MB", None)
    if workload.name == "validate-mixed":
        rows["client_lag_p99_ms"] = (lag_p99_ms(result.samples), "ms", None)
    rows["cpu_steal_share"] = (result.steal_share, "ratio", None)
    return rows


def contract_metrics(rows: dict) -> dict[str, float]:
    """Map a workload's own metrics onto the names of BENCHMARK.json."""
    def first(*names: str) -> float:
        for name in names:
            if name in rows:
                return rows[name][0]
        raise KeyError(names)

    return {
        "setup_s": rows["setup_s"][0],
        "rate_per_s": first("validate_rps", "large_mb_per_s", "approximate_per_s"),
        "p50_ms": first("validate_p50_ms", "approximate_p50_ms"),
        "tail_ms": first("validate_p99_ms", "approximate_p90_ms"),
        "server_rss_mb": rows["server_rss_mb"][0],
    }


def generator_problem(workload, result) -> str | None:
    """Why the open-loop generator invalidates the run, if it does."""
    from workloads import lag_p99_ms

    if workload.name != "validate-mixed":
        return None
    lag = lag_p99_ms(result.samples)
    if lag > LAG_LIMIT_MS:
        return f"open-loop generator fell behind: p99 lag {lag:.2f} ms > {LAG_LIMIT_MS} ms"
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A launcher that ignores SIGINT (a background job of a shell) would
    # pass that on to the server, which is stopped with SIGINT.  Handling
    # it here makes every child start with the default disposition.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Stopped from outside, still stop the server on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import inputs_digest
    from layers import metric_units, per_layer
    from stats import environment
    from workloads import WORKLOADS

    from server import CLIENT_CPUS

    if CLIENT_CPUS:
        os.sched_setaffinity(0, CLIENT_CPUS)
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    digest = inputs_digest(*workload.digest_parts())
    env = environment(ROOT, args.seed, digest)
    workdir = ROOT / ".wirebench" / f"run-{os.getpid()}"
    # Both passes of a traced run keep the disk tier, so the breakdown
    # covers it and the overhead compares like with like.
    disk_tier = bool(args.trace) or workload.disk_tier
    try:
        result, _ = asyncio.run(measure(
            workload, workdir, traced=False, setups=1 if args.trace else SETUPS,
            disk_tier=disk_tier,
        ))
        workload.finish(result)
        traced = trace = None
        if args.trace:
            traced, trace = asyncio.run(
                measure(workload, workdir, traced=True, setups=1, disk_tier=disk_tier)
            )
            workload.finish(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [result] if traced is None else [result, traced]
    attempted = sum(len(run.samples) for run in runs)
    problems = [s.problem for run in runs for s in run.samples if s.problem is not None]
    reasons = sorted(set(problems))[:5]
    invalid = [p for p in (generator_problem(workload, run) for run in runs) if p]
    if threading.active_count() != 1:
        invalid.append(f"the client ran {threading.active_count()} threads")

    rows = headline(workload, result)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit, count) in rows.items():
        samples = "" if count is None else f"  (n={count})"
        print(f"  {name:<22} {value:14.4f} {unit}{samples}")
    if traced is None:
        metrics = contract_metrics(rows)
        units = END_TO_END
    else:
        overhead = workload.throughput(result) / workload.throughput(traced) - 1.0
        critical = "op" if workload.name == "approximate" else "small"
        metrics = per_layer(traced, trace["spans"], trace["memo"], critical, overhead)
        units = metric_units()
        for name, value in metrics.items():
            print(f"  {name:<46} {value:14.4f} {units[name]}")
    for reason in reasons + invalid:
        print(f"FAILED: {reason}")
    correct = not problems and not invalid
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": len(problems),
        "headline": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in rows.items()},
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
