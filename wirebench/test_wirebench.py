"""Tests of the benchmark itself: inputs, answer checks, failure
accounting, span arithmetic and the comparison verdicts.

Run from the repository root with ``python3 -m pytest wirebench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import inputs
from checks import check_approximation, check_validate
from repro.api import approximate_upper
from layers import metric_names, per_layer
from repro.families.hard import example_2_6, theorem_3_2_family
from repro.families.real_world import rss_feed
from repro.schemas.text_format import dumps, loads
from repro.trees.generate import sample_tree
from repro.trees.xml_io import DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES, from_xml
from run import contract_metrics, headline
from workloads import Approximate, RunResult, Sample, ValidateSmall, _record_validate

HERE = Path(__file__).resolve().parent


def _reference_accepts(schema_text: str, xml: str) -> bool:
    schema = loads(schema_text)
    return bool(schema.possible_types_reference(from_xml(xml)) & schema.starts)


def _ok(result: dict, rid: int = 1) -> dict:
    return {"id": rid, "ok": True, "result": result}


ERROR_ENVELOPE = {"id": 1, "ok": False, "error": {"type": "ServiceError", "message": "boom"}}


# -- inputs ------------------------------------------------------------

def test_small_documents_get_the_generator_verdict():
    schemas = inputs.validate_schemas()
    documents = inputs.small_documents(7, count=60)
    assert sum(not d.valid for d in documents) == 60 // inputs.SMALL_INVALID_EVERY
    for doc in documents:
        assert _reference_accepts(schemas[doc.schema], doc.xml) is doc.valid
        assert from_xml(doc.xml).size() == doc.nodes


def test_large_documents_stay_inside_the_parser_limits():
    schemas = inputs.mixed_schemas()
    for doc in inputs.large_documents(3):
        tree = from_xml(doc.xml)
        assert tree.size() == doc.nodes < DEFAULT_MAX_NODES
        assert tree.depth() <= DEFAULT_MAX_DEPTH
        assert len(doc.xml.encode()) < 4 * 1024 * 1024 - 1024
        assert _reference_accepts(schemas[doc.schema], doc.xml) is doc.valid
    deep = [d for d in inputs.large_documents(3) if d.schema == "deep"]
    assert max(from_xml(d.xml).depth() for d in deep) == DEFAULT_MAX_DEPTH


def test_the_seed_fixes_the_inputs():
    one = inputs.inputs_digest(inputs.small_documents(5, 30), inputs.approximate_stream(5, 24))
    two = inputs.inputs_digest(inputs.small_documents(5, 30), inputs.approximate_stream(5, 24))
    other = inputs.inputs_digest(inputs.small_documents(6, 30), inputs.approximate_stream(6, 24))
    assert one == two != other


def test_approximate_stream_shape():
    ops = inputs.approximate_stream(2, 48)
    kinds = [op.kind for op in ops]
    assert kinds.count("dn") == 4 and kinds.count("repeat") == 12
    assert sum(op.strategy == "schema-guided" for op in ops) >= 16
    for op in ops:
        if op.kind == "repeat":
            source = ops[op.source]
            assert source.kind == "random"
            assert (source.schema_text, source.strategy) == (op.schema_text, op.strategy)
    fresh = [len(loads(op.schema_text).types) for op in ops if op.kind == "random"]
    cycle = inputs.APPROX_TYPES
    assert fresh == [cycle[k % len(cycle)] for k in range(len(fresh))]


def test_only_the_approximate_workload_drops_the_disk_tier(tmp_path):
    from server import Server
    from workloads import WORKLOADS

    assert {name: cls.disk_tier for name, cls in WORKLOADS.items()} == {
        "validate-small": True, "validate-mixed": True, "approximate": False,
    }
    assert "--no-cache" in Server(HERE, tmp_path, traced=False, disk_tier=False).command()
    command = Server(HERE, tmp_path, traced=True).command()
    assert "--no-cache" not in command and "--cache-dir" in command


# -- answer checks -----------------------------------------------------

def test_flipped_verdict_fails():
    assert check_validate(_ok({"verdict": "valid"}), True) is None
    assert check_validate(_ok({"verdict": "valid"}), False) is not None
    assert check_validate(_ok({"verdict": "unknown"}), True) is not None


def test_error_envelope_fails():
    assert check_validate(ERROR_ENVELOPE, True) is not None
    assert check_approximation(ERROR_ENVELOPE, []) is not None


def _approximation(schema) -> dict:
    return _ok({"schema": dumps(schema), "types": len(schema.types)})


def test_approximation_checks():
    d2 = theorem_3_2_family(2)
    members = [sample_tree(d2, random.Random(k), 12) for k in range(3)]
    upper = approximate_upper(d2, minimize=True).schema
    assert check_approximation(_approximation(upper), members, 2) is None
    assert "types" in check_approximation(_approximation(upper), members, 3)
    # Not single-type: the input itself.
    problem = check_approximation(_approximation(example_2_6()), [], None)
    assert problem == "approximation is not single-type"
    # Single-type but missing input members.
    problem = check_approximation(_approximation(rss_feed()), members, None)
    assert problem.startswith("approximation rejects input member")


# -- failure accounting ------------------------------------------------

def test_failures_count_and_miss_every_latency_limit():
    workload = ValidateSmall(1, 1.0)
    samples = []
    for rid, (response, valid) in enumerate(
        [(_ok({"verdict": "valid"}), True), (_ok({"verdict": "valid"}), False), (ERROR_ENVELOPE, True)],
        start=1,
    ):
        sample = Sample(rid, "small", rid, 0.0, 0.0)
        response = dict(response, id=rid)
        _record_validate(sample, response, valid, 0.001)
        samples.append(sample)
    samples.append(Sample(4, "small", 4, 0.0, 0.0))  # never answered
    result = RunResult(samples, 0.0, 1.0)
    assert [s.problem is None for s in samples] == [True, False, False, False]
    rows = headline(workload, result)
    assert rows["failed_share"][0] == 0.75
    assert rows["validate_p50_ms"][0] == float("inf")
    assert rows["validate_rps"][0] == 1.0
    assert set(contract_metrics(rows)) == {"setup_s", "rate_per_s", "p50_ms", "tail_ms", "server_rss_mb"}


def test_bad_approximations_are_counted_by_the_approximate_workload():
    workload = Approximate(4, 0.5)
    dn = next(op for op in workload.stream if op.kind == "dn")
    good = _approximation(approximate_upper(theorem_3_2_family(dn.n), minimize=True).schema)
    cases = [good, _approximation(example_2_6()), _approximation(rss_feed()), ERROR_ENVELOPE]
    samples = []
    for response in cases:
        sample = Sample(2 * dn.index + 1, "op", dn.index, 0.0, 0.0, answered=0.01)
        sample.response = response
        sample.problem = "unchecked"
        samples.append(sample)
    result = RunResult(samples, 0.0, 1.0)
    workload.finish(result)
    assert [s.problem is None for s in samples] == [True, False, False, False]
    assert headline(workload, result)["failed_share"][0] == 0.75


# -- spans and comparison ----------------------------------------------

def test_self_time_subtracts_children():
    ns = 1_000_000_000
    spans = [
        # id, parent, request, name, start, end, note
        [1, None, 1, "service.server.handle_request", 1 * ns, 1 * ns + 900, "validate"],
        [2, 1, 1, "api.validate", 1 * ns + 100, 1 * ns + 800, None],
        [3, 2, 1, "trees.xml_io.from_xml", 1 * ns + 200, 1 * ns + 500, None],
        [4, None, None, "service.protocol.decode", 1 * ns - 50, 1 * ns - 10, None],
        [5, None, 9, "service.server.handle_request", 5 * ns, 5 * ns + 10, "stats"],
    ]
    sample = Sample(1, "small", 0, 0.5, 0.5, answered=1.5, problem=None, nodes=10)
    result = RunResult([sample], 0.5, 2.0, server_cpu_s=2e-6)
    metrics = per_layer(result, spans, {}, "small", 0.1)
    assert list(metrics) == metric_names()
    assert metrics["service.server.dispatch_self_us"] == pytest.approx(0.2)
    assert metrics["api.validate_self_us"] == pytest.approx(0.4)
    assert metrics["trees.xml_io.from_xml_us_per_node"] == pytest.approx(0.03)
    assert metrics["service.protocol.decode_us"] == pytest.approx(0.04)
    assert metrics["service.server.unattributed_us"] == pytest.approx(2.0 - 0.94)
    assert metrics["service.server.queue_wait_p50_ms"] == pytest.approx(1000.0 - 0.0009)


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [110.0, 111.0, 109.0, 110.5, 109.5]
    assert compare.verdict(parent, faster, pairs(faster), True, 0.05)[0] == "better"
    slower = [80.0, 81.0, 79.0, 80.5, 79.5]
    assert compare.verdict(parent, slower, pairs(slower), True, 0.05)[0] == "worse"
    same = [100.2, 100.8, 99.2, 100.1, 99.9]
    assert compare.verdict(parent, same, pairs(same), True, 0.05)[0] == "within"
    noisy = [60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, same, list(zip(noisy, same)), True, 0.05)[0] == "unresolved"


# -- the command -------------------------------------------------------

def test_run_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "validate-small",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == metric_names()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "wirebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "wirebench/run.py", "--workload", "approximate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
