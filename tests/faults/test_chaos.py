"""Chaos sweep: every governed operation, under every fault schedule.

The global robustness invariant (ISSUE 6):

    A run under fault injection either produces a result **equal to the
    fault-free oracle**, or raises an error from the
    :mod:`repro.errors` taxonomy.  A silently wrong answer is a hard
    failure.  A non-taxonomy exception escaping is a hard failure.

The sweep drives seven operations (``approximate_upper`` under both the
blind and the schema-guided determinization kernel,
``approximate_lower``, ``definability``, ``schema_includes``,
``validate``, and the asyncio validation service of ``repro.service``
end to end) through a matrix of fault schedules — every injection
point, every applicable mode, several arrival indices and seeds — with a
fresh on-disk artifact cache per run so the cache points are actually
reached.  Each run makes **two passes** under the same plan (cold, then
warm with the memo tier cleared), so read-path faults land on entries
the same plan's write-path faults may have damaged.

``test_injected_volume_floor`` (kept last in the file) asserts the suite
really injected faults in at least 240 passes — a schedule that never
fires is a vacuous test, and this floor is what CI enforces.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro import observability as _obs
from repro.api import (
    approximate_lower,
    approximate_upper,
    definability,
    schema_includes,
    validate,
)
from repro.cache import DISABLED, ArtifactCache
from repro.errors import ReproError
from repro.families.hard import example_2_6
from repro.faults import FaultPlan, FaultRule
from repro.runtime import Budget
from repro.schemas.text_format import dumps

# ``clear_caches`` resets every memo tier, so the warm pass replays builds
# (and their governed fault points) honestly.
from repro.strings.kernels import cache_stats, clear_caches

# ----------------------------------------------------------------------
# Operations under test
# ----------------------------------------------------------------------

_DOC = "<store><item><price/></item></store>"


def _op_upper(cache):
    return dumps(approximate_upper(example_2_6(), cache=cache).schema)


def _op_guided_upper(cache):
    # Same construction as _op_upper but on the schema-guided kernel,
    # guided by the schema's own ancestor strings — exercises the guided
    # worklist's budget.* points and the strategy-keyed disk digests.
    edtd = example_2_6()
    return dumps(
        approximate_upper(
            edtd, strategy="schema-guided", guide=edtd, cache=cache
        ).schema
    )


def _op_lower(cache):
    return dumps(approximate_lower(example_2_6(), max_size=4, cache=cache).schema)


def _op_definability(cache):
    return definability(example_2_6(), cache=cache).verdict


def _op_includes(cache):
    edtd = example_2_6()
    upper = approximate_upper(edtd, cache=cache).schema
    return schema_includes(upper, edtd, cache=cache).verdict


def _store_schema():
    from repro.schemas.st_edtd import SingleTypeEDTD

    return SingleTypeEDTD(
        alphabet={"store", "item", "price"},
        types={"s", "i", "p"},
        rules={"s": "i*", "i": "p", "p": "~"},
        starts={"s"},
        mu={"s": "store", "i": "item", "p": "price"},
    )


def _op_validate(cache):
    return validate(_store_schema(), _DOC, cache=cache).valid


def _op_service(cache):
    # The asyncio service loop end to end: register into a fresh bounded
    # registry backed by the faulted cache, then validate (single and
    # batch) and approximate through the async surface.  Deterministic
    # state/step budgets only — wall-clock deadlines plus delay-mode
    # faults would diverge from the oracle without any fault surfacing.
    # Timing fields (elapsed_ms) and usage deltas are excluded from the
    # outcome: warm passes legitimately serve approximations from disk.
    from repro.service import ValidationService

    async def drive():
        service = ValidationService(capacity=4, cache=cache)
        info = await service.register_schema(dumps(_store_schema()))
        row = await service.validate(info["schema_id"], _DOC)
        batch = await service.validate_batch(
            info["schema_id"], [_DOC, "<store></store>", _DOC], max_steps=5
        )
        approx = await service.approximate(info["schema_id"], direction="upper")
        return (
            info["schema_id"],
            row["verdict"],
            [r["verdict"] for r in batch["results"]],
            batch["completed"],
            batch["partial"],
            approx["schema"],
        )

    return asyncio.run(drive())


OPERATIONS = {
    "upper": _op_upper,
    "guided-upper": _op_guided_upper,
    "lower": _op_lower,
    "definability": _op_definability,
    "includes": _op_includes,
    "validate": _op_validate,
    "service": _op_service,
}

# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------

# (id, rules, budget_kwargs) — budget_kwargs {} means ungoverned-unlimited;
# the checkpoint schedules deliberately run under a tripping budget so the
# checkpoint.materialize point is reached.
SCHEDULES = [
    ("check-raise-1", [FaultRule("budget.check", "raise", at=1)], {}),
    ("check-raise-3", [FaultRule("budget.check", "raise", at=3)], {}),
    ("tick-raise-1", [FaultRule("budget.tick", "raise", at=1)], {}),
    ("tick-raise-20", [FaultRule("budget.tick", "raise", at=20)], {}),
    ("tick-delay", [FaultRule("budget.tick", "delay", at=1, every=50)], {}),
    (
        "checkpoint-raise",
        [FaultRule("checkpoint.materialize", "raise", at=1)],
        {"max_states": 5},
    ),
    ("read-raise-taxonomy", [FaultRule("cache.read", "raise", at=1)], {}),
    (
        "read-raise-oserror",
        [FaultRule("cache.read", "raise", at=1, every=1, error=OSError)],
        {},
    ),
    ("read-corrupt-1", [FaultRule("cache.read", "corrupt", at=1, every=1)], {}),
    ("read-corrupt-3", [FaultRule("cache.read", "corrupt", at=3, every=2)], {}),
    ("read-truncate", [FaultRule("cache.read", "truncate", at=1, every=3)], {}),
    (
        "write-raise-oserror",
        [FaultRule("cache.write", "raise", at=1, every=1, error=OSError)],
        {},
    ),
    ("write-corrupt", [FaultRule("cache.write", "corrupt", at=1, every=1)], {}),
    ("write-truncate", [FaultRule("cache.write", "truncate", at=2, every=2)], {}),
    (
        "fsync-raise-oserror",
        [FaultRule("cache.fsync", "raise", at=1, every=2, error=OSError)],
        {},
    ),
    ("fsync-raise-taxonomy", [FaultRule("cache.fsync", "raise", at=2)], {}),
    (
        "cache-glob-oserror",
        [FaultRule("cache.*", "raise", at=1, every=1, error=OSError)],
        {},
    ),
    ("xml-corrupt", [FaultRule("xml.ingest", "corrupt", at=1, every=1)], {}),
    ("xml-truncate", [FaultRule("xml.ingest", "truncate", at=1, every=1)], {}),
]

# Default seed sweep; the CI chaos job widens coverage by running the
# suite once per matrix entry with a different REPRO_CHAOS_SEEDS value
# (comma-separated ints), so every push exercises disjoint corruption
# positions and delay phases without lengthening any single run.
SEEDS = tuple(
    int(raw)
    for raw in os.environ.get("REPRO_CHAOS_SEEDS", "0,1,2").split(",")
    if raw.strip()
)

#: Module-level tally of passes in which at least one fault really fired;
#: asserted against the CI floor by the last test in this file.
_INJECTED_PASSES = {"count": 0}


def _oracle(op, tmp_path, budget_kwargs):
    """Fault-free reference outcome: ("ok", value) or ("error", type)."""
    clear_caches()
    store = ArtifactCache(tmp_path / "oracle-cache")
    budget = Budget(**budget_kwargs) if budget_kwargs else None
    try:
        if budget is not None:
            with budget:
                return ("ok", op(store))
        return ("ok", op(store))
    except ReproError as error:
        return ("error", type(error).__name__)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "schedule_id,rules,budget_kwargs",
    [pytest.param(*schedule, id=schedule[0]) for schedule in SCHEDULES],
)
@pytest.mark.parametrize("op_name", sorted(OPERATIONS))
def test_fault_never_changes_the_answer(
    tmp_path, op_name, schedule_id, rules, budget_kwargs, seed
):
    op = OPERATIONS[op_name]
    expected = _oracle(op, tmp_path, budget_kwargs)

    store = ArtifactCache(tmp_path / "chaos-cache")
    plan = FaultPlan(rules, seed=seed)
    injected_before_pass: list[int] = []
    with _obs.Trace("chaos") as trace:
        with plan:
            for _pass in range(2):
                clear_caches()
                injected_before = len(plan.injected)
                budget = Budget(**budget_kwargs) if budget_kwargs else None
                try:
                    if budget is not None:
                        with budget:
                            outcome = ("ok", op(store))
                    else:
                        outcome = ("ok", op(store))
                except ReproError as error:
                    outcome = ("error", type(error).__name__)
                # -- the invariant ------------------------------------
                if outcome[0] == "ok":
                    if expected[0] == "ok":
                        assert outcome[1] == expected[1], (
                            f"SILENT DIVERGENCE under {schedule_id}/seed={seed}: "
                            f"{outcome[1]!r} != oracle {expected[1]!r}"
                        )
                    # oracle errored but the faulted run succeeded: only
                    # legal if the *fault-free* failure was a budget trip
                    # that an injected delay cannot un-trip — impossible
                    # here, so flag it.
                    else:
                        assert not plan.injected or budget_kwargs, (
                            f"fault run succeeded where oracle raised "
                            f"{expected[1]} under {schedule_id}"
                        )
                if len(plan.injected) > injected_before:
                    injected_before_pass.append(_pass)
                    _INJECTED_PASSES["count"] += 1
    # A taxonomy error caused by an injection must be attributable: the
    # firing is recorded on a span of the active trace.
    if plan.injected:
        recorded = [
            point
            for span in trace.root.walk()
            for point in span.attrs.get("fault_points", [])
        ]
        assert recorded, "injected faults left no span attribution"
    clear_caches()


def test_clear_caches_resets_every_memo_tier():
    """The warm pass replays a faulted build only if the build's memo tier
    was cleared: string and tree tiers alike must drop to zero."""
    approximate_upper(example_2_6(), strategy="schema-guided", cache=DISABLED)
    definability(example_2_6(), cache=DISABLED)
    stats = cache_stats()
    assert {
        "min_dfa",
        "content_model",
        "schema_guided_min_dfa",
        "bta_determinize",
        "bta_from_edtd",
        "bta_inclusion",
        "edtd_monoid",
    } <= set(stats)
    assert stats["bta_from_edtd"]["entries"] and stats["bta_inclusion"]["entries"]
    clear_caches()
    for name, tier in cache_stats().items():
        assert (tier["entries"], tier["hits"], tier["misses"]) == (0, 0, 0), name


def test_injected_volume_floor():
    """CI floor: the sweep above must have really injected faults.

    At the default three-seed sweep the floor is the required >= 240
    injected passes per CI job; a narrowed ``REPRO_CHAOS_SEEDS`` scales
    it proportionally so local single-seed runs stay meaningful.
    """
    floor = 80 * len(SEEDS)  # 240 at the default/CI three-seed sweep
    assert _INJECTED_PASSES["count"] >= floor, (
        f"only {_INJECTED_PASSES['count']} passes saw an injected fault "
        f"(floor {floor} for {len(SEEDS)} seeds); the chaos matrix has "
        "gone vacuous"
    )
