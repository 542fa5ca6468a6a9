"""The three workloads: inputs, set-up and the timed client loops.

All load comes from this one process over at most two connections, on
one asyncio event loop with no extra threads.

* ``validate-small`` — a closed loop on 2 connections, each keeping
  WINDOW validate requests pipelined.
* ``validate-mixed`` — an open loop of small validate requests at
  MIXED_RATE per second on one connection, timed from when each was due,
  beside a closed loop of large documents on the other.
* ``approximate`` — a closed loop of register_schema + approximate
  operations on one connection.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import inputs
from checks import check_approximation, check_register, check_validate
from repro.families.hard import example_2_6
from repro.schemas.text_format import loads
from repro.trees.generate import sample_tree
from server import Server, ServerError
from stats import percentile

#: validate-small: requests kept in flight per connection.
WINDOW = 4
#: validate-mixed: the small-request rate, a fixed tenth of
#: validate-small's capacity at the commit that defined the benchmark.
MIXED_RATE = 200.0
#: How long, after the timed window, answers may still arrive.
DRAIN_S = 60.0
#: validate-small cuts its run into windows of this length.
SUBWINDOW_S = 2.5
#: Budget counts are summed over the operations with a stream or pool
#: index below this, which every run completes, so they repeat exactly.
COUNT_PREFIX = 48


@dataclass
class Sample:
    """One timed operation as the client saw it."""

    rid: int
    kind: str  # "small", "large" or "op"
    index: int  # pool, cycle or stream index of the input
    due: float
    sent: float
    answered: float | None = None
    problem: str | None = "no answer"
    nodes: int = 0
    nbytes: int = 0
    states: int = 0
    steps: int = 0
    response: Any = None

    @property
    def latency(self) -> float:
        """Seconds from due to answered; infinite for a failed operation."""
        if self.problem is not None or self.answered is None:
            return float("inf")
        return self.answered - self.due


@dataclass
class RunResult:
    samples: list[Sample]
    start: float
    end: float
    setup_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    server_rss_mb: float = 0.0
    steal_share: float = 0.0
    steal: StealMonitor | None = None
    server_stats: dict = field(default_factory=dict)


@dataclass
class Window:
    """A stretch of a run: its latency-critical samples and its rate."""

    samples: list[Sample]
    rate: float
    low: float
    high: float


def _whole_run(result: RunResult) -> Window:
    good = sum(1 for s in result.samples if s.problem is None)
    return Window(result.samples, good / (result.end - result.start), result.start, result.end)


class StealMonitor:
    """Samples the machine's stolen CPU ticks (``/proc/stat``) every
    PERIOD_S on the event loop, so a window's steal share can be read
    afterwards."""

    PERIOD_S = 0.25

    def __init__(self) -> None:
        self.points: list[tuple[float, int, int]] = []
        self._handle: asyncio.TimerHandle | None = None

    @staticmethod
    def ticks() -> tuple[int, int]:
        """(all, stolen) CPU ticks of the machine so far."""
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
        return sum(fields), fields[7] if len(fields) > 7 else 0

    def _sample(self) -> None:
        self.points.append((time.perf_counter(), *self.ticks()))
        self._handle = asyncio.get_running_loop().call_later(self.PERIOD_S, self._sample)

    def start(self) -> None:
        self._sample()

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self.points.append((time.perf_counter(), *self.ticks()))

    def share(self, low: float, high: float) -> float:
        """Stolen share of all CPU ticks between the samples around
        [low, high]."""
        before = [p for p in self.points if p[0] <= low] or self.points[:1]
        after = [p for p in self.points if p[0] >= high] or self.points[-1:]
        total = after[0][1] - before[-1][1]
        return (after[0][2] - before[-1][2]) / total if total > 0 else 0.0


class Connection:
    """One newline-delimited JSON connection to the server."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def read(self) -> Any:
        line = await self.reader.readline()
        if not line:
            raise ServerError("server closed the connection")
        return json.loads(line)

    async def request(self, payload: dict) -> Any:
        self.writer.write(json.dumps(payload).encode() + b"\n")
        return await self.read()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _require(problem: str | None, what: str) -> None:
    if problem is not None:
        raise ServerError(f"set-up {what} failed: {problem}")


class Workload:
    """Base: a workload makes its inputs, sets a server up and runs."""

    name = ""
    connections = 1
    #: Whether untraced runs give the server a disk tier (a fresh
    #: ``--cache-dir``) or none (``--no-cache``); traced runs always do.
    disk_tier = True

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds

    def digest_parts(self) -> list:
        raise NotImplementedError

    async def setup(self, conn: Connection) -> None:
        raise NotImplementedError

    async def run(self, conns: list[Connection]) -> RunResult:
        raise NotImplementedError

    def finish(self, result: RunResult) -> None:
        """Checks that need more than the response itself (after timing)."""

    def windows(self, result: RunResult) -> list[Window]:
        """The run cut into windows of like work."""
        raise NotImplementedError

    def measured_windows(self, result: RunResult) -> list[Window]:
        """The windows the metrics are read from: those during which the
        machine stole no more CPU than in the run's median window (at
        least half of them).  On a shared virtual machine, stolen CPU
        stalls the server for reasons outside the program."""
        windows = self.windows(result)
        if result.steal is None or len(windows) < 2:
            return windows
        shares = [result.steal.share(w.low, w.high) for w in windows]
        cut = statistics.median(shares)
        return [w for w, share in zip(windows, shares) if share <= cut]

    def throughput(self, result: RunResult) -> float:
        """The median rate over the measured windows."""
        return statistics.median(w.rate for w in self.measured_windows(result))


def _validate_tail(schema_id: str, document: inputs.Document) -> bytes:
    """Everything of a validate request line after ``{"id":N,``."""
    body = json.dumps({"op": "validate", "schema_id": schema_id, "document": document.xml})
    return body[1:].encode() + b"\n"


class _ValidateBase(Workload):
    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.schemas = self.schema_texts()
        self.small = inputs.small_documents(seed)
        self.schema_ids: dict[str, str] = {}
        self.small_tails: list[bytes] = []

    def schema_texts(self) -> dict[str, str]:
        return inputs.validate_schemas()

    def digest_parts(self) -> list:
        return [self.schemas, self.small]

    async def setup(self, conn: Connection) -> None:
        for number, (key, text) in enumerate(self.schemas.items()):
            response = await conn.request(
                {"id": f"setup-register-{number}", "op": "register_schema", "schema": text}
            )
            _require(check_register(response), f"register {key}")
            self.schema_ids[key] = response["result"]["schema_id"]
        self.small_tails = [
            _validate_tail(self.schema_ids[doc.schema], doc) for doc in self.small
        ]
        doc = self.small[0]
        response = await conn.request(
            {"id": "setup-validate", "op": "validate",
             "schema_id": self.schema_ids[doc.schema], "document": doc.xml}
        )
        _require(check_validate(response, doc.valid), "small validate")


def _record_validate(sample: Sample, response: Any, valid: bool, now: float) -> None:
    sample.answered = now
    sample.response = None
    if not isinstance(response, dict) or response.get("id") != sample.rid:
        sample.problem = "response id does not match the request"
        return
    sample.problem = check_validate(response, valid)
    if sample.problem is None:
        sample.states = response["result"].get("states", 0)
        sample.steps = response["result"].get("steps", 0)


class ValidateSmall(_ValidateBase):
    name = "validate-small"
    connections = 2

    async def run(self, conns: list[Connection]) -> RunResult:
        samples: list[Sample] = []
        counter = 0
        start = time.perf_counter()
        end = start + self.seconds

        def send(conn: Connection, inflight: deque) -> None:
            nonlocal counter
            index = counter % len(self.small)
            counter += 1
            doc = self.small[index]
            now = time.perf_counter()
            sample = Sample(counter, "small", counter - 1, now, now, nodes=doc.nodes)
            conn.writer.write(b'{"id":%d,' % counter + self.small_tails[index])
            samples.append(sample)
            inflight.append(sample)

        async def pump(conn: Connection) -> None:
            inflight: deque = deque()
            for _ in range(WINDOW):
                send(conn, inflight)
            while inflight:
                response = await conn.read()
                now = time.perf_counter()
                sample = inflight.popleft()
                _record_validate(sample, response, self.small[sample.index % len(self.small)].valid, now)
                if now < end:
                    send(conn, inflight)

        await _bounded(asyncio.gather(*(pump(conn) for conn in conns)), self.seconds)
        return RunResult(samples, start, max(end, _last_answer(samples, end)))

    def windows(self, result: RunResult) -> list[Window]:
        """Consecutive SUBWINDOW_S windows by send time, each rated in
        correct answers per second; one window when the run is shorter."""
        count = int(self.seconds // SUBWINDOW_S)
        if count < 2:
            return [_whole_run(result)]
        buckets: list[list[Sample]] = [[] for _ in range(count)]
        for sample in result.samples:
            slot = int((sample.sent - result.start) // SUBWINDOW_S)
            if slot < count:
                buckets[slot].append(sample)
        return [
            Window(bucket, sum(1 for s in bucket if s.problem is None) / SUBWINDOW_S,
                   result.start + slot * SUBWINDOW_S, result.start + (slot + 1) * SUBWINDOW_S)
            for slot, bucket in enumerate(buckets)
        ]


class ValidateMixed(_ValidateBase):
    name = "validate-mixed"
    connections = 2

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.large = inputs.large_documents(seed)
        self.warmup = inputs.warmup_large(seed)
        self.large_lines: list[bytes] = []

    def schema_texts(self) -> dict[str, str]:
        return inputs.mixed_schemas()

    def digest_parts(self) -> list:
        return [self.schemas, self.small, self.large, self.warmup]

    async def setup(self, conn: Connection) -> None:
        await super().setup(conn)
        self.large_lines = [
            _validate_tail(self.schema_ids[doc.schema], doc) for doc in self.large
        ]
        doc = self.warmup
        response = await conn.request(
            {"id": "setup-large", "op": "validate",
             "schema_id": self.schema_ids[doc.schema], "document": doc.xml}
        )
        _require(check_validate(response, doc.valid), "large validate")

    async def run(self, conns: list[Connection]) -> RunResult:
        small_conn, large_conn = conns
        samples: list[Sample] = []
        small_inflight: deque = deque()
        start = time.perf_counter()
        end = start + self.seconds
        total_small = int(self.seconds * MIXED_RATE)
        # Large requests take ids above every small one.
        large_rid = total_small

        async def small_sender() -> None:
            for number in range(total_small):
                due = start + number / MIXED_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                index = number % len(self.small)
                sample = Sample(number + 1, "small", number, due, 0.0,
                                nodes=self.small[index].nodes)
                small_conn.writer.write(b'{"id":%d,' % sample.rid + self.small_tails[index])
                sample.sent = time.perf_counter()
                samples.append(sample)
                small_inflight.append(sample)

        async def small_receiver() -> None:
            for number in range(total_small):
                response = await small_conn.read()
                now = time.perf_counter()
                sample = small_inflight.popleft()
                _record_validate(sample, response, self.small[sample.index % len(self.small)].valid, now)
                if number % 16 == 15:
                    # Answers arrive in bursts after each large document;
                    # let the sender keep its schedule meanwhile.
                    await asyncio.sleep(0)

        async def large_loop() -> None:
            nonlocal large_rid
            number = 0
            while time.perf_counter() < end:
                index = number % len(self.large)
                doc = self.large[index]
                large_rid += 1
                now = time.perf_counter()
                sample = Sample(large_rid, "large", number, now, now,
                                nodes=doc.nodes, nbytes=len(doc.xml))
                samples.append(sample)
                large_conn.writer.write(b'{"id":%d,' % large_rid + self.large_lines[index])
                await large_conn.writer.drain()
                response = await large_conn.read()
                _record_validate(sample, response, doc.valid, time.perf_counter())
                number += 1

        await _bounded(
            asyncio.gather(small_sender(), small_receiver(), large_loop()), self.seconds
        )
        return RunResult(samples, start, max(end, _last_answer(samples, end)))

    def windows(self, result: RunResult) -> list[Window]:
        """One window per complete pass of the large-document cycle, so
        every window holds the same mix of work, rated in large-document
        MB per second of large-request latency and holding the small
        requests due during it; one window of everything when no pass
        completed."""
        large = [s for s in result.samples if s.kind == "large"]
        size = len(self.large)
        passes = [large[i:i + size] for i in range(0, len(large) - size + 1, size)]
        if not passes:
            passes = [large]
        windows = []
        for docs in passes:
            low = docs[0].due
            high = max(s.answered if s.answered is not None else s.due for s in docs)
            small = [s for s in result.samples if s.kind == "small" and low <= s.due < high]
            good = [s for s in docs if s.problem is None]
            seconds = sum(s.answered - s.due for s in good)
            rate = sum(s.nbytes for s in good) / 1e6 / seconds if seconds > 0 else 0.0
            windows.append(Window(small, rate, low, high))
        return windows


class Approximate(Workload):
    name = "approximate"
    connections = 1
    #: Every fresh schema makes the disk tier write and fsync its
    #: artifacts, which on a shared virtual disk took 43-129 ms per
    #: operation from one run to the next: more than the construction
    #: itself, and a property of the disk, not of the program.
    disk_tier = False

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        count = int(seconds * inputs.APPROX_OPS_PER_SECOND) + inputs.APPROX_BLOCK
        self.stream = inputs.approximate_stream(seed, count)
        self.warmup_text = inputs.warmup_schema_text()

    def digest_parts(self) -> list:
        return [self.stream, self.warmup_text]

    async def operation(self, conn: Connection, rid: int, text: str, strategy: str) -> tuple[Any, str | None]:
        """register_schema then approximate; the approximate response and
        the problem (``None`` when the register step succeeded)."""
        response = await conn.request(
            {"id": rid, "op": "register_schema", "schema": text, "strategy": strategy}
        )
        problem = check_register(response)
        if problem is not None:
            return response, problem
        response = await conn.request(
            {"id": rid + 1, "op": "approximate", "schema_id": response["result"]["schema_id"],
             "direction": "upper", "minimize": True, "strategy": strategy}
        )
        return response, None

    async def setup(self, conn: Connection) -> None:
        response, problem = await self.operation(conn, -2, self.warmup_text, "blind")
        _require(problem, "register")
        members = [sample_tree(example_2_6(), random.Random(f"warmup:{k}"), 12) for k in range(3)]
        _require(check_approximation(response, members), "approximate")

    async def run(self, conns: list[Connection]) -> RunResult:
        (conn,) = conns
        samples: list[Sample] = []
        start = time.perf_counter()
        end = start + self.seconds

        async def loop() -> None:
            for op in self.stream:
                now = time.perf_counter()
                if now >= end:
                    break
                sample = Sample(2 * op.index + 1, "op", op.index, now, now)
                samples.append(sample)
                response, problem = await self.operation(conn, sample.rid, op.schema_text, op.strategy)
                sample.answered = time.perf_counter()
                sample.response = response
                if problem is None and isinstance(response, dict) and response.get("id") != sample.rid + 1:
                    problem = "response id does not match the request"
                sample.problem = problem if problem is not None else "unchecked"

        await _bounded(loop(), self.seconds)
        # The run ends with its last answer: after *end*, or before it
        # when the stream ran out.
        return RunResult(samples, start, _last_answer(samples, end))

    def finish(self, result: RunResult) -> None:
        """Check every approximation (memoized per distinct input and answer)."""
        members: dict[str, list] = {}
        verdicts: dict[tuple, str | None] = {}
        for sample in result.samples:
            if sample.problem != "unchecked":
                continue
            op = self.stream[sample.index]
            if op.schema_text not in members:
                rng = random.Random(f"members:{self.seed}:{op.index}")
                schema = loads(op.schema_text)
                members[op.schema_text] = [
                    sample_tree(schema, rng, 12) for _ in range(inputs.APPROX_MEMBERS)
                ]
            result_text = None
            if isinstance(sample.response, dict) and isinstance(sample.response.get("result"), dict):
                result_text = sample.response["result"].get("schema")
            key = (op.schema_text, op.strategy, result_text)
            if key not in verdicts or result_text is None:
                verdicts[key] = check_approximation(sample.response, members[op.schema_text], op.n)
            sample.problem = verdicts[key]
            if sample.problem is None:
                sample.states = sample.response["result"].get("states", 0)
                sample.steps = sample.response["result"].get("steps", 0)
            sample.response = None

    def windows(self, result: RunResult) -> list[Window]:
        """The whole run: its operations differ too much in cost (a first
        D_5 takes a second, a repeat milliseconds) for shorter windows to
        hold like work."""
        return [_whole_run(result)]


WORKLOADS = {cls.name: cls for cls in (ValidateSmall, ValidateMixed, Approximate)}


def lag_p99_ms(samples: list[Sample]) -> float:
    """p99 of send time minus due time over the small requests (0 on a
    closed loop, where a request is due when it is sent)."""
    lags = sorted((s.sent - s.due) * 1e3 for s in samples if s.kind == "small")
    return percentile(lags, 0.99) if lags else 0.0


def _last_answer(samples: list[Sample], default: float) -> float:
    answered = [s.answered for s in samples if s.answered is not None]
    return max(answered) if answered else default


async def _bounded(awaitable: Any, seconds: float) -> None:
    """Await the client loops; unanswered requests stay failed samples."""
    try:
        await asyncio.wait_for(awaitable, timeout=seconds + DRAIN_S)
    except asyncio.TimeoutError:
        pass


async def setup_server(
    workload: Workload, server: Server
) -> tuple[float, list[Connection]]:
    """Launch *server*, register the workload's schemas and warm up.

    Returns the set-up time — launch to the first correct answer after
    the warm-ups — and the open connections the run will use.
    """
    server.launch()
    first = Connection(*await server.connect())
    await workload.setup(first)
    setup_s = time.perf_counter() - server.launched_at
    conns = [first]
    for _ in range(workload.connections - 1):
        conns.append(Connection(*await server.connect()))
    return setup_s, conns
