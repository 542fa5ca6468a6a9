"""The asyncio validation/approximation service.

:class:`ValidationService` is the engine: async ``register_schema`` /
``validate`` / ``validate_batch`` / ``approximate`` operations over a
:class:`repro.service.registry.SchemaRegistry` of hot
:class:`repro.api.CompiledSchema` handles.  The methods are the
programmatic API (they raise taxonomy errors);
:meth:`ValidationService.handle_request` is the wire boundary that maps
taxonomy errors onto protocol error envelopes, and
:meth:`ValidationService.handle_connection` pumps newline-delimited JSON
over asyncio streams (:func:`serve` binds it to a TCP listener).

Budgets and deadlines
---------------------
Every request may carry ``deadline_ms`` / ``max_states`` / ``max_steps``;
they become a per-request :class:`repro.runtime.Budget` (service-wide
defaults fill the gaps).  Trips degrade, not fail:

* ``validate`` returns the three-valued verdict ``"unknown"`` (with the
  trip reason) instead of raising — the same graceful degradation the
  paper's decision procedures use;
* ``validate_batch`` shares one budget across the batch and stops at the
  first trip, returning the completed prefix plus the taxonomy error
  (``partial: true``);
* ``approximate`` surfaces the trip as a ``BudgetExceededError`` error
  envelope (there is no useful partial approximation to return).

Compilation and approximation run in worker threads
(``asyncio.to_thread``) so the event loop keeps serving while CPU-bound
construction proceeds.  Validation runs inline on the event loop: one
pass from document text to verdict, governed per element by the
request's budget.  That is quick for small documents, but a large one
holds the loop for its whole parse, and requests on other connections
wait behind it (``docs/PERFORMANCE.md`` has measurements).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro import cache as _cache
from repro import observability as _obs
from repro.api import CompiledSchema, Settings, compile_schema, current_settings
from repro.errors import (
    BudgetExceededError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.observability import Trace
from repro.runtime.budget import Budget, resolve_budget
from repro.schemas.text_format import dumps as _dumps_schema
from repro.service import protocol
from repro.service.registry import SchemaRegistry

__all__ = ["ValidationService", "serve"]

_DEFAULT_HOST = "127.0.0.1"
_DEFAULT_PORT = 8743


def _count(name: str, amount: int = 1) -> None:
    if _obs.ENABLED:
        _obs.METRICS.counter(name).inc(amount)


class ValidationService:
    """One service instance: a registry of hot handles plus the async
    operation surface (see the module docstring)."""

    def __init__(
        self,
        *,
        registry: SchemaRegistry | None = None,
        capacity: int = 128,
        cache: "_cache.CacheArg" = None,
        settings: Settings | None = None,
    ) -> None:
        if registry is None:
            registry = SchemaRegistry(capacity=capacity, cache=cache)
        self.registry = registry
        #: Service-wide defaults for per-request budgets and strategy;
        #: ``None`` falls back to the ambient repro.api settings.
        self.settings = settings

    # -- budget mapping ------------------------------------------------

    def _defaults(self) -> Settings:
        return self.settings if self.settings is not None else current_settings()

    def _request_budget(
        self,
        budget: Budget | None,
        deadline_ms: "int | float | None",
        max_states: int | None,
        max_steps: int | None,
    ) -> Budget:
        """The budget one request runs under: an explicit/ambient budget
        wins; otherwise a fresh one from the request's limits with
        service defaults filling the gaps."""
        resolved = resolve_budget(budget)
        if resolved is not None:
            return resolved
        defaults = self._defaults()
        timeout = deadline_ms / 1000.0 if deadline_ms is not None else defaults.timeout
        return Budget(
            timeout=timeout,
            max_states=max_states if max_states is not None else defaults.max_states,
            max_steps=max_steps if max_steps is not None else defaults.max_steps,
        )

    # -- operations (taxonomy-raising programmatic API) ----------------

    async def register_schema(
        self,
        schema: str,
        *,
        strategy: str | None = None,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
    ) -> dict[str, Any]:
        """Compile *schema* (text format, or an EDTD object) into the
        registry; returns the handle descriptor.  Registering the same
        schema again is a cheap registry hit returning the same id."""
        handle = await asyncio.to_thread(
            self.registry.register,
            schema,
            strategy=strategy,
            budget=budget,
            checkpoint=checkpoint,
            trace=trace,
        )
        return {
            "schema_id": handle.schema_id,
            "strategy": handle.strategy,
            "types": len(handle.schema.types),
            "single_type": handle.is_single_type,
        }

    def _resolve(self, schema_id: str) -> CompiledSchema:
        handle = self.registry.lookup(schema_id)
        if handle is None:
            raise ServiceError(f"unknown schema_id {schema_id!r} (register it first)")
        return handle

    def _validate_one(
        self,
        handle: CompiledSchema,
        document: str,
        budget: Budget,
        trace: Trace | None,
    ) -> tuple[dict[str, Any], BudgetExceededError | None]:
        """One three-valued validation: the result row plus the trip (if
        any) for callers that need to stop a batch."""
        try:
            result = handle.validate(document, budget=budget, trace=trace)
        except BudgetExceededError as error:
            _count("service.budget_trips.validate")
            row = {
                "verdict": "unknown",
                "valid": None,
                "error": {
                    "type": "BudgetExceededError",
                    "message": str(error),
                    "reason": error.reason,
                },
            }
            return row, error
        row = {
            "verdict": "valid" if result.valid else "invalid",
            "valid": result.valid,
            "states": result.usage.states,
            "steps": result.usage.steps,
            "elapsed_ms": result.usage.elapsed_seconds * 1000.0,
        }
        return row, None

    async def validate(
        self,
        schema_id: "str | CompiledSchema",
        document: str,
        *,
        deadline_ms: "int | float | None" = None,
        max_states: int | None = None,
        max_steps: int | None = None,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
    ) -> dict[str, Any]:
        """Validate *document* against a registered schema.

        Three-valued: ``verdict`` is ``"valid"`` / ``"invalid"``, or
        ``"unknown"`` with the trip reason when the per-request budget
        runs out.  Raises :class:`ServiceError` for unknown ids and
        other taxonomy errors (bad XML, injected faults) as themselves.
        """
        del checkpoint  # no resumable phase
        handle = (
            schema_id
            if isinstance(schema_id, CompiledSchema)
            else self._resolve(schema_id)
        )
        request_budget = self._request_budget(budget, deadline_ms, max_states, max_steps)
        row, _ = self._validate_one(handle, document, request_budget, trace)
        return row

    async def validate_batch(
        self,
        schema_id: "str | CompiledSchema",
        documents: list[str],
        *,
        deadline_ms: "int | float | None" = None,
        max_states: int | None = None,
        max_steps: int | None = None,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
    ) -> dict[str, Any]:
        """Validate *documents* under **one shared budget**.

        Stops at the first budget trip: the response carries the
        completed prefix (including the tripping document's ``unknown``
        row), ``partial: true``, and the taxonomy error — deadline
        exhaustion mid-batch is an expected outcome, not a failure.
        """
        del checkpoint  # no resumable phase
        handle = (
            schema_id
            if isinstance(schema_id, CompiledSchema)
            else self._resolve(schema_id)
        )
        request_budget = self._request_budget(budget, deadline_ms, max_states, max_steps)
        results: list[dict[str, Any]] = []
        trip: BudgetExceededError | None = None
        for document in documents:
            row, trip = self._validate_one(handle, document, request_budget, trace)
            results.append(row)
            if trip is not None:
                _count("service.budget_trips.validate_batch")
                break
            # Yield between documents so one large batch cannot starve
            # concurrent requests on the event loop.
            await asyncio.sleep(0)
        response: dict[str, Any] = {
            "results": results,
            "completed": len(results),
            "total": len(documents),
            "partial": trip is not None,
        }
        if trip is not None:
            response["error"] = {
                "type": "BudgetExceededError",
                "message": str(trip),
                "reason": trip.reason,
            }
        return response

    async def approximate(
        self,
        schema_id: "str | CompiledSchema",
        *,
        direction: str = "upper",
        minimize: bool = False,
        strategy: str | None = None,
        max_size: int = 6,
        deadline_ms: "int | float | None" = None,
        max_states: int | None = None,
        max_steps: int | None = None,
        budget: Budget | None = None,
        checkpoint: Any = None,
        trace: Trace | None = None,
    ) -> dict[str, Any]:
        """Compute the upper (Construction 3.1) or lower (Theorem 4.12)
        single-type approximation of a registered schema, returning the
        result in schema text format.

        Budget trips raise :class:`BudgetExceededError` (the wire layer
        maps it to an error envelope): unlike validation there is no
        useful partial approximation to degrade to.  Warm repeats are
        served from the artifact store the registry is backed by.
        """
        handle = (
            schema_id
            if isinstance(schema_id, CompiledSchema)
            else self._resolve(schema_id)
        )
        if direction not in ("upper", "lower"):
            raise ProtocolError(
                f"'direction' must be 'upper' or 'lower', got {direction!r}"
            )
        request_budget = self._request_budget(budget, deadline_ms, max_states, max_steps)
        if direction == "upper":
            result = await asyncio.to_thread(
                handle.approximate_upper,
                minimize=minimize,
                strategy=strategy,
                budget=request_budget,
                checkpoint=checkpoint,
                trace=trace,
            )
        else:
            result = await asyncio.to_thread(
                handle.approximate_lower,
                max_size=max_size,
                budget=request_budget,
                checkpoint=checkpoint,
                trace=trace,
            )
        _count("service.approximations." + direction)
        return {
            "schema": _dumps_schema(result.schema),
            "direction": direction,
            "types": len(result.schema.types),
            "states": result.usage.states,
            "steps": result.usage.steps,
            "elapsed_ms": result.usage.elapsed_seconds * 1000.0,
        }

    def stats(self) -> dict[str, Any]:
        """Registry counters plus the ``service.*`` slice of METRICS."""
        return {
            "registry": self.registry.stats(),
            "metrics": _obs.METRICS.snapshot("service."),
        }

    # -- wire boundary -------------------------------------------------

    async def handle_request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one decoded request payload to its operation and wrap
        the outcome in a response envelope.  Taxonomy errors become
        ``ok: false`` envelopes here; nothing is swallowed — every
        failure is either mapped to an error response or (non-taxonomy)
        propagates to the connection pump."""
        request_id = payload.get("id")
        op = payload.get("op")
        start = time.perf_counter()
        try:
            result = await self._dispatch(op, payload)
            response = protocol.ok_response(request_id, result)
        except ReproError as error:
            _count("service.errors." + type(error).__name__)
            response = protocol.error_response(request_id, error)
        if _obs.ENABLED:
            _obs.METRICS.counter(f"service.requests.{op}").inc()
            _obs.METRICS.histogram(f"service.latency_ms.{op}").observe(
                (time.perf_counter() - start) * 1000.0
            )
        return response

    async def _dispatch(self, op: Any, payload: dict[str, Any]) -> dict[str, Any]:
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            return self.stats()
        if op == "register_schema":
            return await self.register_schema(
                protocol.get_str(payload, "schema"),
                strategy=protocol.get_str(payload, "strategy", None),
            )
        if op == "validate":
            handle = await self._handle_from(payload)
            return await self.validate(
                handle,
                protocol.get_str(payload, "document"),
                deadline_ms=protocol.get_number(payload, "deadline_ms"),
                max_states=protocol.get_number(payload, "max_states", integer=True),
                max_steps=protocol.get_number(payload, "max_steps", integer=True),
            )
        if op == "validate_batch":
            handle = await self._handle_from(payload)
            return await self.validate_batch(
                handle,
                protocol.get_str_list(payload, "documents"),
                deadline_ms=protocol.get_number(payload, "deadline_ms"),
                max_states=protocol.get_number(payload, "max_states", integer=True),
                max_steps=protocol.get_number(payload, "max_steps", integer=True),
            )
        if op == "approximate":
            handle = await self._handle_from(payload)
            return await self.approximate(
                handle,
                direction=protocol.get_str(payload, "direction", "upper"),
                minimize=protocol.get_bool(payload, "minimize"),
                strategy=protocol.get_str(payload, "strategy", None),
                max_size=protocol.get_number(payload, "max_size", 6, integer=True),
                deadline_ms=protocol.get_number(payload, "deadline_ms"),
                max_states=protocol.get_number(payload, "max_states", integer=True),
                max_steps=protocol.get_number(payload, "max_steps", integer=True),
            )
        raise ProtocolError(f"unknown op {op!r}")

    async def _handle_from(self, payload: dict[str, Any]) -> CompiledSchema:
        """The handle a request addresses: by registered ``schema_id``,
        or by inline ``schema`` text (registered on the fly; with
        ``reuse: false`` compiled fresh every time — the per-call
        recompilation baseline the registry exists to beat)."""
        schema_id = protocol.get_str(payload, "schema_id", None)
        if schema_id is not None:
            return self._resolve(schema_id)
        schema = protocol.get_str(payload, "schema", None)
        if schema is None:
            raise ProtocolError("request needs 'schema_id' or inline 'schema'")
        strategy = protocol.get_str(payload, "strategy", None)
        if not protocol.get_bool(payload, "reuse", True):
            if strategy is None:
                strategy = self._defaults().strategy
            return await asyncio.to_thread(
                compile_schema, schema, strategy=strategy
            )
        return await asyncio.to_thread(
            self.registry.register, schema, strategy=strategy
        )

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Pump one client connection: read request lines until EOF,
        write one response line each.  Protocol violations get an error
        envelope; oversized lines close the connection (the stream can
        no longer be framed)."""
        _count("service.connections")
        try:
            while True:  # ungoverned: connection pump, bounded by client EOF
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line overran the stream limit: framing is lost,
                    # report and hang up.
                    writer.write(
                        protocol.encode_response(
                            protocol.error_response(
                                None,
                                ProtocolError(
                                    "request line exceeds "
                                    f"{protocol.MAX_LINE_BYTES} bytes"
                                ),
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = protocol.decode_request(line)
                except ProtocolError as error:
                    _count("service.errors.ProtocolError")
                    response = protocol.error_response(None, error)
                else:
                    response = await self.handle_request(payload)
                writer.write(protocol.encode_response(response))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - client gone
                _count("service.connections.reset")

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = _DEFAULT_HOST, port: int = _DEFAULT_PORT):
        """Bind the TCP listener and return the ``asyncio.Server`` (the
        caller owns shutdown; tests and the bench use this)."""
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=protocol.MAX_LINE_BYTES
        )

    async def serve(self, host: str = _DEFAULT_HOST, port: int = _DEFAULT_PORT) -> None:
        """Serve until cancelled, with METRICS recording enabled for the
        server's lifetime."""
        server = await self.start(host, port)
        _obs.enable()
        try:
            async with server:
                await server.serve_forever()
        finally:
            _obs.disable()


async def serve(
    host: str = _DEFAULT_HOST,
    port: int = _DEFAULT_PORT,
    *,
    capacity: int = 128,
    cache: "_cache.CacheArg" = None,
    settings: Settings | None = None,
) -> None:
    """Run a :class:`ValidationService` on ``host:port`` until cancelled
    (the ``python -m repro.cli serve`` entry point)."""
    service = ValidationService(capacity=capacity, cache=cache, settings=settings)
    await service.serve(host, port)
