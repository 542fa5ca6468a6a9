"""`ValidationService`: async operations, three-valued degradation under
per-request budgets, and the TCP wire loop end to end."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import Settings
from repro.errors import ServiceError
from repro.families.hard import example_2_6
from repro.schemas.text_format import dumps
from repro.service import ValidationService

AB_TEXT = dumps(example_2_6())
VALID_DOC = "<a><b/></a>"
INVALID_DOC = "<b><a/></b>"


def run(coro):
    return asyncio.run(coro)


def _refuse(literal):
    """A ``parse_constant`` that makes ``json.loads`` strict."""
    raise ValueError(f"not JSON: {literal}")


class TestOperations:
    def test_register_then_validate(self):
        async def scenario():
            service = ValidationService(capacity=4)
            info = await service.register_schema(AB_TEXT)
            assert info["types"] == len(example_2_6().types)
            valid = await service.validate(info["schema_id"], VALID_DOC)
            invalid = await service.validate(info["schema_id"], INVALID_DOC)
            return valid, invalid

        valid, invalid = run(scenario())
        assert valid["verdict"] == "valid" and valid["valid"] is True
        assert invalid["verdict"] == "invalid" and invalid["valid"] is False
        assert valid["steps"] >= 2  # one budget step per document node

    def test_register_is_idempotent(self):
        async def scenario():
            service = ValidationService(capacity=4)
            first = await service.register_schema(AB_TEXT)
            second = await service.register_schema(AB_TEXT)
            return first, second, service.registry.stats()

        first, second, stats = run(scenario())
        assert first["schema_id"] == second["schema_id"]
        assert stats["compiles"] == 1

    def test_unknown_schema_id_raises(self):
        service = ValidationService(capacity=4)
        with pytest.raises(ServiceError, match="unknown schema_id"):
            run(service.validate("no-such-id", VALID_DOC))

    def test_approximate_upper(self):
        async def scenario():
            service = ValidationService(capacity=4)
            info = await service.register_schema(AB_TEXT)
            return await service.approximate(info["schema_id"], direction="upper")

        result = run(scenario())
        assert result["direction"] == "upper"
        assert result["types"] >= 1
        assert "alphabet" in result["schema"] or result["schema"]

    def test_approximate_rejects_bad_direction(self):
        async def scenario():
            service = ValidationService(capacity=4)
            info = await service.register_schema(AB_TEXT)
            await service.approximate(info["schema_id"], direction="sideways")

        with pytest.raises(ServiceError, match="direction"):
            run(scenario())

    def test_service_settings_fill_budget_gaps(self):
        async def scenario():
            service = ValidationService(capacity=4, settings=Settings(max_steps=1))
            info = await service.register_schema(AB_TEXT)
            return await service.validate(info["schema_id"], VALID_DOC)

        row = run(scenario())
        assert row["verdict"] == "unknown"
        assert row["error"]["reason"] == "max-steps"


class TestThreeValuedDegradation:
    def test_validate_unknown_on_trip(self):
        async def scenario():
            service = ValidationService(capacity=4)
            info = await service.register_schema(AB_TEXT)
            return await service.validate(info["schema_id"], VALID_DOC, max_steps=1)

        row = run(scenario())
        assert row["verdict"] == "unknown"
        assert row["valid"] is None
        assert row["error"]["type"] == "BudgetExceededError"
        assert row["error"]["reason"] == "max-steps"

    def test_batch_partial_prefix_mid_trip(self):
        async def scenario():
            service = ValidationService(capacity=4)
            info = await service.register_schema(AB_TEXT)
            # Each document charges 2 steps; 5 steps complete two whole
            # documents and trip deterministically inside the third.
            return await service.validate_batch(
                info["schema_id"], [VALID_DOC] * 4, max_steps=5
            )

        batch = run(scenario())
        assert [row["verdict"] for row in batch["results"]] == [
            "valid",
            "valid",
            "unknown",
        ]
        assert batch["completed"] == 3
        assert batch["total"] == 4
        assert batch["partial"] is True
        assert batch["error"]["reason"] == "max-steps"

    def test_batch_completes_within_budget(self):
        async def scenario():
            service = ValidationService(capacity=4)
            info = await service.register_schema(AB_TEXT)
            return await service.validate_batch(
                info["schema_id"], [VALID_DOC, INVALID_DOC], max_steps=100
            )

        batch = run(scenario())
        assert batch["partial"] is False
        assert batch["completed"] == batch["total"] == 2
        assert "error" not in batch


class TestWireBoundary:
    def test_handle_request_maps_taxonomy_to_envelope(self):
        async def scenario():
            service = ValidationService(capacity=4)
            return await service.handle_request(
                {"id": 9, "op": "validate", "schema_id": "ghost", "document": "<a/>"}
            )

        response = run(scenario())
        assert response["id"] == 9
        assert response["ok"] is False
        assert response["error"]["type"] == "ServiceError"

    def test_handle_request_bad_xml_keeps_connection_semantics(self):
        async def scenario():
            service = ValidationService(capacity=4)
            info = await service.register_schema(AB_TEXT)
            return await service.handle_request(
                {
                    "id": 1,
                    "op": "validate",
                    "schema_id": info["schema_id"],
                    "document": "<a><unclosed>",
                }
            )

        response = run(scenario())
        assert response["ok"] is False
        assert "Error" in response["error"]["type"]

    def test_unknown_strategy_is_rejected_before_compiling(self):
        async def scenario():
            service = ValidationService(capacity=4)
            response = await service.handle_request(
                {"id": 1, "op": "register_schema", "schema": AB_TEXT, "strategy": "bogus"}
            )
            return response, service.registry.stats()

        response, stats = run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == "AutomatonError"
        assert "'bogus'" in response["error"]["message"]
        assert stats["compiles"] == 0 and stats["size"] == 0
        assert stats["misses"] == 0 and stats["hits"] == 0

    def test_inline_schema_and_reuse_false(self):
        async def scenario():
            service = ValidationService(capacity=4)
            fresh = await service.handle_request(
                {
                    "id": 1,
                    "op": "validate",
                    "schema": AB_TEXT,
                    "reuse": False,
                    "document": VALID_DOC,
                }
            )
            registered = await service.handle_request(
                {
                    "id": 2,
                    "op": "validate",
                    "schema": AB_TEXT,
                    "document": VALID_DOC,
                }
            )
            return fresh, registered, service.registry.stats()

        fresh, registered, stats = run(scenario())
        assert fresh["ok"] and fresh["result"]["verdict"] == "valid"
        assert registered["ok"] and registered["result"]["verdict"] == "valid"
        # reuse:false bypassed the registry entirely
        assert stats["size"] == 1 and stats["compiles"] == 1

    def test_ping_and_stats(self):
        async def scenario():
            service = ValidationService(capacity=4)
            pong = await service.handle_request({"id": 1, "op": "ping"})
            stats = await service.handle_request({"id": 2, "op": "stats"})
            return pong, stats

        pong, stats = run(scenario())
        assert pong["result"] == {"pong": True}
        assert stats["result"]["registry"]["capacity"] == 4


class TestTcpRoundTrip:
    async def _send(self, reader, writer, payload):
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())

    def test_full_session_over_tcp(self):
        async def scenario():
            service = ValidationService(capacity=4)
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                registered = await self._send(
                    reader, writer, {"id": 1, "op": "register_schema", "schema": AB_TEXT}
                )
                assert registered["ok"], registered
                schema_id = registered["result"]["schema_id"]
                valid = await self._send(
                    reader,
                    writer,
                    {
                        "id": 2,
                        "op": "validate",
                        "schema_id": schema_id,
                        "document": VALID_DOC,
                    },
                )
                batch = await self._send(
                    reader,
                    writer,
                    {
                        "id": 3,
                        "op": "validate_batch",
                        "schema_id": schema_id,
                        "documents": [VALID_DOC] * 4,
                        "max_steps": 5,
                    },
                )
                bad = await self._send(
                    reader, writer, {"id": 4, "op": "validate", "schema_id": "ghost"}
                )
                malformed = await self._send(reader, writer, {"id": 5})
                return valid, batch, bad, malformed
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        valid, batch, bad, malformed = run(scenario())
        assert valid["ok"] and valid["result"]["verdict"] == "valid"
        assert batch["ok"] and batch["result"]["partial"] is True
        assert batch["result"]["completed"] == 3
        assert bad["ok"] is False
        # missing 'document' — but schema_id resolution fails first for
        # ghost ids; id 5 has no op at all and fails protocol decode
        assert malformed["ok"] is False
        assert malformed["error"]["type"] == "ProtocolError"

    def test_non_finite_numbers_are_protocol_errors(self):
        # json.loads accepts NaN and Infinity; a NaN deadline used to
        # switch the deadline off.
        async def scenario():
            service = ValidationService(capacity=4)
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                registered = await self._send(
                    reader, writer, {"id": 1, "op": "register_schema", "schema": AB_TEXT}
                )
                schema_id = registered["result"]["schema_id"]
                answers = []
                for literal in ("NaN", "Infinity"):
                    writer.write(
                        (
                            '{"id": 2, "op": "validate", "schema_id": "%s", '
                            '"document": "%s", "deadline_ms": %s}\n'
                            % (schema_id, VALID_DOC, literal)
                        ).encode()
                    )
                    await writer.drain()
                    answers.append(json.loads(await reader.readline()))
                valid = await self._send(
                    reader,
                    writer,
                    {"id": 3, "op": "validate", "schema_id": schema_id, "document": VALID_DOC},
                )
                return answers, valid
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        answers, valid = run(scenario())
        for answer in answers:
            assert answer["ok"] is False
            assert answer["error"]["type"] == "ProtocolError"
            assert "finite" in answer["error"]["message"]
        assert valid["ok"] and valid["result"]["verdict"] == "valid"

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" * 5000],
        ids=["nan", "infinity", "-infinity", "1e400", "-1e400", "5000-digit-int"],
    )
    def test_non_finite_request_id_is_refused(self, literal):
        # The id is echoed back; a non-finite one used to come back as
        # text that is not JSON, and an integer too long to convert
        # used to drop the connection without an answer.
        async def scenario():
            service = ValidationService(capacity=4)
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(('{"id": %s, "op": "ping"}\n' % literal).encode())
                await writer.drain()
                answer = (await reader.readline()).decode()
                pong = await self._send(reader, writer, {"id": 2, "op": "ping"})
                return answer, pong
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        answer, pong = run(scenario())
        parsed = json.loads(answer, parse_constant=_refuse)
        assert parsed["ok"] is False
        assert parsed["error"]["type"] == "ProtocolError"
        assert parsed["id"] is None
        assert pong["ok"] is True and pong["result"]["pong"] is True

    def test_connection_survives_errors(self):
        async def scenario():
            service = ValidationService(capacity=4)
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                pong = await self._send(reader, writer, {"id": 2, "op": "ping"})
                return first, pong
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        first, pong = run(scenario())
        assert first["ok"] is False and first["error"]["type"] == "ProtocolError"
        assert pong["ok"] is True and pong["result"]["pong"] is True
