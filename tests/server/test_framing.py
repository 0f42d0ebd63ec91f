"""Framing rejections are handled the same way on both serving tiers.

``SolverServer`` and ``ShardRouter`` share one connection loop
(:class:`repro.server.httpio.HttpService`), so an oversized body and a
malformed request line get the same typed envelope, the same bounded
discard of unread bytes, and the same counters on either tier:
``<tier>.requests`` plus ``<tier>.rejected.too_large`` or
``<tier>.rejected.bad_request``.
"""

from __future__ import annotations

import socket

import pytest

from repro.server.app import BackgroundServer
from repro.server.client import SolverClient
from repro.server.router import BackgroundRouter, RouterConfig, ShardSpec

from tests.server.conftest import SAT_SCRIPT, fast_config

pytestmark = pytest.mark.server

#: Far past every socket buffer, so the rejected body is still in flight
#: when the envelope is written.
BIG_SCRIPT = "(check-sat)" + "; pad\n" * 400_000


@pytest.fixture(params=["server", "router"])
def tier(request):
    """``(name, handle)`` for a tier whose request limit is 256 bytes."""
    if request.param == "server":
        with BackgroundServer(fast_config(max_request_bytes=256)) as server:
            yield "server", server
        return
    with BackgroundServer(fast_config()) as shard:
        config = RouterConfig(
            port=0,
            shards=[ShardSpec("127.0.0.1", shard.port)],
            max_request_bytes=256,
        )
        with BackgroundRouter(config) as router:
            yield "router", router


def tier_counters(name: str, metrics: dict) -> dict:
    return metrics["counters"] if name == "server" else metrics["router"]["counters"]


def send_raw(host: str, port: int, payload: bytes) -> bytes:
    """Write *payload* on a fresh socket and read until the peer closes."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestOversizedBody:
    def test_repeated_oversized_bodies_all_get_too_large(self, tier):
        _name, handle = tier
        assert len(BIG_SCRIPT) > 2_000_000
        for _ in range(5):
            with SolverClient(handle.host, handle.port, timeout=30.0) as client:
                reply = client.solve(BIG_SCRIPT)
            assert reply.error_type == "too_large"
            assert reply.http_status == 413
        with SolverClient(handle.host, handle.port) as client:
            assert client.healthz()["http_status"] == 200


class TestFramingRejectionCounters:
    def test_both_rejections_are_counted_requests(self, tier):
        name, handle = tier
        reply = send_raw(handle.host, handle.port, b"NOT-HTTP\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b'"bad_request"' in reply
        with SolverClient(handle.host, handle.port) as client:
            assert client.solve("x" * 1000).error_type == "too_large"
        with SolverClient(handle.host, handle.port) as client:
            assert client.solve(SAT_SCRIPT).ok
            counters = tier_counters(name, client.metrics())
        assert counters[f"{name}.requests"] == 3
        assert counters[f"{name}.rejected.too_large"] == 1
        assert counters[f"{name}.rejected.bad_request"] == 1
        rejected = sum(
            value
            for key, value in counters.items()
            if key.startswith(f"{name}.rejected.")
        )
        if name == "server":
            answered = counters["server.completed"]
        else:
            answered = counters["router.forwarded"]
        assert answered == 1
        assert counters[f"{name}.requests"] == answered + rejected
