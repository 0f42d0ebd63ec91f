"""Content-hash shard router: horizontal scale-out for the serving layer.

A :class:`ShardRouter` is a thin stdlib-asyncio front process that fans
``/solve`` requests out to N backend :class:`~repro.server.app.SolverServer`
instances ("shards"). Placement is **formula content-hash**: the request's
script is hashed with :func:`shard_key` — the same content hash the
:class:`~repro.service.cache.CompileCache` keys on — so structurally
identical formulas always land on the same shard and warm-cache hit rates
survive scale-out (cache hits *concentrate* per shard instead of being
diluted N ways by round-robin).

Routing policy (see DESIGN.md Appendix F):

* primary shard = ``int(shard_key[:16], 16) % N`` — a fixed modular hash
  ring; deterministic across processes and Python runs (sha256, never
  ``hash()``).
* **fail-over** walks the ring from the primary, bounded by
  ``failover_attempts``, and only on *connect* failure — a shard that
  accepted the request and then died answers with a typed ``upstream``
  envelope instead (re-sending after acceptance could double-solve).
* shards marked unhealthy by the background ``/healthz`` prober are
  skipped during ring walks unless every shard is unhealthy (then the
  primary is tried anyway — it may have just recovered).

Observability: the router's ``/metrics`` returns every shard's metrics
under ``shards.shard_<i>`` plus a **rollup** — element-wise summed
counters and cache statistics — so the PR 5 accounting identity
(``requests == completed + Σrejected.* + timeouts + cancellations +
internal``) holds on the aggregate exactly as it does per shard
(:func:`aggregate_metrics` is the single implementation, shared with the
fault-injection tests). Router-tier events (fail-overs, upstream errors,
its own rejections) are accounted separately under ``router.counters``.

``python -m repro.server.router --shards 4 --backend process`` spawns and
supervises its own shard fleet (ephemeral ports, crash-restart with
backoff, drain propagated to every shard on SIGTERM); ``--attach
host:port,host:port`` routes to an externally managed fleet instead.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import signal
import socket
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.server.httpio import (
    BackgroundService,
    ConnectFailed,
    HttpRequest,
    HttpService,
    Reply,
    RequestFailed,
    ServerState,
    envelope_reply,
    json_reply,
    round_trip,
    serve_until_signalled,
)
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DRAINING,
    ERROR_UPSTREAM,
    SolveRequest,
    error_envelope,
)
from repro.service.cache import compile_cache_key
from repro.service.metrics import MetricsRegistry

__all__ = [
    "BackgroundRouter",
    "RouterConfig",
    "ShardFleet",
    "ShardRouter",
    "ShardSpec",
    "aggregate_metrics",
    "session_shard_key",
    "shard_key",
    "shard_index",
]


# --------------------------------------------------------------------- #
# placement
# --------------------------------------------------------------------- #


def shard_key(script: str) -> str:
    """The routing hash of one SMT-LIB script (hex sha256).

    Structurally identical formulas — whatever their whitespace or
    comments — share a key, because the key is computed over the *parsed*
    assertion conjunction with :func:`~repro.service.cache.
    compile_cache_key`, the exact content hash the per-shard CompileCache
    keys on. Scripts that do not parse fall back to a hash of the raw
    text: they still route deterministically (and the shard answers with
    its located ``parse`` envelope).

    Stability contract: sha256 end to end — never ``hash()`` — so the
    key is identical across processes, Python runs and
    ``PYTHONHASHSEED`` values; a pinned test enforces this.
    """
    try:
        from repro.smt.parser import parse_script

        parsed = parse_script(script)
        return compile_cache_key(parsed.assertions)
    except Exception:  # noqa: BLE001 — unparseable input still routes
        return hashlib.sha256(script.encode("utf-8")).hexdigest()


def session_shard_key(session_id: str) -> str:
    """The routing hash of one sticky session id (hex sha256).

    Sessions are **server-side state**: every ``/session/*`` request with
    the same id must land on the shard holding the live
    :class:`~repro.smt.session.SolverSession`, so placement hashes the id
    itself — never the request content. Same stability contract as
    :func:`shard_key`: sha256, never ``hash()``.
    """
    return hashlib.sha256(session_id.encode("utf-8")).hexdigest()


def shard_index(key: str, num_shards: int) -> int:
    """Map a :func:`shard_key` onto a shard ordinal (fixed modular ring)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return int(key[:16], 16) % num_shards


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardSpec:
    """Address of one backend SolverServer."""

    host: str
    port: int

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        host, sep, port = text.rpartition(":")
        if not sep or not host:
            raise ValueError(f"shard spec must be host:port, got {text!r}")
        return cls(host=host, port=int(port))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass
class RouterConfig:
    """Everything ``python -m repro.server.router`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8047
    shards: List[ShardSpec] = field(default_factory=list)
    #: Max shards tried per request (primary + fail-overs).
    failover_attempts: int = 3
    connect_timeout: float = 2.0
    #: Hard bound on one proxied request (headroom over the shard's own
    #: deadline enforcement, so a wedged shard can never hang a client).
    upstream_timeout: float = 120.0
    health_interval: float = 0.5
    probe_timeout: float = 2.0
    drain_timeout: float = 10.0
    idle_timeout: float = 60.0
    max_request_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a router needs at least one shard")
        if self.failover_attempts < 1:
            raise ValueError(
                f"failover_attempts must be >= 1, got {self.failover_attempts}"
            )
        if self.health_interval <= 0 or self.probe_timeout <= 0:
            raise ValueError("health_interval and probe_timeout must be positive")
        if self.idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {self.idle_timeout}")


@dataclass
class ShardState:
    """Mutable health record of one shard."""

    spec: ShardSpec
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: str = ""

    def mark_up(self) -> None:
        self.healthy = True
        self.consecutive_failures = 0
        self.last_error = ""

    def mark_down(self, error: str) -> None:
        self.healthy = False
        self.consecutive_failures += 1
        self.last_error = error


# --------------------------------------------------------------------- #
# metrics aggregation (shared with the fault-injection tests)
# --------------------------------------------------------------------- #


def _sum_tree(accumulator: Dict[str, Any], payload: Dict[str, Any]) -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            _sum_tree(accumulator.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            accumulator[key] = accumulator.get(key, 0) + value


def _merge_histograms(
    accumulator: Dict[str, Any], payload: Dict[str, Any]
) -> None:
    """Histogram summaries merge by count/total (additive) and min/max;
    the mean is recomputed and per-shard percentiles are dropped — they
    cannot be combined from summaries."""
    for name, summary in payload.items():
        if not isinstance(summary, dict):
            continue
        merged = accumulator.setdefault(
            name, {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        )
        count = summary.get("count", 0)
        if not count:
            continue
        if merged["count"]:
            merged["min"] = min(merged["min"], summary.get("min", 0.0))
        else:
            merged["min"] = summary.get("min", 0.0)
        merged["max"] = max(merged["max"], summary.get("max", 0.0))
        merged["count"] += count
        merged["total"] += summary.get("total", 0.0)
        merged["mean"] = merged["total"] / merged["count"]


def aggregate_metrics(shard_payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Element-wise rollup of per-shard ``/metrics`` payloads.

    Counters and cache tallies add linearly, so every per-shard accounting
    identity (``server.requests == server.completed + Σserver.rejected.*
    + server.timeout + server.cancelled + server.internal``) survives
    summation. Histograms merge by count/total/min/max with the mean
    recomputed; percentiles are per-shard only. Rates are recomputed,
    never averaged; non-numeric leaves (state strings, ...) are dropped —
    they remain visible under ``shards.shard_<i>``.
    """
    rollup: Dict[str, Any] = {}
    histograms: Dict[str, Any] = {}
    for payload in shard_payloads:
        for key, value in payload.items():
            if key == "histograms" and isinstance(value, dict):
                _merge_histograms(histograms, value)
            elif isinstance(value, dict):
                _sum_tree(rollup.setdefault(key, {}), value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                rollup[key] = rollup.get(key, 0) + value
    if histograms:
        rollup["histograms"] = histograms
    cache = rollup.get("cache")
    if isinstance(cache, dict):
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = cache.get("hits", 0) / lookups if lookups else 0.0
    return rollup


# --------------------------------------------------------------------- #
# the router
# --------------------------------------------------------------------- #


class ShardRouter(HttpService):
    """Asyncio front process sharding ``/solve`` by formula content-hash."""

    tier = "router"
    crash_type = ERROR_UPSTREAM
    crash_prefix = "router dispatch failed: "

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        self.metrics = MetricsRegistry()
        self.shards: List[ShardState] = [
            ShardState(spec=spec) for spec in config.shards
        ]
        self._prober: Optional[asyncio.Task] = None

    async def start(self) -> None:
        await super().start()
        self._prober = asyncio.create_task(self._probe_loop())

    async def _drain(self) -> bool:
        """In-flight proxied requests get ``drain_timeout`` to finish.

        Shard processes are *not* touched here — drain propagation to a
        supervised fleet is the :class:`ShardFleet`'s job (the router may
        be attached to shards it does not own).
        """
        if self._prober is not None:
            self._prober.cancel()
        deadline = time.monotonic() + self.config.drain_timeout
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.wait(
                list(self._active_requests),
                timeout=max(0.05, deadline - time.monotonic()),
            )
        return not self._active_requests

    # -------------------------------------------------------------- #
    # upstream transport
    # -------------------------------------------------------------- #

    async def _get(self, spec: ShardSpec, path: str) -> Tuple[int, bytes]:
        """One probe-bounded GET; raises ConnectFailed / RequestFailed."""
        return await round_trip(
            spec.host,
            spec.port,
            "GET",
            path,
            connect_timeout=self.config.connect_timeout,
            timeout=self.config.probe_timeout,
        )

    async def _proxy(
        self, index: int, path: str, body: bytes, content_type: str, timeout: float
    ) -> Reply:
        """POST *body* to shard *index* → ``(payload, status)``.

        :class:`ConnectFailed` means the request was never sent (safe to
        fail over); :class:`RequestFailed` means the shard accepted it and
        then failed (no retry — it may be solving it).
        """
        spec = self.shards[index].spec
        status, payload = await round_trip(
            spec.host,
            spec.port,
            "POST",
            path,
            body,
            content_type=content_type,
            connect_timeout=self.config.connect_timeout,
            timeout=timeout,
        )
        self.metrics.counter("router.forwarded").inc()
        self.metrics.counter(f"router.shard.{index}.forwarded").inc()
        return payload, status

    # -------------------------------------------------------------- #
    # health probing
    # -------------------------------------------------------------- #

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._probe_shard(state) for state in self.shards),
                return_exceptions=True,
            )
            await asyncio.sleep(self.config.health_interval)

    async def _probe_shard(self, state: ShardState) -> None:
        try:
            status, _body = await self._get(state.spec, "/healthz")
        except (ConnectFailed, RequestFailed) as exc:
            state.mark_down(str(exc))
            return
        if status == 200:
            state.mark_up()
        else:
            # 503 = shard draining: stop routing new work to it.
            state.mark_down(f"healthz answered {status}")

    # -------------------------------------------------------------- #
    # routing
    # -------------------------------------------------------------- #

    def _ring_order(self, primary: int) -> List[int]:
        """Shard indices to try, bounded: healthy ones walking the ring from
        the primary; if none is healthy, the primary alone (it may have just
        recovered — the prober lags by up to ``health_interval``)."""
        n = len(self.shards)
        ring = [(primary + step) % n for step in range(n)]
        healthy = [i for i in ring if self.shards[i].healthy]
        order = healthy if healthy else [primary]
        return order[: self.config.failover_attempts]

    async def _route(self, request: HttpRequest, op: Optional[str]) -> Reply:
        """``/solve`` (``op=None``) or ``/session/<op>``: one counted request."""
        self.metrics.counter("router.requests").inc()
        if self.state is not ServerState.SERVING:
            self.metrics.counter("router.rejected.draining").inc()
            return envelope_reply(
                error_envelope(
                    ERROR_DRAINING, "router is draining; not accepting new requests"
                )
            )
        if op is None:
            return await self._route_solve(request)
        return await self._route_session(request, op)

    def _bad_request(self, message: str) -> Reply:
        self.metrics.counter("router.rejected.bad_request").inc()
        return envelope_reply(error_envelope(ERROR_BAD_REQUEST, message))

    async def _route_solve(self, request: HttpRequest) -> Reply:
        try:
            solve_request = SolveRequest.from_body(request.body, request.content_type)
        except ValueError as exc:
            return self._bad_request(str(exc))

        key = shard_key(solve_request.script)
        primary = shard_index(key, len(self.shards))
        timeout = self.config.upstream_timeout
        if solve_request.deadline_ms is not None:
            # The shard enforces the deadline; the proxy read just needs
            # headroom beyond it so a wedged shard cannot hang the client.
            timeout = min(timeout, solve_request.deadline_ms / 1000.0 + 15.0)

        last_error = "no shard attempted"
        for attempt, index in enumerate(self._ring_order(primary)):
            state = self.shards[index]
            if attempt:
                self.metrics.counter("router.failover").inc()
            try:
                return await self._proxy(
                    index, "/solve", request.body, request.content_type, timeout
                )
            except ConnectFailed as exc:
                last_error = f"{state.spec}: {exc}"
                state.mark_down(last_error)
            except RequestFailed as exc:
                state.mark_down(f"{state.spec}: {exc}")
                self.metrics.counter("router.upstream_errors").inc()
                return envelope_reply(
                    error_envelope(
                        ERROR_UPSTREAM,
                        f"shard {state.spec} failed mid-request: {exc}",
                        request_id=solve_request.request_id,
                    )
                )

        self.metrics.counter("router.upstream_errors").inc()
        return envelope_reply(
            error_envelope(
                ERROR_UPSTREAM,
                f"no shard reachable for key {key[:16]} "
                f"(primary shard_{primary}): {last_error}",
                request_id=solve_request.request_id,
            )
        )

    async def _route_session(self, request: HttpRequest, op: str) -> Reply:
        """Sticky routing for ``/session/*``: the id pins the shard.

        Placement hashes the session id (injected here on an id-less
        ``open``, so the client's reply and every follow-up use the same
        id). There is **no fail-over**: the session state lives on exactly
        one shard, so a down shard is an ``upstream`` error — replaying
        the op elsewhere would silently run against a fresh empty session.
        """
        text = request.body.decode("utf-8", errors="replace")
        try:
            payload = json.loads(text) if text.strip() else {}
        except json.JSONDecodeError as exc:
            payload = None
            bad = f"request body is not valid JSON: {exc}"
        else:
            bad = "" if isinstance(payload, dict) else (
                f"JSON request body must be an object, got {type(payload).__name__}"
            )
        session_id = payload.get("session") if isinstance(payload, dict) else None
        if not bad and session_id is not None and not isinstance(session_id, str):
            bad = f"session must be a string, got {session_id!r}"
        if not bad and not session_id:
            if op == "open":
                # Inject the id here so the sticky placement decision and
                # the id the client learns are the same thing.
                session_id = uuid.uuid4().hex
                payload["session"] = session_id
            else:
                bad = f"/session/{op} needs a 'session' id"
        if bad:
            return self._bad_request(bad)

        body = json.dumps(payload).encode("utf-8")
        index = shard_index(session_shard_key(session_id), len(self.shards))
        state = self.shards[index]
        timeout = self.config.upstream_timeout
        deadline_ms = payload.get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) and deadline_ms > 0:
            timeout = min(timeout, float(deadline_ms) / 1000.0 + 15.0)
        try:
            return await self._proxy(
                index, f"/session/{op}", body, "application/json", timeout
            )
        except (ConnectFailed, RequestFailed) as exc:
            state.mark_down(f"{state.spec}: {exc}")
            self.metrics.counter("router.upstream_errors").inc()
            return envelope_reply(
                error_envelope(
                    ERROR_UPSTREAM,
                    f"session shard {state.spec} (shard_{index}) unavailable: {exc}",
                    request_id=session_id,
                )
            )

    # -------------------------------------------------------------- #
    # endpoints
    # -------------------------------------------------------------- #

    def _healthz(self) -> Reply:
        healthy_shards = sum(1 for s in self.shards if s.healthy)
        serving = self.state is ServerState.SERVING and healthy_shards > 0
        payload = {
            "status": "ok" if serving else str(self.state),
            "state": str(self.state),
            "uptime_s": round(self.uptime, 3),
            "shards": [
                {
                    "id": f"shard_{i}",
                    "host": s.spec.host,
                    "port": s.spec.port,
                    "healthy": s.healthy,
                    "last_error": s.last_error,
                }
                for i, s in enumerate(self.shards)
            ],
            "healthy_shards": healthy_shards,
            "total_shards": len(self.shards),
        }
        return json_reply(payload, 200 if serving else 503)

    async def _metrics_endpoint(self) -> Reply:
        async def fetch(state: ShardState):
            try:
                status, payload = await self._get(state.spec, "/metrics")
                if status != 200:
                    return {"error": f"/metrics answered {status}"}
                return json.loads(payload.decode("utf-8"))
            except (ConnectFailed, RequestFailed, ValueError) as exc:
                return {"error": f"{type(exc).__name__}: {exc}"}

        shard_payloads = await asyncio.gather(*(fetch(s) for s in self.shards))
        reachable = [p for p in shard_payloads if "error" not in p]
        rollup = aggregate_metrics(reachable)
        payload = {
            "router": {
                "state": str(self.state),
                "uptime_s": round(self.uptime, 3),
                "healthy_shards": sum(1 for s in self.shards if s.healthy),
                "total_shards": len(self.shards),
                "reachable_shards": len(reachable),
                **self.metrics.export(),
            },
            "shards": {
                f"shard_{i}": shard_payloads[i] for i in range(len(self.shards))
            },
            **rollup,
        }
        return json_reply(payload)


# --------------------------------------------------------------------- #
# embedding helper (tests, benchmarks)
# --------------------------------------------------------------------- #


class BackgroundRouter(BackgroundService):
    """Run a :class:`ShardRouter` on a daemon thread with its own loop.

    The mirror image of :class:`~repro.server.app.BackgroundServer`::

        with BackgroundRouter(RouterConfig(port=0, shards=[...])) as router:
            SolverClient(router.host, router.port).solve(...)
    """

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config, lambda: ShardRouter(config), "router")

    @property
    def router(self) -> Optional[ShardRouter]:
        return self.service


# --------------------------------------------------------------------- #
# fleet supervision (CLI spawn mode)
# --------------------------------------------------------------------- #


def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class ShardFleet:
    """Spawn-and-supervise N ``python -m repro.server`` shard processes.

    Each shard is a real OS process on its own port; a dead shard is
    restarted (same port, so the router's ring stays stable) with
    exponential backoff. ``shutdown()`` propagates the graceful drain:
    SIGTERM to every shard (their signal handler runs the PR 5 drain),
    bounded wait, SIGKILL stragglers.
    """

    def __init__(
        self,
        count: int,
        *,
        host: str = "127.0.0.1",
        shard_args: Optional[Sequence[str]] = None,
        backoff_initial: float = 0.5,
        backoff_max: float = 10.0,
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.host = host
        self.shard_args = list(shard_args or [])
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.specs: List[ShardSpec] = [
            ShardSpec(host=host, port=_free_port(host)) for _ in range(count)
        ]
        self._procs: List[Optional[subprocess.Popen]] = [None] * count
        self._restarts = [0] * count
        self._next_start = [0.0] * count
        self._closed = False

    def _command(self, spec: ShardSpec) -> List[str]:
        return [
            sys.executable,
            "-m",
            "repro.server",
            "--host",
            spec.host,
            "--port",
            str(spec.port),
            *self.shard_args,
        ]

    def start(self) -> List[ShardSpec]:
        for index in range(len(self.specs)):
            self._spawn(index)
        return list(self.specs)

    def _spawn(self, index: int) -> None:
        self._procs[index] = subprocess.Popen(self._command(self.specs[index]))

    async def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every shard's ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        pending = set(range(len(self.specs)))
        while pending:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"shards {sorted(pending)} not healthy within {timeout:g} s"
                )
            for index in list(pending):
                spec = self.specs[index]
                try:
                    status, _body = await round_trip(
                        spec.host,
                        spec.port,
                        "GET",
                        "/healthz",
                        connect_timeout=1.0,
                        timeout=2.0,
                    )
                except (ConnectFailed, RequestFailed):
                    continue
                if status == 200:
                    pending.discard(index)
            if pending:
                await asyncio.sleep(0.2)

    async def supervise(self, interval: float = 1.0) -> None:
        """Restart dead shards (same port) with exponential backoff."""
        while not self._closed:
            now = time.monotonic()
            for index, proc in enumerate(self._procs):
                if self._closed or proc is None or proc.poll() is None:
                    continue
                if now < self._next_start[index]:
                    continue
                self._restarts[index] += 1
                delay = min(
                    self.backoff_max,
                    self.backoff_initial * (2 ** (self._restarts[index] - 1)),
                )
                self._next_start[index] = now + delay
                print(
                    f"[repro.router] shard_{index} ({self.specs[index]}) died "
                    f"(exit {proc.returncode}) — restarting "
                    f"(attempt {self._restarts[index]}, next backoff {delay:g} s)",
                    flush=True,
                )
                self._spawn(index)
            await asyncio.sleep(interval)

    def shutdown(self, drain_timeout: float = 15.0) -> None:
        """Propagate the graceful drain: SIGTERM, bounded wait, SIGKILL."""
        self._closed = True
        procs = [p for p in self._procs if p is not None and p.poll() is None]
        for proc in procs:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:  # pragma: no cover
                pass
        deadline = time.monotonic() + drain_timeout
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)


# --------------------------------------------------------------------- #
# CLI: python -m repro.server.router
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.router",
        description="Content-hash shard router over N repro.server instances.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8047, help="router port")
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="spawn-and-supervise this many repro.server shard processes",
    )
    parser.add_argument(
        "--attach",
        default="",
        help="comma-separated host:port list of externally managed shards "
        "(mutually exclusive with --shards)",
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="solve backend for spawned shards",
    )
    parser.add_argument("--workers", type=int, default=2, help="workers per shard")
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument("--deadline-ms", type=float, default=30000.0)
    parser.add_argument("--num-reads", type=int, default=64)
    parser.add_argument("--num-sweeps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--failover", type=int, default=3, help="max shards tried")
    parser.add_argument("--health-interval", type=float, default=0.5)
    parser.add_argument("--drain-timeout", type=float, default=10.0)
    parser.add_argument("--idle-timeout", type=float, default=60.0)
    return parser


def _shard_cli_args(args: argparse.Namespace) -> List[str]:
    shard_args = [
        "--backend",
        args.backend,
        "--workers",
        str(args.workers),
        "--queue-limit",
        str(args.queue_limit),
        "--deadline-ms",
        str(args.deadline_ms),
        "--num-reads",
        str(args.num_reads),
        "--drain-timeout",
        str(args.drain_timeout),
    ]
    if args.num_sweeps is not None:
        shard_args += ["--num-sweeps", str(args.num_sweeps)]
    if args.seed is not None:
        shard_args += ["--seed", str(args.seed)]
    return shard_args


async def _run(args: argparse.Namespace) -> None:
    fleet: Optional[ShardFleet] = None
    if args.shards and args.attach:
        raise ValueError("--shards and --attach are mutually exclusive")
    if args.shards:
        fleet = ShardFleet(
            args.shards, host=args.host, shard_args=_shard_cli_args(args)
        )
        specs = fleet.start()
        print(
            f"[repro.router] spawned {len(specs)} shard(s): "
            + ", ".join(str(s) for s in specs),
            flush=True,
        )
        await fleet.wait_ready()
    elif args.attach:
        specs = [ShardSpec.parse(part) for part in args.attach.split(",") if part]
    else:
        raise ValueError("need --shards N or --attach host:port[,host:port...]")

    config = RouterConfig(
        host=args.host,
        port=args.port,
        shards=specs,
        failover_attempts=args.failover,
        health_interval=args.health_interval,
        drain_timeout=args.drain_timeout,
        idle_timeout=args.idle_timeout,
    )
    router = ShardRouter(config)
    await router.start()
    supervisor = asyncio.create_task(fleet.supervise()) if fleet else None
    await serve_until_signalled(
        router,
        f"[repro.router] routing on {router.host}:{router.port} over "
        f"{len(specs)} shard(s) (failover={config.failover_attempts})",
    )
    if supervisor is not None:
        supervisor.cancel()
    if fleet is not None:
        # Drain propagation: the shards get their own graceful SIGTERM drain.
        await asyncio.get_running_loop().run_in_executor(
            None, fleet.shutdown, args.drain_timeout + 5.0
        )
    print("[repro.router] drained and stopped", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_run(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
