"""The asyncio solving server: admission, workers, sessions, observability.

Request path (``POST /solve``)::

    read (size-gated) → parse envelope → parse SMT-LIB → admit (bounded
    queue) → wait for worker slot (deadline-aware) → solve on executor
    thread (deadline-aware, cancellable) → respond

The connection loop, the lifecycle state machine and the drain order are
the shared :class:`~repro.server.httpio.HttpService` skeleton (see
DESIGN.md Appendix E); this module supplies the endpoints and the drain
hooks (admission stop, queue wait, session close, pool shutdown).

Observability:

* ``GET /healthz`` — 200 with queue/worker gauges while serving, 503 once
  draining (load balancers stop routing before the listener closes).
* ``GET /metrics`` — deterministic-keyed (recursively sorted) JSON: the
  shared :class:`~repro.service.metrics.MetricsRegistry` export, cache
  statistics, queue gauges and the request-accounting counters. The
  accounting identity ``requests == completed + timeouts + cancellations
  + rejections`` holds at every quiescent point.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional

from repro.server.admission import (
    AdmissionQueue,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
)
from repro.server.httpio import (
    BackgroundService,
    HttpRequest,
    HttpService,
    Reply,
    ServerState,
    envelope_reply,
    json_reply,
)
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DRAINING,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ResponseEnvelope,
    SessionRequest,
    SolveRequest,
    error_envelope,
    locate_parse_error,
)
from repro.server.sessions import (
    SessionGoneError,
    SessionLimitError,
    SessionManager,
)
from repro.server.workers import SolverWorkerPool
from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.smt.parser import ParseError, parse_script
from repro.smt.session import SessionError, SolverSession
from repro.smt.sexpr import SExprError

__all__ = ["BackgroundServer", "ServerConfig", "ServerState", "SolverServer"]


def _ms_since(start: float) -> float:
    return (time.monotonic() - start) * 1000.0


@dataclass
class ServerConfig:
    """Everything ``python -m repro.server`` exposes as flags.

    ``sampler_factory`` is the fault-injection hook used by the lifecycle
    tests (inject a slow or failing sampler per request); it is not a CLI
    flag.
    """

    host: str = "127.0.0.1"
    port: int = 8037
    workers: int = 2
    #: Solve backend: "thread" (executor threads, one GIL) or "process"
    #: (long-lived worker processes — see repro.server.procpool).
    backend: str = "thread"
    #: multiprocessing start method for backend="process" ("spawn" is the
    #: safe default alongside asyncio + executor threads).
    mp_context: str = "spawn"
    queue_limit: int = 16
    deadline_ms: float = 30000.0
    drain_timeout: float = 10.0
    max_request_bytes: int = 1 << 20
    idle_timeout: float = 60.0
    num_reads: int = 64
    seed: Optional[int] = None
    sampler_params: Dict[str, Any] = field(default_factory=dict)
    sampler_factory: Optional[Any] = None
    penalty_strength: float = 1.0
    max_attempts: int = 3
    policy: Optional[RetryPolicy] = None
    cache_size: int = 256
    #: Sticky ``/session/*`` sessions: idle sessions expire after this many
    #: seconds (lazily, never mid-solve).
    session_idle_timeout: float = 300.0
    #: Live sessions allowed at once; /session/open past the limit is
    #: rejected with a typed ``overloaded`` envelope.
    max_sessions: int = 64
    #: Opt sessions into warm starts (previous-model re-verification +
    #: initial_states seeding). Off by default: warm mode trades the
    #: bit-identity-with-fresh-solver contract for repeat-solve speed.
    session_warm_start: bool = False
    #: Solve strategy: "direct" (unrefined pipeline) or "refine" (the
    #: CEGAR loop — classical propagation clamps implied bits, the
    #: annealer samples the reduced QUBO, failed verifications become
    #: blocking lemmas, guaranteed fallback to the unrefined solve).
    strategy: str = "direct"
    #: Refinement round budget per check (strategy="refine" only).
    refine_max_rounds: int = 4
    #: Anytime restart budget for weighted (``assert-soft``) requests.
    opt_max_restarts: int = 4
    #: Exhaustive-finish threshold in string bits for weighted requests:
    #: variables at or under it are enumerated exactly (proven optimal).
    opt_exhaustive_bits: int = 16

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {self.backend!r}"
            )
        if self.strategy not in ("direct", "refine"):
            raise ValueError(
                f"strategy must be 'direct' or 'refine', got {self.strategy!r}"
            )
        if self.refine_max_rounds < 0:
            raise ValueError(
                f"refine_max_rounds must be >= 0, got {self.refine_max_rounds}"
            )
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be non-negative, got {self.drain_timeout}"
            )
        if self.max_request_bytes < 1:
            raise ValueError(
                f"max_request_bytes must be >= 1, got {self.max_request_bytes}"
            )
        if self.idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be positive, got {self.idle_timeout}"
            )
        if self.session_idle_timeout <= 0:
            raise ValueError(
                f"session_idle_timeout must be positive, got "
                f"{self.session_idle_timeout}"
            )
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.opt_max_restarts < 1:
            raise ValueError(
                f"opt_max_restarts must be >= 1, got {self.opt_max_restarts}"
            )
        if self.opt_exhaustive_bits < 0:
            raise ValueError(
                f"opt_exhaustive_bits must be >= 0, got {self.opt_exhaustive_bits}"
            )


class SolverServer(HttpService):
    """The asyncio TCP/HTTP SMT-solving server (single event loop)."""

    tier = "server"

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        super().__init__(config if config is not None else ServerConfig())
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache if cache is not None else CompileCache(maxsize=self.config.cache_size)
        )
        self.queue = AdmissionQueue(
            queue_limit=self.config.queue_limit,
            workers=self.config.workers,
            metrics=self.metrics,
        )
        policy = (
            self.config.policy
            if self.config.policy is not None
            else RetryPolicy(max_attempts=self.config.max_attempts)
        )
        if self.config.backend == "process":
            from repro.server.procpool import ProcessSolverBackend

            self.pool = ProcessSolverBackend(
                workers=self.config.workers,
                num_reads=self.config.num_reads,
                seed=self.config.seed,
                sampler_params=self.config.sampler_params,
                sampler_factory=self.config.sampler_factory,
                penalty_strength=self.config.penalty_strength,
                policy=policy,
                cache_size=self.config.cache_size,
                metrics=self.metrics,
                mp_context=self.config.mp_context,
                strategy=self.config.strategy,
                refine_max_rounds=self.config.refine_max_rounds,
                opt_max_restarts=self.config.opt_max_restarts,
                opt_exhaustive_bits=self.config.opt_exhaustive_bits,
            )
        else:
            self.pool = SolverWorkerPool(
                workers=self.config.workers,
                num_reads=self.config.num_reads,
                seed=self.config.seed,
                sampler_params=self.config.sampler_params,
                sampler_factory=self.config.sampler_factory,
                penalty_strength=self.config.penalty_strength,
                policy=policy,
                cache=self.cache,
                metrics=self.metrics,
                strategy=self.config.strategy,
                refine_max_rounds=self.config.refine_max_rounds,
                opt_max_restarts=self.config.opt_max_restarts,
                opt_exhaustive_bits=self.config.opt_exhaustive_bits,
            )
        # Sticky sessions always solve on the event-loop process (thread
        # executor) against the shared compile cache, whatever the /solve
        # backend — process workers cannot hold live Python sessions.
        self.sessions = SessionManager(
            factory=self._new_session,
            idle_timeout=self.config.session_idle_timeout,
            max_sessions=self.config.max_sessions,
            metrics=self.metrics,
        )

    def _new_session(self) -> SolverSession:
        return SolverSession(
            num_reads=self.config.num_reads,
            seed=self.config.seed,
            sampler_params=self.config.sampler_params,
            sampler_factory=self.config.sampler_factory,
            max_attempts=self.config.max_attempts,
            penalty_strength=self.config.penalty_strength,
            retry_policy=self.config.policy,
            cache=self.cache,
            warm_start=self.config.session_warm_start,
            metrics=self.metrics,
            strategy=self.config.strategy,
            refine_max_rounds=self.config.refine_max_rounds,
        )

    # ------------------------------------------------------------------ #
    # drain hooks
    # ------------------------------------------------------------------ #

    async def _drain(self) -> bool:
        """Stop admissions (new work is rejected as ``draining``), wait up to
        ``drain_timeout`` for queued + in-flight work, then close every
        live session, waiting out any check still on the executor."""
        self.queue.begin_drain()
        drained = await self.queue.wait_idle(timeout=self.config.drain_timeout)
        await self.sessions.close_all()
        return drained

    def _close(self) -> None:
        self.pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    def _healthz(self) -> Reply:
        healthy = self.state is ServerState.SERVING
        payload = {
            "status": "ok" if healthy else str(self.state),
            "state": str(self.state),
            "uptime_s": round(self.uptime, 3),
            **self.queue.snapshot(),
        }
        return json_reply(payload, 200 if healthy else 503)

    async def _metrics_endpoint(self) -> Reply:
        # The thread backend reads the shared cache; the process backend
        # aggregates its workers' local caches — one schema either way.
        stats = self.pool.cache_stats()
        return json_reply(
            {
                "server": {
                    "backend": self.config.backend,
                    "state": str(self.state),
                    "uptime_s": round(self.uptime, 3),
                    **self.queue.snapshot(),
                },
                "sessions": self.sessions.snapshot(),
                "cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "size": stats.size,
                    "maxsize": stats.maxsize,
                    "hit_rate": stats.hit_rate,
                },
                **self.metrics.export(),
            }
        )

    async def _route(self, request: HttpRequest, op: Optional[str]) -> Reply:
        """``/solve`` (``op=None``) or ``/session/<op>``: one accounted request."""
        self.metrics.counter("server.requests").inc()
        try:
            if op is None:
                envelope = await self._solve(request)
            else:
                envelope = await self._session(request, op)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — keep the accounting identity
            self.metrics.counter("server.internal").inc()
            envelope = error_envelope(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")
        return envelope_reply(envelope)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    async def _admitted(
        self,
        deadline: float,
        rid: Optional[str],
        work: Callable[[float], Awaitable[ResponseEnvelope]],
    ) -> ResponseEnvelope:
        """Run ``work(queue_timer)`` holding an admission and a worker slot.

        ``try_admit`` (typed ``overloaded``/``draining`` rejection) →
        ``acquire_slot`` spending the deadline budget (typed ``timeout``)
        → *work* → ``release_slot``. A cancellation anywhere past
        admission is counted as ``server.cancelled``.
        """
        try:
            self.queue.try_admit()
        except OverloadedError as exc:
            return error_envelope(ERROR_OVERLOADED, str(exc), request_id=rid)
        except DrainingError as exc:
            return error_envelope(ERROR_DRAINING, str(exc), request_id=rid)
        queue_timer = time.monotonic()
        try:
            await self.queue.acquire_slot(deadline - time.monotonic())
        except DeadlineExceededError as exc:
            return self._timeout(str(exc), rid, _ms_since(queue_timer))
        except asyncio.CancelledError:
            self.metrics.counter("server.cancelled").inc()
            raise
        try:
            return await work(queue_timer)
        except asyncio.CancelledError:
            # Shutdown cancelled us mid-solve: count it, then let the
            # connection unwind with a typed ``cancelled`` envelope.
            self.metrics.counter("server.cancelled").inc()
            raise
        finally:
            self.queue.release_slot()

    @staticmethod
    def _timeout(
        message: str, rid: Optional[str], queue_ms: float, solve_ms: float = 0.0
    ) -> ResponseEnvelope:
        return error_envelope(
            ERROR_TIMEOUT,
            message,
            status="timeout",
            queue_ms=queue_ms,
            solve_ms=solve_ms,
            request_id=rid,
        )

    def _completed(self, status: str, queue_ms: float, solve_ms: float) -> None:
        self.metrics.counter("server.completed").inc()
        self.metrics.counter(f"server.status.{status}").inc()
        self.metrics.observe("server.queue_wait", queue_ms / 1000.0)
        self.metrics.observe("server.solve_wall", solve_ms / 1000.0)

    # ------------------------------------------------------------------ #
    # /solve
    # ------------------------------------------------------------------ #

    async def _solve(self, request: HttpRequest) -> ResponseEnvelope:
        # 1. request envelope
        try:
            solve_request = SolveRequest.from_body(request.body, request.content_type)
        except ValueError as exc:
            self.metrics.counter("server.rejected.bad_request").inc()
            return error_envelope(ERROR_BAD_REQUEST, str(exc))
        rid = solve_request.request_id

        # 2. SMT-LIB parse — malformed scripts get located parse envelopes,
        #    never a crashed connection.
        try:
            script = parse_script(solve_request.script)
        except (ParseError, SExprError) as exc:
            self.metrics.counter("server.rejected.parse").inc()
            return ResponseEnvelope.failure(
                locate_parse_error(solve_request.script, exc), request_id=rid
            )

        deadline_ms = (
            solve_request.deadline_ms
            if solve_request.deadline_ms is not None
            else self.config.deadline_ms
        )
        deadline = time.monotonic() + deadline_ms / 1000.0

        async def work(queue_timer: float) -> ResponseEnvelope:
            # 4. solve on the worker pool — scripts carrying assert-soft
            #    commands route to the weighted-MaxSMT optimize path.
            queue_ms = _ms_since(queue_timer)
            solve_timer = time.monotonic()
            try:
                if script.soft_assertions:
                    outcome = await self.pool.optimize(
                        script.assertions,
                        script.soft_assertions,
                        remaining=deadline - time.monotonic(),
                    )
                else:
                    outcome = await self.pool.solve(
                        script.assertions, remaining=deadline - time.monotonic()
                    )
            except DeadlineExceededError as exc:
                return self._timeout(str(exc), rid, queue_ms, _ms_since(solve_timer))
            solve_ms = _ms_since(solve_timer)
            self._completed(outcome.status, queue_ms, solve_ms)
            if outcome.opt_status:
                self.metrics.counter(f"server.opt.{outcome.opt_status}").inc()
            return ResponseEnvelope.success(
                outcome.status,
                outcome.model,
                reason=outcome.result.reason,
                cache_hit=outcome.cache_hit,
                queue_ms=queue_ms,
                solve_ms=solve_ms,
                request_id=rid,
                opt_status=outcome.opt_status,
                objective=outcome.objective,
                lower_bound=outcome.lower_bound,
                upper_bound=outcome.upper_bound,
            )

        # 3. admission (bounded queue; explicit backpressure) and a worker
        #    slot, spending the deadline budget
        return await self._admitted(deadline, rid, work)

    # ------------------------------------------------------------------ #
    # sticky sessions (/session/*)
    # ------------------------------------------------------------------ #

    def _session_reject(
        self, error_type: str, message: str, *, request_id: Optional[str] = None
    ) -> ResponseEnvelope:
        counter = {
            ERROR_BAD_REQUEST: "server.rejected.bad_request",
            ERROR_DRAINING: "server.rejected.draining",
            ERROR_OVERLOADED: "server.rejected.overloaded",
        }[error_type]
        self.metrics.counter(counter).inc()
        return error_envelope(error_type, message, request_id=request_id)

    async def _session(
        self, request: HttpRequest, op: str
    ) -> ResponseEnvelope:
        try:
            req = SessionRequest.from_body(request.body, request.content_type)
        except ValueError as exc:
            return self._session_reject(ERROR_BAD_REQUEST, str(exc))
        rid = req.request_id or req.session_id

        if op == "open":
            if self.state is not ServerState.SERVING:
                return self._session_reject(
                    ERROR_DRAINING,
                    "server is draining; not opening new sessions",
                    request_id=rid,
                )
            try:
                managed = self.sessions.open(req.session_id)
            except SessionLimitError as exc:
                return self._session_reject(
                    ERROR_OVERLOADED, str(exc), request_id=rid
                )
            except ValueError as exc:
                return self._session_reject(
                    ERROR_BAD_REQUEST, str(exc), request_id=rid
                )
            self.metrics.counter("server.completed").inc()
            return ResponseEnvelope.success(
                "open", request_id=req.request_id or managed.session_id
            )

        # Every other op addresses an existing session.
        if not req.session_id:
            return self._session_reject(
                ERROR_BAD_REQUEST,
                f"/session/{op} needs a 'session' id",
                request_id=rid,
            )
        try:
            managed = self.sessions.get(req.session_id)
        except SessionGoneError as exc:
            return self._session_reject(ERROR_BAD_REQUEST, str(exc), request_id=rid)

        if op == "close":
            # Drain-aware: close is allowed in every state and waits out a
            # check still running on the executor before acknowledging.
            self.sessions.close(req.session_id)
            async with managed.lock:
                pass
            self.metrics.counter("server.completed").inc()
            return ResponseEnvelope.success(
                "closed",
                reason=f"depth={managed.session.depth}",
                request_id=rid,
            )

        if op == "check":
            return await self._session_check(managed, req)

        # Mutations (assert/push/pop): rejected while draining, serialized
        # against any in-flight check by the session lock.
        if self.state is not ServerState.SERVING:
            return self._session_reject(
                ERROR_DRAINING,
                "server is draining; not accepting session mutations",
                request_id=rid,
            )
        async with managed.lock:
            session = managed.session
            if op == "assert":
                try:
                    added = session.assert_text(req.script)
                except (ParseError, SExprError) as exc:
                    self.metrics.counter("server.rejected.parse").inc()
                    return ResponseEnvelope.failure(
                        locate_parse_error(req.script, exc), request_id=rid
                    )
                except SessionError as exc:
                    return self._session_reject(
                        ERROR_BAD_REQUEST, str(exc), request_id=rid
                    )
                reason = f"depth={session.depth} added={added}"
            elif op == "push":
                session.push(req.levels)
                reason = f"depth={session.depth}"
            else:  # pop
                try:
                    session.pop(req.levels)
                except SessionError as exc:
                    return self._session_reject(
                        ERROR_BAD_REQUEST, str(exc), request_id=rid
                    )
                reason = f"depth={session.depth}"
            managed.touch()
        self.metrics.counter("server.completed").inc()
        return ResponseEnvelope.success("ok", reason=reason, request_id=rid)

    async def _session_check(
        self, managed, req: SessionRequest
    ) -> ResponseEnvelope:
        rid = req.request_id or req.session_id
        deadline_ms = (
            req.deadline_ms if req.deadline_ms is not None else self.config.deadline_ms
        )
        deadline = time.monotonic() + deadline_ms / 1000.0

        async def work(queue_timer: float) -> ResponseEnvelope:
            solve_timer = time.monotonic()
            # Serialize against mutations and concurrent checks on the same
            # session; bound the lock wait by the remaining deadline.
            try:
                await asyncio.wait_for(
                    managed.lock.acquire(), timeout=deadline - time.monotonic()
                )
            except asyncio.TimeoutError:
                self.metrics.counter("server.timeout").inc()
                self.metrics.counter("server.timeout.queued").inc()
                return self._timeout(
                    "deadline exceeded waiting on the session lock",
                    rid,
                    _ms_since(queue_timer),
                )
            queue_ms = _ms_since(queue_timer)
            session = managed.session
            hits_before = session.stats.memo_hits + session.stats.warm_hits
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(None, session.check_sat)
            # The lock is released when the *thread* finishes — even if the
            # await below times out first — so a straggling solve can never
            # race a later mutation, and expiry (which skips locked
            # sessions) can never reap a session mid-solve.
            future.add_done_callback(lambda _f: self._release_session(managed))
            try:
                result = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline - time.monotonic()
                )
            except asyncio.TimeoutError:
                self.metrics.counter("server.timeout").inc()
                self.metrics.counter("server.timeout.solving").inc()
                return self._timeout(
                    f"deadline exceeded after {deadline_ms:.0f} ms "
                    "(session check still completing in background)",
                    rid,
                    queue_ms,
                    _ms_since(solve_timer),
                )
            solve_ms = _ms_since(solve_timer)
            cache_hit = session.stats.memo_hits + session.stats.warm_hits > hits_before
            self._completed(result.status, queue_ms, solve_ms)
            return ResponseEnvelope.success(
                result.status,
                result.model,
                reason=result.reason or f"depth={session.depth}",
                cache_hit=cache_hit,
                queue_ms=queue_ms,
                solve_ms=solve_ms,
                request_id=rid,
            )

        return await self._admitted(deadline, rid, work)

    def _release_session(self, managed) -> None:
        managed.touch()
        if managed.lock.locked():
            managed.lock.release()


# --------------------------------------------------------------------- #
# embedding helper (tests, benchmarks, notebooks)
# --------------------------------------------------------------------- #


class BackgroundServer(BackgroundService):
    """Run a :class:`SolverServer` on a daemon thread with its own loop.

    The context-manager form is what the test-suite and the load generator
    use::

        with BackgroundServer(ServerConfig(port=0, seed=7)) as server:
            client = SolverClient(server.host, server.port)
            ...

    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        config = config if config is not None else ServerConfig(port=0)
        super().__init__(
            config,
            lambda: SolverServer(config, metrics=metrics, cache=cache),
            "server",
        )

    @property
    def server(self) -> Optional[SolverServer]:
        return self.service
