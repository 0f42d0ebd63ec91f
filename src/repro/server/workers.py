"""The solver worker pool: executor-thread solves behind the asyncio server.

Each admitted request is solved on a worker thread by a **fresh**
:class:`~repro.smt.solver.QuantumSMTSolver` seeded with the server's base
seed — the same construction as :class:`~repro.service.batch.BatchSolver`
— so a served answer is bit-identical to a direct
``QuantumSMTSolver(seed=...).check_sat()`` at the same seed, independent
of worker count, queue order and cache state. Compilation is deduplicated
through one shared :class:`~repro.service.cache.CompileCache`; stage
timings and outcome counters land in one shared
:class:`~repro.service.metrics.MetricsRegistry`.

Deadline composition
--------------------
The per-request deadline composes with the configured
:class:`~repro.service.policy.RetryPolicy` rather than replacing it: the
effective policy for a request clamps the per-attempt timeout to the
remaining deadline budget (``min(policy.attempt_timeout, remaining)``),
and the event-loop side enforces the deadline authoritatively with
``asyncio.wait_for``. A worker thread cannot be preempted mid-attempt
(the same abandonment contract as :class:`RetryPolicy`), so a timed-out
solve also flips a cancellation event that the retry loop checks between
attempts — bounding the orphaned work to at most one attempt.

Because the admission slot is released as soon as a deadline fires while
the abandoned thread may still be mid-attempt, the executor is sized at
``2 × workers``: the headroom keeps a thread available for each freshly
admitted request even under a timeout storm where every slot's previous
occupant is still finishing its last abandoned attempt, so admitted work
never queues invisibly inside the executor outside the queue_ms /
deadline accounting.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.server.admission import DeadlineExceededError
from repro.service.cache import CacheStats, CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryExhaustedError, RetryPolicy
from repro.smt import ast
from repro.smt.solver import QuantumSMTSolver, SmtResult
from repro.utils.timing import Timer

__all__ = ["SolveCancelled", "SolveOutcome", "SolverWorkerPool", "clamp_policy"]


def clamp_policy(policy: RetryPolicy, remaining: Optional[float]) -> RetryPolicy:
    """*policy* with its attempt timeout clamped to the remaining deadline.

    Shared by both solve backends (thread pool here, process pool in
    :mod:`repro.server.procpool`) so deadline composition semantics cannot
    drift between them.
    """
    if remaining is None:
        return policy
    remaining = max(remaining, 1e-3)
    timeout = policy.attempt_timeout
    clamped = remaining if timeout is None else min(timeout, remaining)
    return dataclasses.replace(policy, attempt_timeout=clamped)


class SolveCancelled(RuntimeError):
    """Raised inside a worker thread when its request was abandoned."""


def outcome_from_optimize(result: Any, wall_time: float = 0.0) -> SolveOutcome:
    """Fold an :class:`~repro.opt.result.OptimizeResult` into a
    :class:`SolveOutcome` (shared by the thread and process backends).

    The MaxSMT status is projected onto the sat/unsat/unknown axis for the
    ``SmtResult`` (feasible → sat) while the full optimization refinement
    rides in the outcome's dedicated fields.
    """
    import math

    from repro.opt.result import solve_status_for

    upper = float(result.upper_bound)
    return SolveOutcome(
        result=SmtResult(
            status=solve_status_for(result.status),
            model=dict(result.model),
            reason=result.reason,
        ),
        cache_hit=False,
        wall_time=wall_time,
        opt_status=str(result.status),
        objective=result.objective,
        lower_bound=float(result.lower_bound),
        upper_bound=None if math.isinf(upper) else upper,
    )


@dataclass
class SolveOutcome:
    """One completed in-pool solve (or weighted optimization)."""

    result: SmtResult
    cache_hit: bool = False
    wall_time: float = 0.0
    error: str = ""
    error_type: str = ""
    #: Optimization-mode refinement (requests with ``assert-soft``):
    #: the MaxSMT status plus the objective/bound bracket. Plain solves
    #: keep the null defaults.
    opt_status: str = ""
    objective: Optional[float] = None
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None

    @property
    def status(self) -> str:
        return str(self.result.status)

    @property
    def model(self) -> Dict[str, str]:
        return dict(self.result.model)


@dataclass
class _RequestContext:
    """Thread-shared cancellation flag for one request."""

    cancelled: threading.Event = field(default_factory=threading.Event)


class SolverWorkerPool:
    """Run ``QuantumSMTSolver`` solves on executor threads.

    Mirrors :class:`~repro.service.batch.BatchSolver`'s determinism
    contract (fresh solver per item, shared cache/metrics/policy) with an
    async front door and per-request deadlines.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        num_reads: int = 64,
        seed: Optional[int] = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        sampler_factory: Optional[Any] = None,
        penalty_strength: float = 1.0,
        policy: Optional[RetryPolicy] = None,
        cache: Optional[CompileCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        strategy: str = "direct",
        refine_max_rounds: int = 4,
        opt_max_restarts: int = 4,
        opt_exhaustive_bits: int = 16,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if strategy not in ("direct", "refine"):
            raise ValueError(
                f"strategy must be 'direct' or 'refine', got {strategy!r}"
            )
        if seed is not None and not isinstance(seed, int):
            raise TypeError(
                "the server needs a reproducible seed (int or None); live "
                f"RNG objects cannot be shared across workers: {type(seed)!r}"
            )
        self.workers = workers
        self.num_reads = num_reads
        self.seed = seed
        self.sampler_params = dict(sampler_params or {})
        self.sampler_factory = sampler_factory
        self.penalty_strength = penalty_strength
        self.policy = policy if policy is not None else RetryPolicy(max_attempts=3)
        self.cache = cache if cache is not None else CompileCache(maxsize=256)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.strategy = strategy
        self.refine_max_rounds = refine_max_rounds
        self.opt_max_restarts = opt_max_restarts
        self.opt_exhaustive_bits = opt_exhaustive_bits
        # Sized at 2× the slot count, not 1×: when a deadline expires the
        # admission slot is released immediately but the abandoned thread
        # may still run one final attempt. With exactly `workers` threads a
        # freshly admitted request would then queue *invisibly* inside the
        # executor (its queue_ms/deadline accounting missing that hidden
        # wait). The headroom gives every admission slot a thread even if
        # its previous occupant is finishing an abandoned attempt; solver
        # concurrency stays bounded by the admission queue's `workers`
        # slots, so the extra threads are mostly parked.
        self._executor = ThreadPoolExecutor(
            max_workers=workers * 2, thread_name_prefix="server-solver"
        )

    # ------------------------------------------------------------------ #
    # deadline composition
    # ------------------------------------------------------------------ #

    def effective_policy(self, remaining: Optional[float]) -> RetryPolicy:
        """The configured policy with its attempt timeout clamped to the
        remaining deadline budget."""
        return clamp_policy(self.policy, remaining)

    def cache_stats(self) -> CacheStats:
        """The shared compile cache's statistics (backend-uniform API)."""
        return self.cache.stats

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #

    async def solve(
        self,
        assertions: Sequence[ast.Term],
        *,
        remaining: Optional[float] = None,
        solve_params: Optional[Dict[str, Any]] = None,
    ) -> SolveOutcome:
        """Solve one assertion conjunction on a worker thread.

        Raises :class:`~repro.server.admission.DeadlineExceededError` when
        *remaining* elapses before the solve completes (the thread is told
        to stop retrying and abandoned).
        """
        context = _RequestContext()
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._executor,
            self._solve_blocking,
            list(assertions),
            self.effective_policy(remaining),
            dict(solve_params or {}),
            context,
        )
        try:
            if remaining is None:
                return await future
            return await asyncio.wait_for(future, timeout=max(remaining, 1e-3))
        except asyncio.TimeoutError:
            context.cancelled.set()
            self.metrics.counter("server.timeout").inc()
            self.metrics.counter("server.timeout.solving").inc()
            raise DeadlineExceededError("solving", remaining or 0.0) from None
        except asyncio.CancelledError:
            context.cancelled.set()
            raise

    async def optimize(
        self,
        assertions: Sequence[ast.Term],
        soft_assertions: Sequence[ast.SoftAssertion],
        *,
        remaining: Optional[float] = None,
        solve_params: Optional[Dict[str, Any]] = None,
    ) -> SolveOutcome:
        """Run one weighted-MaxSMT optimization on a worker thread.

        The remaining deadline budget is handed to the driver as its
        anytime ``deadline_ms`` (it stops opening restarts past it); the
        event-loop ``wait_for`` stays authoritative.
        """
        context = _RequestContext()
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._executor,
            self._optimize_blocking,
            list(assertions),
            list(soft_assertions),
            remaining,
            dict(solve_params or {}),
            context,
        )
        try:
            if remaining is None:
                return await future
            return await asyncio.wait_for(future, timeout=max(remaining, 1e-3))
        except asyncio.TimeoutError:
            context.cancelled.set()
            self.metrics.counter("server.timeout").inc()
            self.metrics.counter("server.timeout.solving").inc()
            raise DeadlineExceededError("solving", remaining or 0.0) from None
        except asyncio.CancelledError:
            context.cancelled.set()
            raise

    def _optimize_blocking(
        self,
        assertions: List[ast.Term],
        soft_assertions: List[ast.SoftAssertion],
        remaining: Optional[float],
        solve_params: Dict[str, Any],
        context: _RequestContext,
    ) -> SolveOutcome:
        from repro.opt import AnytimeOptimizer

        timer = Timer().start()
        self.metrics.counter("server.solves").inc()
        self.metrics.counter("server.optimizes").inc()
        try:
            optimizer = AnytimeOptimizer(
                sampler=self.sampler_factory() if self.sampler_factory else None,
                num_reads=self.num_reads,
                seed=self.seed,
                sampler_params=self.sampler_params,
                penalty_strength=self.penalty_strength,
                max_restarts=self.opt_max_restarts,
                deadline_ms=None if remaining is None else max(remaining, 1e-3) * 1000.0,
                exhaustive_bits=self.opt_exhaustive_bits,
                metrics=self.metrics,
            )
            result = optimizer.optimize(assertions, soft_assertions, **solve_params)
            return outcome_from_optimize(result, wall_time=timer.stop())
        except Exception as exc:  # noqa: BLE001 — boundary: degrade, don't crash
            return SolveOutcome(
                result=SmtResult(
                    status="unknown", reason=f"{type(exc).__name__}: {exc}"
                ),
                cache_hit=False,
                wall_time=timer.stop(),
                error=str(exc),
                error_type=type(exc).__name__,
                opt_status="unknown",
            )

    def _solve_blocking(
        self,
        assertions: List[ast.Term],
        policy: RetryPolicy,
        solve_params: Dict[str, Any],
        context: _RequestContext,
    ) -> SolveOutcome:
        timer = Timer().start()
        self.metrics.counter("server.solves").inc()
        solver = QuantumSMTSolver(
            sampler=self.sampler_factory() if self.sampler_factory else None,
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=self.sampler_params,
            penalty_strength=self.penalty_strength,
            retry_policy=_CancellablePolicy.wrap(policy, context.cancelled),
            metrics=self.metrics,
            strategy=self.strategy,
            refine_max_rounds=self.refine_max_rounds,
            compile_cache=self.cache if self.strategy == "refine" else None,
        )
        solver.assertions = list(assertions)
        try:
            problem, hit = self.cache.get_or_compile(
                assertions,
                penalty_strength=self.penalty_strength,
                seed=self.seed,
                compile_fn=solver.compile,
            )
            self.metrics.counter("cache.hits" if hit else "cache.misses").inc()
            result = solver.solve_compiled(problem, **solve_params)
            return SolveOutcome(result=result, cache_hit=hit, wall_time=timer.stop())
        except SolveCancelled:
            raise
        except RetryExhaustedError as exc:
            # Typed robustness-layer failure: surfaced as unknown, like the
            # batch service — never a crash, never a silent drop.
            return SolveOutcome(
                result=SmtResult(status="unknown", reason=str(exc)),
                cache_hit=False,
                wall_time=timer.stop(),
                error=str(exc),
                error_type=type(exc).__name__,
            )
        except Exception as exc:  # noqa: BLE001 — boundary: degrade, don't crash
            return SolveOutcome(
                result=SmtResult(status="unknown", reason=f"{type(exc).__name__}: {exc}"),
                cache_hit=False,
                wall_time=timer.stop(),
                error=str(exc),
                error_type=type(exc).__name__,
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self, wait: bool = False) -> None:
        """Stop the executor; abandoned attempts are never joined."""
        self._executor.shutdown(wait=wait, cancel_futures=True)


class _CancellablePolicy:
    """A ``RetryPolicy`` facade that stops retrying once a request is
    abandoned (deadline hit or server shutdown).

    ``QuantumSMTSolver`` only calls ``run`` and reads ``max_attempts``; the
    facade forwards both, injecting a pre-attempt cancellation check so an
    abandoned thread does at most one more attempt.
    """

    def __init__(self, policy: RetryPolicy, cancelled: threading.Event) -> None:
        self._policy = policy
        self._cancelled = cancelled
        self.max_attempts = policy.max_attempts

    @classmethod
    def wrap(cls, policy: RetryPolicy, cancelled: threading.Event) -> "_CancellablePolicy":
        return cls(policy, cancelled)

    def run(self, attempt, **kwargs):
        def guarded(index: int):
            if self._cancelled.is_set():
                raise SolveCancelled("request abandoned; stopping retries")
            return attempt(index)

        try:
            return self._policy.run(guarded, **kwargs)
        except RetryExhaustedError as exc:
            if isinstance(exc.last_exception, SolveCancelled):
                raise exc.last_exception
            raise
