"""Concurrent batch solving with a shared compile cache and metrics.

:class:`BatchSolver` is the service entry point for high-volume workloads
(input validation, symbolic execution): it accepts many SMT-LIB scripts /
constraint sets at once, deduplicates compilation through the content-hash
:class:`~repro.service.cache.CompileCache`, solves the items over a worker
pool, and reports per-stage timings plus cache statistics through a
:class:`~repro.service.metrics.MetricsRegistry`.

Determinism contract
--------------------
Every item is solved by a **fresh** :class:`~repro.smt.solver.QuantumSMTSolver`
seeded with the batch's base seed, so for a fixed seed each item's result is
bit-identical to running ``QuantumSMTSolver(seed=...).check_sat()`` on that
item alone — independent of worker count, executor choice and cache state.
(The compile cache is sound because compilation is a pure function of
``(assertions, penalty_strength, seed)``; see ``cache.py``.)

Thread-safety: samplers are constructed per item via ``sampler_factory``;
cache and metrics are internally locked; per-item solvers are private to
their worker. Compiled models travel between cache and workers as
coefficient-dict-backed :class:`~repro.qubo.model.QuboModel` objects —
dense/CSR matrix views are lazy, read-only, and excluded from pickling —
and every sampler's ``coupling_mode="auto"`` selects the sparse CSR
kernels for the bit-local string QUBOs this service batches.
"""

from __future__ import annotations

import concurrent.futures as cf
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.anneal.base import Sampler
from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryExhaustedError, RetryPolicy
from repro.smt import ast
from repro.smt.compiler import CompilationError
from repro.smt.parser import SmtScript, parse_script
from repro.smt.solver import QuantumSMTSolver, SmtResult
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer

__all__ = ["BatchItemResult", "BatchReport", "BatchSolver"]

#: Accepted batch item shapes: SMT-LIB source text, a parsed script, or a
#: sequence of Bool-sorted AST terms (an assertion conjunction).
BatchItem = Union[str, SmtScript, Sequence[ast.Term]]


@dataclass
class BatchItemResult:
    """Outcome of one batch item, in submission order."""

    index: int
    result: SmtResult
    cache_hit: bool = False
    wall_time: float = 0.0
    error: str = ""
    error_type: str = ""
    #: Optimization-mode refinement (items carrying soft assertions):
    #: MaxSMT status plus the objective/bound bracket; plain items keep
    #: the null defaults.
    opt_status: str = ""
    objective: Optional[float] = None
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None

    @property
    def status(self) -> str:
        return self.result.status

    @property
    def model(self) -> Dict[str, str]:
        return self.result.model

    def __repr__(self) -> str:
        if self.opt_status:
            return (
                f"BatchItemResult(index={self.index}, "
                f"opt_status={self.opt_status!r}, "
                f"objective={self.objective!r})"
            )
        return (
            f"BatchItemResult(index={self.index}, status={self.status!r}, "
            f"cache_hit={self.cache_hit})"
        )


@dataclass
class BatchReport:
    """All item results plus the batch-level statistics."""

    items: List[BatchItemResult] = field(default_factory=list)
    wall_time: float = 0.0
    cache_stats: Optional[Any] = None
    metrics: Optional[Dict[str, Dict]] = None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int) -> BatchItemResult:
        return self.items[index]

    @property
    def statuses(self) -> List[str]:
        return [item.status for item in self.items]

    @property
    def models(self) -> List[Dict[str, str]]:
        return [item.model for item in self.items]

    @property
    def ok(self) -> bool:
        """True when no item failed with an error."""
        return all(not item.error for item in self.items)

    def __repr__(self) -> str:
        from collections import Counter as _Counter

        counts = dict(_Counter(self.statuses))
        return f"BatchReport(n={len(self.items)}, statuses={counts})"


class BatchSolver:
    """Solve many constraint sets concurrently with compile caching.

    Parameters
    ----------
    sampler_factory:
        Zero-argument callable producing a fresh sampler per item (samplers
        are not assumed thread-safe). ``None`` uses each solver's default
        simulated annealer — the paper's configuration.
    num_reads, seed, sampler_params, penalty_strength:
        Forwarded to the per-item :class:`QuantumSMTSolver`. The *same*
        base seed is used for every item, which is exactly what makes batch
        results element-wise reproducible against the sequential path.
    policy:
        Shared :class:`RetryPolicy` (default: 3 attempts, no backoff).
    cache:
        Shared :class:`CompileCache` (default: a fresh 256-entry cache).
    metrics:
        Shared :class:`MetricsRegistry` (default: a fresh registry).
    num_workers:
        Worker-pool width for ``executor="thread"``.
    executor:
        ``"thread"`` (default) or ``"serial"``. The serial mode runs the
        identical code path without a pool and is the reproducibility
        reference, mirroring :class:`~repro.anneal.parallel.ParallelSampler`.

    Examples
    --------
    >>> batch = BatchSolver(seed=7, num_reads=32,
    ...                     sampler_params={"num_sweeps": 300})
    >>> scripts = ['(declare-const x String)(assert (= x "hi"))(check-sat)'] * 3
    >>> report = batch.solve_batch(scripts)
    >>> report.statuses
    ['sat', 'sat', 'sat']
    >>> report.cache_stats.hits
    2
    """

    def __init__(
        self,
        sampler_factory: Optional[Callable[[], Sampler]] = None,
        *,
        num_reads: int = 64,
        seed: SeedLike = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        penalty_strength: float = 1.0,
        max_attempts: int = 3,
        policy: Optional[RetryPolicy] = None,
        cache: Optional[CompileCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        num_workers: int = 4,
        executor: str = "thread",
        strategy: str = "direct",
        refine_max_rounds: int = 4,
        opt_max_restarts: int = 4,
        opt_deadline_ms: Optional[float] = None,
        opt_exhaustive_bits: int = 16,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if strategy not in ("direct", "refine"):
            raise ValueError(
                f"strategy must be 'direct' or 'refine', got {strategy!r}"
            )
        if executor not in ("thread", "serial"):
            raise ValueError(
                f"executor must be 'thread' or 'serial', got {executor!r}"
            )
        if seed is not None and not isinstance(seed, int):
            raise TypeError(
                "BatchSolver needs a reproducible seed (int or None); live "
                f"RNG objects cannot be shared across workers: {type(seed)!r}"
            )
        self.sampler_factory = sampler_factory
        self.num_reads = num_reads
        self.seed = seed
        self.sampler_params = dict(sampler_params or {})
        self.penalty_strength = penalty_strength
        self.policy = (
            policy if policy is not None else RetryPolicy(max_attempts=max_attempts)
        )
        self.cache = cache if cache is not None else CompileCache(maxsize=256)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.num_workers = num_workers
        self.executor = executor
        self.strategy = strategy
        self.refine_max_rounds = refine_max_rounds
        self.opt_max_restarts = opt_max_restarts
        self.opt_deadline_ms = opt_deadline_ms
        self.opt_exhaustive_bits = opt_exhaustive_bits

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def solve_batch(
        self, items: Sequence[BatchItem], **solve_params: Any
    ) -> BatchReport:
        """Solve every item; results come back in submission order."""
        pairs = [self._coerce(item) for item in items]
        results: List[Optional[BatchItemResult]] = [None] * len(pairs)

        with Timer() as timer:
            if self.executor == "serial" or len(pairs) <= 1:
                for index, (assertions, soft) in enumerate(pairs):
                    results[index] = self._solve_one(
                        index, assertions, soft, solve_params
                    )
            else:
                width = min(self.num_workers, len(pairs))
                with cf.ThreadPoolExecutor(
                    max_workers=width, thread_name_prefix="batch-solver"
                ) as pool:
                    futures = {
                        pool.submit(
                            self._solve_one, index, assertions, soft, solve_params
                        ): index
                        for index, (assertions, soft) in enumerate(pairs)
                    }
                    for future in cf.as_completed(futures):
                        results[futures[future]] = future.result()

        wall = timer.elapsed
        self.metrics.counter("batch.runs").inc()
        self.metrics.observe("batch.wall", wall)
        stats = self.cache.stats
        report = BatchReport(
            items=[r for r in results if r is not None],
            wall_time=wall,
            cache_stats=stats,
            metrics=self.export_metrics(),
        )
        return report

    def solve_scripts(self, scripts: Sequence[str], **solve_params: Any) -> BatchReport:
        """Convenience alias: every item is SMT-LIB source text."""
        return self.solve_batch(list(scripts), **solve_params)

    # ------------------------------------------------------------------ #
    # per-item work
    # ------------------------------------------------------------------ #

    def _coerce(
        self, item: BatchItem
    ) -> Tuple[List[ast.Term], List[ast.SoftAssertion]]:
        """Normalize one batch item to ``(hard, soft)`` conjunctions.

        Scripts carry their ``assert-soft`` commands through; sequences
        may mix :class:`~repro.smt.ast.SoftAssertion` records into the
        hard terms and are partitioned here. Items with any soft
        assertion route to the weighted-MaxSMT optimize path.
        """
        if isinstance(item, str):
            script = parse_script(item)
            return list(script.assertions), list(script.soft_assertions)
        if isinstance(item, SmtScript):
            return list(item.assertions), list(item.soft_assertions)
        if isinstance(item, (list, tuple)):
            hard = [t for t in item if not isinstance(t, ast.SoftAssertion)]
            soft = [t for t in item if isinstance(t, ast.SoftAssertion)]
            return hard, soft
        raise TypeError(
            "batch items must be SMT-LIB text, an SmtScript, or a sequence "
            f"of assertions; got {type(item)!r}"
        )

    def _make_solver(self) -> QuantumSMTSolver:
        sampler = self.sampler_factory() if self.sampler_factory else None
        return QuantumSMTSolver(
            sampler=sampler,
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=self.sampler_params,
            penalty_strength=self.penalty_strength,
            retry_policy=self.policy,
            metrics=self.metrics,
            strategy=self.strategy,
            refine_max_rounds=self.refine_max_rounds,
            compile_cache=self.cache if self.strategy == "refine" else None,
        )

    def _solve_one(
        self,
        index: int,
        assertions: List[ast.Term],
        soft_assertions: List[ast.SoftAssertion],
        solve_params: Dict[str, Any],
    ) -> BatchItemResult:
        if soft_assertions:
            return self._optimize_one(
                index, assertions, soft_assertions, solve_params
            )
        timer = Timer().start()
        self.metrics.counter("batch.items").inc()
        solver = self._make_solver()
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
            item = BatchItemResult(
                index=index,
                result=result,
                cache_hit=hit,
                wall_time=timer.stop(),
            )
        except CompilationError as exc:
            # Out-of-fragment items degrade to unknown, like check_sat.
            item = BatchItemResult(
                index=index,
                result=SmtResult(status="unknown", reason=f"compilation: {exc}"),
                cache_hit=False,
                wall_time=timer.stop(),
                error=str(exc),
                error_type=type(exc).__name__,
            )
        except RetryExhaustedError as exc:
            # The typed robustness-layer failure: surfaced, never silent.
            item = BatchItemResult(
                index=index,
                result=SmtResult(status="unknown", reason=str(exc)),
                cache_hit=False,
                wall_time=timer.stop(),
                error=str(exc),
                error_type=type(exc).__name__,
            )
        self.metrics.observe("batch.item_wall", item.wall_time)
        self.metrics.counter(f"batch.{item.status}").inc()
        return item

    def _optimize_one(
        self,
        index: int,
        assertions: List[ast.Term],
        soft_assertions: List[ast.SoftAssertion],
        solve_params: Dict[str, Any],
    ) -> BatchItemResult:
        """One weighted-MaxSMT item: anytime optimize instead of decide.

        The MaxSMT status is projected onto the sat/unsat/unknown axis
        for the item's :class:`SmtResult` (feasible → sat); the full
        refinement rides in the item's ``opt_*``/bound fields.
        """
        import math

        from repro.opt import AnytimeOptimizer, solve_status_for

        timer = Timer().start()
        self.metrics.counter("batch.items").inc()
        self.metrics.counter("batch.optimizes").inc()
        optimizer = AnytimeOptimizer(
            sampler=self.sampler_factory() if self.sampler_factory else None,
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=self.sampler_params,
            penalty_strength=self.penalty_strength,
            max_restarts=self.opt_max_restarts,
            deadline_ms=self.opt_deadline_ms,
            exhaustive_bits=self.opt_exhaustive_bits,
            metrics=self.metrics,
        )
        try:
            result = optimizer.optimize(
                assertions, soft_assertions, **solve_params
            )
            upper = float(result.upper_bound)
            item = BatchItemResult(
                index=index,
                result=SmtResult(
                    status=solve_status_for(result.status),
                    model=dict(result.model),
                    reason=result.reason,
                ),
                cache_hit=False,
                wall_time=timer.stop(),
                opt_status=str(result.status),
                objective=result.objective,
                lower_bound=float(result.lower_bound),
                upper_bound=None if math.isinf(upper) else upper,
            )
        except RetryExhaustedError as exc:
            item = BatchItemResult(
                index=index,
                result=SmtResult(status="unknown", reason=str(exc)),
                cache_hit=False,
                wall_time=timer.stop(),
                error=str(exc),
                error_type=type(exc).__name__,
                opt_status="unknown",
            )
        self.metrics.observe("batch.item_wall", item.wall_time)
        self.metrics.counter(f"batch.{item.status}").inc()
        self.metrics.counter(f"batch.opt.{item.opt_status}").inc()
        return item

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def export_metrics(self) -> Dict[str, Dict]:
        """Metrics snapshot including cache statistics (JSON-serializable)."""
        export = self.metrics.export()
        stats = self.cache.stats
        export["cache"] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "size": stats.size,
            "maxsize": stats.maxsize,
            "hit_rate": stats.hit_rate,
        }
        return export

    def metrics_json(self, indent: Optional[int] = 2) -> str:
        """The metrics export rendered as JSON (the benchmarks' format)."""
        import json

        return json.dumps(self.export_metrics(), indent=indent, sort_keys=True)
