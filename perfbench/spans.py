"""In-memory spans around the public calls into each in-process layer.

Tracing is switched on only in the traced run and only from the
benchmark's own files: :func:`install_layer_spans` replaces each public
entry point named below with a wrapper that records a span, and
:meth:`Tracer.restore` puts the originals back. Spans are kept in a list
and analysed after the run; self time is a span's duration minus the
durations of its direct children (calls are single-threaded and nested,
so children never overlap).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

ROOT = "script"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; wraps attributes of modules and classes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), parent=parent, attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = exc
            raise
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        observe: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *observe* sees the span, the call's positional arguments and its
        result, and stores whatever counts the layer reports.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if observe is not None:
                observe(record, args, result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                child_time[record.parent] += record.duration
        totals: Dict[str, float] = {}
        for index, record in enumerate(self.spans):
            own = record.duration - child_time[index]
            totals[record.name] = totals.get(record.name, 0.0) + own
        return totals

    def named(self, name: str) -> List[Span]:
        return [record for record in self.spans if record.name == name]


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public calls of every in-process layer the table names."""
    import repro.core.solver as core_solver
    import repro.smt.compiler as smt_compiler
    import repro.smt.session as smt_session
    import repro.smt.solver as smt_solver
    from repro.anneal.simulated import SimulatedAnnealingSampler
    from repro.core.formulation import StringFormulation
    from repro.qubo.model import QuboModel
    from repro.service.policy import RetryPolicy

    def on_sample(record: Span, _args: tuple, sampleset: Any) -> None:
        reads, variables = sampleset.states.shape
        sweeps = int(sampleset.info.get("num_sweeps", 0))
        record.attrs["proposals"] = reads * sweeps * variables

    def on_build(record: Span, args: tuple, model: Any) -> None:
        record.attrs["formulation"] = id(args[0])
        record.attrs["variables"] = model.num_variables

    def on_decode(record: Span, args: tuple, result: Any) -> None:
        reads = len(args[1])
        record.attrs["reads"] = reads
        record.attrs["verified_reads"] = result.success_rate * reads

    def on_policy(record: Span, _args: tuple, outcome: Any) -> None:
        record.attrs["attempts"] = outcome.attempts

    tracer.wrap(smt_solver, "parse_script", "smt.parser")
    tracer.wrap(smt_session, "parse_script", "smt.parser")
    tracer.wrap(smt_solver, "compile_assertions", "smt.compiler")
    tracer.wrap(smt_solver, "eval_formula", "smt.theory")
    tracer.wrap(smt_compiler, "eval_formula", "smt.theory")
    tracer.wrap(StringFormulation, "build_model", "core.build_model", on_build)
    tracer.wrap(SimulatedAnnealingSampler, "sample_model", "anneal", on_sample)
    tracer.wrap(QuboModel, "sampler_form", "anneal.setup")
    tracer.wrap(QuboModel, "energies", "anneal.energies")
    tracer.wrap(core_solver, "result_from_sampleset", "core.decode", on_decode)
    tracer.wrap(RetryPolicy, "run", "service.policy", on_policy)


def layer_metrics(tracer: Tracer, scripts: int) -> Dict[str, float]:
    """Per-script self times and the layer counts, from recorded spans.

    Times are milliseconds per replayed script. ``trace.residual_ms`` is
    the self time of the per-script root span: wall time that no traced
    layer accounts for.
    """
    own = tracer.self_times()
    per_script = 1000.0 / scripts

    def self_ms(name: str) -> float:
        return own.get(name, 0.0) * per_script

    anneal = tracer.named("anneal")
    anneal_seconds = sum(record.duration for record in anneal)
    proposals = sum(record.attrs.get("proposals", 0) for record in anneal)

    qubo_vars = 0
    for root_index, root in enumerate(tracer.spans):
        if root.name != ROOT:
            continue
        built: Dict[int, int] = {}
        for record in _descendants(tracer, root_index):
            if record.name == "core.build_model" and "formulation" in record.attrs:
                built[record.attrs["formulation"]] = record.attrs["variables"]
        qubo_vars += sum(built.values())

    decodes = tracer.named("core.decode")
    reads = sum(record.attrs.get("reads", 0) for record in decodes)
    verified = sum(record.attrs.get("verified_reads", 0.0) for record in decodes)

    attempts, useful, formulations = policy_counts(tracer.named("service.policy"))

    return {
        "smt.parser.self_ms": self_ms("smt.parser"),
        "smt.compiler.self_ms": self_ms("smt.compiler"),
        "smt.compiler.qubo_vars": qubo_vars / scripts,
        "core.build_model.self_ms": self_ms("core.build_model"),
        "anneal.self_ms": self_ms("anneal"),
        "anneal.calls": len(anneal) / scripts,
        "anneal.flip_proposals": proposals / scripts,
        "anneal.proposals_per_s": proposals / anneal_seconds if anneal_seconds else 0.0,
        "anneal.setup_ms": self_ms("anneal.setup"),
        "anneal.energies_ms": self_ms("anneal.energies"),
        "core.decode.self_ms": self_ms("core.decode"),
        "core.decode.success_rate": verified / reads if reads else 0.0,
        "service.policy.attempts_per_formulation": (
            attempts / formulations if formulations else 0.0
        ),
        "service.policy.useful_attempt_ratio": useful_attempt_ratio(attempts, useful),
        "smt.theory.self_ms": self_ms("smt.theory"),
        "trace.residual_ms": self_ms(ROOT),
    }


def policy_counts(runs: List[Span]) -> tuple:
    """(attempts, verified attempts, formulations) over ``RetryPolicy.run`` spans.

    A run that returns made exactly one verified attempt, its last; a run
    that raised ``RetryExhaustedError`` made ``exc.attempts`` attempts and
    none verified.
    """
    attempts = useful = 0
    for record in runs:
        error = record.attrs.get("error")
        if error is None:
            attempts += record.attrs["attempts"]
            useful += 1
        else:
            attempts += getattr(error, "attempts", 1)
    return attempts, useful, len(runs)


def useful_attempt_ratio(attempts: int, useful: int) -> float:
    """Verified attempts over attempts made (0.0 when none were made)."""
    return useful / attempts if attempts else 0.0


def _descendants(tracer: Tracer, root: int) -> Iterator[Span]:
    """Spans under *root*: they follow it in the list until it closes."""
    root_span = tracer.spans[root]
    for record in tracer.spans[root + 1:]:
        if record.start >= root_span.end:
            break
        yield record
