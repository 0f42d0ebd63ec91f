"""Objective threading: sessions, batch executors, worker outcomes."""

from __future__ import annotations

import math

import pytest

from repro.opt.result import OptimizeResult, OptStatus
from repro.server.workers import outcome_from_optimize
from repro.service.batch import BatchSolver
from repro.smt import ast
from repro.smt.session import SolverSession

pytestmark = pytest.mark.opt

WEIGHTED_SCRIPT = (
    "(declare-const x String)"
    "(assert (= (str.len x) 1))"
    '(assert-soft (= x "a") :weight 1)'
    '(assert-soft (= x "b") :weight 3)'
)
PLAIN_SCRIPT = '(declare-const y String)(assert (= y "ok"))'

FAST = dict(num_reads=16, sampler_params={"num_sweeps": 100}, seed=7)


class TestSession:
    def _session(self, **overrides):
        params = dict(FAST)
        params.update(overrides)
        return SolverSession(**params)

    def test_assert_soft_and_optimize(self):
        session = self._session()
        session.assert_text(WEIGHTED_SCRIPT)
        result = session.optimize()
        assert result.status is OptStatus.OPTIMAL
        assert result.model == {"x": "b"}
        assert result.objective == 1.0

    def test_softs_never_influence_check_sat(self):
        plain = self._session()
        plain.assert_text("(declare-const x String)(assert (= (str.len x) 1))")
        weighted = self._session()
        weighted.assert_text(
            "(declare-const x String)(assert (= (str.len x) 1))"
        )
        weighted.assert_soft(
            ast.Eq(ast.StrVar("x"), ast.StrLit("z")), weight=9.0
        )
        # The sat-side state key (and thus memo/cache identity) is
        # byte-identical with or without softs …
        assert weighted.state_key() == plain.state_key()
        # … while the weighted key sees them.
        assert weighted.opt_state_key() != plain.opt_state_key()
        assert weighted.check_sat().status == "sat"

    def test_opt_memo_round_trip(self):
        session = self._session()
        session.assert_text(WEIGHTED_SCRIPT)
        first = session.optimize()
        second = session.optimize()
        assert second is first
        assert session.stats.optimizes == 2
        assert session.stats.opt_memo_hits == 1

    def test_soft_frames_pop_with_their_frame(self):
        session = self._session()
        session.assert_text(WEIGHTED_SCRIPT)
        base_key = session.opt_state_key()
        base = session.optimize()

        session.push()
        session.assert_soft(
            ast.Eq(ast.StrVar("x"), ast.StrLit("c")), weight=10.0
        )
        pushed = session.optimize()
        assert session.opt_state_key() != base_key
        assert pushed.model == {"x": "c"}

        session.pop()
        assert session.opt_state_key() == base_key
        # The re-pushed weighted state is answered from the memo.
        hits = session.stats.opt_memo_hits
        assert session.optimize() is base
        assert session.stats.opt_memo_hits == hits + 1

    def test_assert_text_counts_soft_commands(self):
        session = self._session()
        added = session.assert_text(WEIGHTED_SCRIPT)
        assert added == 3
        assert len(session.flattened()) == 1
        assert len(session.flattened_soft()) == 2


class TestBatch:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_mixed_batch_routes_weighted_items(self, executor):
        solver = BatchSolver(executor=executor, **FAST)
        report = solver.solve_scripts(
            [PLAIN_SCRIPT, WEIGHTED_SCRIPT, PLAIN_SCRIPT]
        )
        assert report.ok
        assert report.statuses == ["sat", "sat", "sat"]
        plain_one, weighted, plain_two = report.items
        # Plain items keep the null optimization defaults.
        assert plain_one.opt_status == "" and plain_one.objective is None
        assert plain_two.model == {"y": "ok"}
        # The weighted item rides the optimize path, in submission order.
        assert weighted.index == 1
        assert weighted.opt_status == "optimal"
        assert weighted.objective == 1.0
        assert weighted.lower_bound == weighted.upper_bound == 1.0
        assert weighted.model == {"x": "b"}

    def test_optimize_counter(self):
        solver = BatchSolver(executor="serial", **FAST)
        solver.solve_scripts([WEIGHTED_SCRIPT, WEIGHTED_SCRIPT])
        assert solver.metrics.counter("batch.optimizes").value == 2

    def test_weighted_infeasible_maps_to_unsat(self):
        solver = BatchSolver(executor="serial", **FAST)
        report = solver.solve_scripts(
            ['(assert (= "a" "b"))'
             '(declare-const x String)(assert-soft (= x "a") :weight 5)']
        )
        item = report[0]
        assert item.status == "unsat"
        assert item.opt_status == "infeasible"
        assert item.objective is None


class TestWorkerOutcome:
    def test_feasible_projection(self):
        outcome = outcome_from_optimize(
            OptimizeResult(
                status=OptStatus.OPTIMAL, model={"x": "b"},
                objective=1.0, lower_bound=1.0, upper_bound=1.0,
            ),
            wall_time=0.25,
        )
        assert outcome.result.status == "sat"
        assert outcome.opt_status == "optimal"
        assert outcome.objective == 1.0
        assert outcome.lower_bound == 1.0
        assert outcome.upper_bound == 1.0
        assert outcome.wall_time == 0.25

    def test_infinite_upper_bound_becomes_none(self):
        outcome = outcome_from_optimize(
            OptimizeResult(status=OptStatus.UNKNOWN, upper_bound=math.inf)
        )
        assert outcome.result.status == "unknown"
        assert outcome.upper_bound is None

    def test_infeasible_projection(self):
        outcome = outcome_from_optimize(
            OptimizeResult(status=OptStatus.INFEASIBLE, reason="refuted")
        )
        assert outcome.result.status == "unsat"
        assert outcome.result.reason == "refuted"
