"""Self-test of the benchmark's own arithmetic; run.py runs it first.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
from typing import List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, layer_metrics, policy_counts, useful_attempt_ratio  # noqa: E402
from stats import percentile  # noqa: E402


class _FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


class _Exhausted(Exception):
    attempts = 3


def _check(failures: List[str], what: str, got: object, want: object) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, want {want!r}")


def run() -> List[str]:
    failures: List[str] = []

    # Nearest rank: p90 of 1..100 is 90 with 10 samples beyond it; p50 of
    # an even count is the lower middle value.
    _check(failures, "p90 of 1..100", percentile(range(1, 101), 0.9), (90, 10))
    _check(failures, "p50 of 1..4", percentile([4, 1, 3, 2], 0.5), (2, 2))
    _check(failures, "p90 of 110 samples", percentile(range(110), 0.9)[1], 11)
    _check(failures, "p100", percentile([5.0], 1.0), (5.0, 0))

    # script [0, 10) > anneal [1, 7) > anneal.setup [2, 3); decode [7, 9).
    tracer = Tracer(clock=_FakeClock(0, 1, 2, 3, 7, 7, 9, 10))
    with tracer.span("script"):
        with tracer.span("anneal"):
            with tracer.span("anneal.setup"):
                pass
        with tracer.span("core.decode"):
            pass
    _check(failures, "self times", tracer.self_times(),
           {"script": 2.0, "anneal": 5.0, "anneal.setup": 1.0, "core.decode": 2.0})
    _check(failures, "self times sum to wall", sum(tracer.self_times().values()), 10.0)
    layers = layer_metrics(tracer, scripts=2)
    _check(failures, "anneal self ms per script", layers["anneal.self_ms"], 2500.0)
    _check(failures, "residual ms per script", layers["trace.residual_ms"], 1000.0)

    # Two formulations verified after 1 and 2 attempts, one exhausted after
    # 3: 2 useful attempts out of 6.
    runs = Tracer(clock=_FakeClock(0, 1, 2, 3, 4, 5))
    for attrs in ({"attempts": 1}, {"attempts": 2}, {"error": _Exhausted()}):
        with runs.span("service.policy") as record:
            record.attrs.update(attrs)
    attempts, useful, formulations = policy_counts(runs.named("service.policy"))
    _check(failures, "policy counts", (attempts, useful, formulations), (6, 2, 3))
    _check(failures, "useful_attempt_ratio", useful_attempt_ratio(attempts, useful), 2 / 6)
    _check(failures, "useful_attempt_ratio of nothing", useful_attempt_ratio(0, 0), 0.0)
    return failures


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print("FAIL:", problem)
    print("ok" if not problems else f"{len(problems)} failure(s)")
    sys.exit(1 if problems else 0)
