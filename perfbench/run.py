"""End-to-end benchmark of the SMT-LIB → QUBO → annealing solver.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 30 --trace 0

Workloads (why each exists is in BENCHMARK.json):

* ``oneshot`` — generated one-shot scripts (every fifth a planted
  refutation) solved in-process by one caller, ``strategy="direct"``, at
  32 reads × 200 sweeps.
* ``http-solve`` — stateless ``/solve`` through ``python -m
  repro.server.router`` over 2 shards (process backend, 1 worker each),
  2 keep-alive connections, closed loop, 8 reads × 32 sweeps. Requests
  alternate between the next script of a pool of 400 (about 200 per
  shard, under each shard's 256-entry compile cache) and a repeat of a
  recent one; one request in seven is malformed.
* ``http-session`` — sticky ``/session/*`` traffic through the same
  fleet: each connection drives one multi-check session script at a time,
  one op per script line.

Each run builds its inputs from ``--seed`` with ``InstanceGenerator(ops=
"all")``, stratified so that every seed gives the same mix of witness
lengths, constraint counts and planted verdicts, and hands the program
only the generated SMT-LIB text; the solver seed is fixed, so answers, and with
them ``decided_share``, repeat exactly for a seed. A run measures for
``--seconds`` and at least until its core units are done and enough
latency samples exist for ten to lie beyond p90. Any wrong answer, broken
``/metrics`` accounting identity or fleet process left after teardown
makes it exit 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: HTTP layers from envelope fields, ``/metrics``
deltas and a router-hop probe; in-process layers from spans recorded
around the public calls into each layer while a replay of the
workload's scripts runs in this process (see ``spans.py``), next to an
untraced replay of the same scripts that gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from stats import percentile, ratio  # noqa: E402

WORKLOADS = ("oneshot", "http-solve", "http-session")
SOLVER_SEED = 0
ONESHOT_READS, ONESHOT_SWEEPS = 32, 200
HTTP_READS, HTTP_SWEEPS = 8, 32
SHARDS, WORKERS_PER_SHARD, CONNECTIONS = 2, 1, 2
#: Enough latency samples that at least ten lie beyond the p90 rank.
MIN_SAMPLES = 110
#: Units every run completes; quality metrics are taken over them only.
CORE = {"oneshot": MIN_SAMPLES, "http-solve": 420, "http-session": 60}
#: The ops whose latency a workload reports: scripts, solves or checks.
SAMPLE_KINDS = {"oneshot": ("script",), "http-solve": ("solve",), "http-session": ("check",)}
#: Start-ups per run whose median is setup_s: the fleet, or a fresh interpreter.
SETUP_REPEATS = {"oneshot": 5, "http": 3}
#: Scripts (or session scripts) replayed in-process by the traced run.
REPLAY = {"oneshot": 40, "http-solve": 40, "http-session": 10}
HOP_PROBES = 20
#: A run stops taking new units this long after it starts, done or not.
HARD_LIMIT_S = 150.0
#: Distinct well-formed http-solve scripts, and how far back a repeat reaches.
SOLVE_POOL = 400
REPEAT_WINDOW = 32
SEQUENCE_LENGTH = 20000
LENGTHS = range(3, 9)
WARMUP_SCRIPT = "(declare-const x String)\n(assert (= (str.len x) 2))\n(check-sat)\n"
DECIDED = ("sat", "unsat")
#: Last op of each generate_unsat shape: two equalities, two pinned
#: characters, an over-long containment window.
UNSAT_SHAPES = ("equality", "charat", "contains")
#: Unsat checks per four-check session script, cycled.
SESSION_UNSAT_CHECKS = (0, 0, 0, 1, 1, 1, 2, 2, 3, 3)


def metric_units(section: str) -> Dict[str, str]:
    """Name → unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Script:
    """One generated input: its text and what the generator planted."""

    text: str
    planted: str  # "sat", "unsat" or "malformed"


@dataclass
class SessionScript:
    """A multi-check session script split into its one-op lines."""

    lines: List[str]
    expected: List[str]


def _generators(seed: int, **kwargs: Any) -> List[Any]:
    """One InstanceGenerator per witness length, so every run mixes the
    lengths in the same proportions and only the drawn constraints vary."""
    from repro.smt.generator import InstanceGenerator

    return [
        InstanceGenerator(min_length=n, max_length=n, ops="all", seed=seed * 1000 + n, **kwargs)
        for n in LENGTHS
    ]


def solve_scripts(seed: int, count: int) -> List[Script]:
    """Planted-sat scripts with every fifth a planted refutation.

    Draws are stratified on what the generator reports it planted, so
    every run has the same mix: sat scripts cycle through 1, 2 and 3
    constraints beside the length fact, refutations through the three
    refutation shapes.
    """
    generators = _generators(seed)
    scripts = []
    for index in range(count):
        generator = generators[index % len(generators)]
        if index % 5 == 4:
            shape = UNSAT_SHAPES[(index // 5) % len(UNSAT_SHAPES)]
            instance = _draw(generator.generate_unsat,
                             lambda instance: instance.ops[-1] == shape)
            scripts.append(Script(instance.script, "unsat"))
        else:
            constraints = 1 + (index // len(LENGTHS)) % 3
            instance = _draw(generator.generate,
                             lambda instance: len(instance.ops) == 1 + constraints)
            scripts.append(Script(instance.script, "sat"))
    return scripts


def _draw(generate: Callable[[], Any], wanted: Callable[[Any], bool]) -> Any:
    """The generator's next instance that *wanted* accepts."""
    while not wanted(instance := generate()):
        pass
    return instance


def malformed(script: str, kind: int) -> Script:
    """A generated script broken so that it cannot parse."""
    if kind == 0:
        text = script.rstrip()[:-1]  # drop the last ")": unbalanced
    elif kind == 1:
        text = script + '(assert (= x "ab'  # unterminated string literal
    else:
        text = script.replace("(declare-const x ", "(declare-const y ", 1)
    return Script(text, "malformed")


def http_solve_sequence(seed: int) -> List[Script]:
    """Request i is malformed when i % 7 == 6. The other requests alternate
    between the next pool script (the pool wraps around) and a repeat of
    one sent at most REPEAT_WINDOW pool scripts ago. A repeat goes back a
    multiple of five, so it is planted sat or unsat like the pool script
    before it, and every run has the pool's one-in-five unsat share."""
    pool = solve_scripts(seed, SOLVE_POOL)
    broken = [malformed(pool[k].text, k % 3) for k in range(21)]
    rng = random.Random(seed)
    sequence: List[Script] = []
    sent = 0
    for index in range(SEQUENCE_LENGTH):
        if index % 7 == 6:
            sequence.append(broken[(index // 7) % len(broken)])
        elif sent == 0 or (index - index // 7) % 2 == 0:
            sequence.append(pool[sent % len(pool)])
            sent += 1
        else:
            back = 5 * rng.randrange(min(REPEAT_WINDOW, sent - 1) // 5 + 1)
            sequence.append(pool[(sent - 1 - back) % len(pool)])
    return sequence


def session_scripts(seed: int, count: int) -> List[SessionScript]:
    """Four-check session scripts, stratified on how many checks the
    generator expects to be unsat (0-3, near the generator's own mix)."""
    generators = _generators(seed, sessions=4)
    scripts = []
    for index in range(count):
        unsat = SESSION_UNSAT_CHECKS[index % len(SESSION_UNSAT_CHECKS)]
        instance = _draw(generators[index % len(generators)].generate,
                         lambda instance: instance.expected_statuses.count("unsat") == unsat)
        lines = [line for line in instance.script.splitlines() if line.strip()]
        scripts.append(SessionScript(lines, list(instance.expected_statuses)))
    return scripts


def digest(texts: Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]


# --------------------------------------------------------------------- #
# correctness gate
# --------------------------------------------------------------------- #


class Gate:
    """Collects correctness violations; any one fails the run."""

    def __init__(self) -> None:
        self.violations: List[str] = []
        self._assertions: Dict[str, list] = {}
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            self.violations.append(message)

    def assertions(self, text: str) -> list:
        from repro.smt.parser import parse_script

        with self._lock:
            if text not in self._assertions:
                self._assertions[text] = parse_script(text).assertions
            return self._assertions[text]

    def verdict(self, what: str, status: str, planted: str,
                model: Dict[str, str], assertions: list) -> None:
        """sat needs a model satisfying every assertion; a planted verdict
        is never contradicted."""
        from repro.smt.theory import TheoryError, eval_formula

        if status == "sat":
            if planted == "unsat":
                self.fail(f"{what}: planted-unsat answered sat")
            try:
                satisfied = all(eval_formula(term, model) for term in assertions)
            except (TheoryError, KeyError) as exc:
                satisfied = False
                self.fail(f"{what}: model {model} cannot be evaluated: {exc}")
            if not satisfied:
                self.fail(f"{what}: sat model {model} violates an assertion")
        elif status == "unsat" and planted == "sat":
            self.fail(f"{what}: planted-sat answered unsat")


# --------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------- #


@dataclass
class Op:
    """One operation the benchmark sent and what came back."""

    unit: int
    kind: str
    ms: float
    ok: bool
    envelope: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


class ClosedLoop:
    """Callers that each wait for a reply before sending the next unit.

    A unit is one script (oneshot, http-solve) or one session script. The
    loop stops taking units once ``seconds`` have passed, the first
    ``core`` units are taken and ``min_samples`` latency samples exist;
    every unit taken is finished.
    """

    def __init__(self, seconds: float, core: int, sample_kinds: Tuple[str, ...],
                 limit_s: float, min_samples: int = MIN_SAMPLES) -> None:
        self.seconds = seconds
        self.core = core
        self.sample_kinds = sample_kinds
        self.limit_s = limit_s
        self.min_samples = min_samples
        self.ops: List[Op] = []
        self.elapsed = 0.0
        self.timed_out = False
        self._next = 0
        self._samples = 0
        self._lock = threading.Lock()
        self._started = 0.0

    def _take(self) -> Optional[int]:
        with self._lock:
            now = time.perf_counter() - self._started
            if now >= self.limit_s:
                self.timed_out = self._next < self.core or self._samples < self.min_samples
                return None
            if (now >= self.seconds and self._next >= self.core
                    and self._samples >= self.min_samples):
                return None
            index = self._next
            self._next += 1
            return index

    def _record(self, ops: List[Op]) -> None:
        with self._lock:
            self.ops.extend(ops)
            self._samples += sum(1 for op in ops if op.kind in self.sample_kinds)
            self.elapsed = time.perf_counter() - self._started

    def run(self, callers: Sequence[Callable[[int], List[Op]]]) -> None:
        errors: List[BaseException] = []

        def drive(unit: Callable[[int], List[Op]]) -> None:
            try:
                while (index := self._take()) is not None:
                    self._record(unit(index))
            except BaseException as exc:
                errors.append(exc)
                with self._lock:
                    self.limit_s = 0.0  # stop the other callers too

        self._started = time.perf_counter()
        threads = [threading.Thread(target=drive, args=(c,), daemon=True)
                   for c in callers[1:]]
        for thread in threads:
            thread.start()
        drive(callers[0])
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


# --------------------------------------------------------------------- #
# oneshot
# --------------------------------------------------------------------- #


def oneshot_unit(scripts: List[Script], gate: Gate) -> Callable[[int], List[Op]]:
    from repro.smt.solver import QuantumSMTSolver

    def unit(index: int) -> List[Op]:
        item = scripts[index % len(scripts)]
        started = time.perf_counter()
        try:
            solver = QuantumSMTSolver.from_script_text(
                item.text, num_reads=ONESHOT_READS, seed=SOLVER_SEED,
                sampler_params={"num_sweeps": ONESHOT_SWEEPS}, strategy="direct",
            )
            loaded = time.perf_counter()
            result = solver.check_sat()
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            ms = (time.perf_counter() - started) * 1000.0
            return [Op(index, "script", ms, False, {"error": repr(exc)})]
        done = time.perf_counter()
        status = result.status.value
        gate.verdict(f"oneshot script {index}", status, item.planted,
                     result.model, solver.assertions)
        return [Op(index, "script", (done - started) * 1000.0, True,
                   {"status": status, "model": result.model},
                   {"load_ms": (loaded - started) * 1000.0})]

    return unit


def oneshot_setup_s() -> float:
    """Fresh interpreter → first verified answer, median of several."""
    code = (
        "import sys\n"
        "from repro.smt.solver import QuantumSMTSolver\n"
        "r = QuantumSMTSolver.from_script_text(sys.stdin.read(), num_reads="
        f"{ONESHOT_READS}, seed={SOLVER_SEED}, sampler_params={{'num_sweeps': "
        f"{ONESHOT_SWEEPS}}}).check_sat()\n"
        "print(r.status.value)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS["oneshot"]):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], input=WARMUP_SCRIPT, capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=60,
        )
        times.append(time.perf_counter() - started)
        if done.returncode != 0 or done.stdout.strip() != "sat":
            raise RuntimeError(f"oneshot start-up failed: {done.stdout}{done.stderr}")
    return statistics.median(times)


# --------------------------------------------------------------------- #
# http workloads
# --------------------------------------------------------------------- #


def expected_envelope(kind: str, envelope: Dict[str, Any]) -> bool:
    if kind == "malformed":
        return not envelope.get("ok") and (envelope.get("error") or {}).get("type") == "parse"
    if not envelope.get("ok"):
        return False
    status = envelope.get("status")
    return {
        "solve": status in ("sat", "unsat", "unknown"),
        "check": status in ("sat", "unsat", "unknown"),
        "open": status == "open",
        "assert": status == "ok",
        "push": status == "ok",
        "pop": status == "ok",
        "close": status == "closed",
    }[kind]


def _timed(kind: str, unit: int, send: Callable[[], Dict[str, Any]]) -> Op:
    started = time.perf_counter()
    try:
        envelope = send()
    except Exception as exc:  # noqa: BLE001 - transport errors are data
        return Op(unit, kind, (time.perf_counter() - started) * 1000.0, False,
                  {"error": repr(exc)})
    ms = (time.perf_counter() - started) * 1000.0
    return Op(unit, kind, ms, expected_envelope(kind, envelope), envelope)


def http_solve_unit(conn: Any, sequence: List[Script], gate: Gate) -> Callable[[int], List[Op]]:
    def unit(index: int) -> List[Op]:
        item = sequence[index % len(sequence)]
        kind = "malformed" if item.planted == "malformed" else "solve"
        op = _timed(kind, index, lambda: conn.solve(item.text))
        if kind == "malformed" and not op.ok:
            gate.fail(f"request {index}: malformed script not answered error: parse "
                      f"({op.envelope})")
        elif kind == "solve" and op.ok:
            gate.verdict(f"request {index}", op.envelope["status"], item.planted,
                         op.envelope.get("model") or {}, gate.assertions(item.text))
        return [op]

    return unit


def session_ops(script: SessionScript, session_id: str) -> List[Tuple[str, Dict[str, Any]]]:
    """One op per script line, between an open and a close."""
    ops: List[Tuple[str, Dict[str, Any]]] = [("open", {"session": session_id})]
    for line in script.lines:
        if line.startswith("(check-sat"):
            ops.append(("check", {"session": session_id}))
        elif line.startswith("(push"):
            ops.append(("push", {"session": session_id, "levels": 1}))
        elif line.startswith("(pop"):
            ops.append(("pop", {"session": session_id, "levels": 1}))
        else:
            ops.append(("assert", {"session": session_id, "script": line}))
    ops.append(("close", {"session": session_id}))
    return ops


class FrameStack:
    """The benchmark's own copy of a session's assertion stack."""

    def __init__(self, gate: Gate) -> None:
        self.gate = gate
        self.declarations = ""
        self.frames: List[list] = [[]]

    def apply(self, kind: str, fields: Dict[str, Any]) -> None:
        if kind == "push":
            self.frames.append([])
        elif kind == "pop":
            self.frames.pop()
        elif kind == "assert":
            line = fields["script"]
            if line.startswith("(declare-const"):
                self.declarations += line + "\n"
            else:
                self.frames[-1].extend(self.gate.assertions(self.declarations + line))

    def flattened(self) -> list:
        return [term for frame in self.frames for term in frame]


def session_id(seed: int, index: int, shard: int) -> str:
    """A session id the router places on *shard*.

    Each connection keeps its sessions on its own shard, so the two
    callers never share one shard's executor: left to chance, that
    sharing moved check p90 by a third between seeds.
    """
    from repro.server.router import session_shard_key, shard_index

    salt = 0
    while shard_index(session_shard_key(f"bench-{seed}-{index}-{salt}"), SHARDS) != shard:
        salt += 1
    return f"bench-{seed}-{index}-{salt}"


def http_session_unit(conn: Any, scripts: List[SessionScript], gate: Gate,
                      seed: int, shard: int) -> Callable[[int], List[Op]]:
    def unit(index: int) -> List[Op]:
        script = scripts[index % len(scripts)]
        stack = FrameStack(gate)
        ops: List[Op] = []
        checks = 0
        for kind, fields in session_ops(script, session_id(seed, index, shard)):
            op = _timed(kind, index, lambda: conn.session(kind, **fields))
            ops.append(op)
            if not op.ok:
                break  # the session's state is unknown from here on
            stack.apply(kind, fields)
            if kind == "check":
                expected = script.expected[checks]
                op.extra["check"] = checks
                gate.verdict(f"session script {index} check {checks}",
                             op.envelope["status"], expected,
                             op.envelope.get("model") or {}, stack.flattened())
                checks += 1
        return ops

    return unit


def start_fleet(num_reads: int, num_sweeps: int, repeats: int) -> Tuple[Any, float, List[str]]:
    """Start the fleet *repeats* times, keep the last; (fleet, median s, violations)."""
    from fleet import Fleet

    times: List[float] = []
    violations: List[str] = []
    for attempt in range(repeats):
        fleet = Fleet(ROOT, shards=SHARDS, workers=WORKERS_PER_SHARD,
                      num_reads=num_reads, num_sweeps=num_sweeps, solver_seed=SOLVER_SEED)
        try:
            times.append(fleet.start(WARMUP_SCRIPT))
        except BaseException:
            violations += fleet.stop()
            raise
        if attempt < repeats - 1:
            violations += fleet.stop()
    return fleet, statistics.median(times), violations


def scrape(fleet: Any) -> Tuple[Dict[str, Any], float, int]:
    """Router /metrics: (payload, median scrape ms of five, bytes)."""
    from fleet import Connection

    times = []
    with Connection(fleet.port) as conn:
        for _ in range(5):
            started = time.perf_counter()
            payload, size = conn.get_json("/metrics")
            times.append((time.perf_counter() - started) * 1000.0)
    return payload, statistics.median(times), size


def hop_probe(fleet: Any, seed: int) -> float:
    """Router latency minus direct-to-shard latency on malformed scripts,
    which every shard answers without a solve."""
    from fleet import Connection

    scripts = solve_scripts(seed, HOP_PROBES)
    direct, routed = [], []
    with Connection(fleet.shard_ports[0]) as shard, Connection(fleet.port) as router:
        for index in range(HOP_PROBES):
            text = malformed(scripts[index % len(scripts)].text, index % 3).text
            for conn, sink in ((shard, direct), (router, routed)):
                started = time.perf_counter()
                conn.solve(text)
                sink.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(routed) - statistics.median(direct)


def run_fleet(reads: int, sweeps: int, setups: int, connections: int,
              drive: Callable[[List[Any]], ClosedLoop], seed: int,
              probe_hop: bool) -> Dict[str, Any]:
    """Start the fleet, *drive* it over keep-alive connections, read its
    /metrics and memory, and tear it down."""
    from fleet import Connection, accounting_violations

    fleet, setup_s, violations = start_fleet(reads, sweeps, setups)
    try:
        before, _, _ = scrape(fleet)
        conns = [Connection(fleet.port) for _ in range(connections)]
        try:
            loop = drive(conns)
        finally:
            for conn in conns:
                conn.close()
        rss_mb = fleet.peak_rss_mb()
        hop_ms = hop_probe(fleet, seed) if probe_hop else 0.0
        after, scrape_ms, scrape_bytes = scrape(fleet)
        violations += accounting_violations(after)
    finally:
        violations += fleet.stop()
    return {
        "loop": loop, "setup_s": setup_s, "rss_mb": rss_mb, "violations": violations,
        "before": before, "after": after, "hop_ms": hop_ms,
        "scrape_ms": scrape_ms, "scrape_bytes": scrape_bytes,
    }


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


def end_to_end(workload: str, loop: ClosedLoop, setup_s: float, rss_mb: float) -> Dict[str, float]:
    """Latency covers scripts, well-formed requests or session checks;
    ``write_p50_ms`` the operations answered without an anneal: script
    loading on oneshot, malformed requests on http-solve and open, assert,
    push, pop and close on http-session."""
    done = [op for op in loop.ops if op.ok]
    if workload == "oneshot":
        latency = [op.ms for op in done]
        writes = [op.extra["load_ms"] for op in done]
    elif workload == "http-solve":
        latency = [op.ms for op in done if op.kind == "solve"]
        writes = [op.ms for op in done if op.kind == "malformed"]
    else:
        latency = [op.ms for op in done if op.kind == "check"]
        writes = [op.ms for op in done if op.kind != "check"]
    p50, _ = percentile(latency, 0.5)
    p90, beyond = percentile(latency, 0.9)
    print(f"latency samples: {len(latency)} ({beyond} beyond p90); "
          f"write samples: {len(writes)}; elapsed {loop.elapsed:.2f} s")
    return {
        "setup_s": setup_s,
        "throughput_rps": len(done) / loop.elapsed,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "write_p50_ms": percentile(writes, 0.5)[0],
        "decided_share": decided_share(workload, loop.ops),
        "ok_share": ratio(len(done), len(loop.ops)),
        "rss_mb": rss_mb,
    }


def decided_share(workload: str, ops: List[Op]) -> float:
    """(sat + unsat) / well-formed checks, over the run's core units."""
    checks = [op for op in ops
              if op.unit < CORE[workload] and op.kind in SAMPLE_KINDS[workload]]
    decided = sum(1 for op in checks if op.envelope.get("status") in DECIDED)
    return ratio(decided, len(checks))


def http_layers(http: Dict[str, Any], inprocess_ms: Dict[Hashable, float],
                check_key: Callable[[Op], Hashable]) -> Dict[str, float]:
    """Per-layer metrics read from envelopes and /metrics deltas.

    ``server.procpool.ipc_ms`` is, over the replayed checks, the median of
    the check's median envelope ``solve_ms`` minus its in-process time;
    *check_key* maps an op to the key its replay time is stored under.
    """
    loop: ClosedLoop = http["loop"]
    solving = [op for op in loop.ops if op.ok and op.kind in ("solve", "check")]
    queue = [op.envelope["queue_ms"] for op in solving]
    residual = [op.ms - op.envelope["queue_ms"] - op.envelope["solve_ms"] for op in solving]
    solve_by_unit: Dict[Hashable, List[float]] = {}
    for op in solving:
        solve_by_unit.setdefault(check_key(op), []).append(op.envelope["solve_ms"])
    ipc = [statistics.median(solve_by_unit[key]) - ms
           for key, ms in inprocess_ms.items() if key in solve_by_unit]
    checks = [op for op in solving if op.kind == "check"]
    cache_before, cache_after = http["before"]["cache"], http["after"]["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    return {
        "server.queue_ms.p50": percentile(queue, 0.5)[0],
        "server.queue_ms.p90": percentile(queue, 0.9)[0],
        "server.solve_ms": percentile([op.envelope["solve_ms"] for op in solving], 0.5)[0],
        "server.procpool.ipc_ms": statistics.median(ipc) if ipc else 0.0,
        "server.http_residual_ms": percentile(residual, 0.5)[0],
        "server.router.hop_ms": http["hop_ms"],
        "service.cache.hit_ratio": ratio(hits, hits + misses),
        "service.cache.misses": float(misses),
        "smt.session.memo_hit_ratio": ratio(
            sum(1 for op in checks if op.envelope.get("cache_hit")), len(checks)),
        "service.metrics.scrape_ms": http["scrape_ms"],
        "service.metrics.bytes": float(http["scrape_bytes"]),
    }


# --------------------------------------------------------------------- #
# in-process replay (traced run)
# --------------------------------------------------------------------- #


def replay(units: List[Any], solve_one: Callable[[Any], Dict[Hashable, float]],
           tracer: Any = None) -> Tuple[float, Dict[Hashable, float]]:
    """Solve *units* in this process; (wall seconds, ms per check)."""
    from spans import ROOT as ROOT_SPAN

    per_check: Dict[Hashable, float] = {}
    started = time.perf_counter()
    for unit in units:
        if tracer is None:
            per_check.update(solve_one(unit))
        else:
            with tracer.span(ROOT_SPAN):
                per_check.update(solve_one(unit))
    return time.perf_counter() - started, per_check


def check_script(reads: int, sweeps: int) -> Callable[[Script], Dict[Hashable, float]]:
    """Solve one script as a worker does; its check time keyed by its text."""
    from repro.smt.solver import QuantumSMTSolver

    def solve_one(item: Script) -> Dict[Hashable, float]:
        solver = QuantumSMTSolver.from_script_text(
            item.text, num_reads=reads, seed=SOLVER_SEED,
            sampler_params={"num_sweeps": sweeps}, strategy="direct")
        started = time.perf_counter()
        solver.check_sat()
        return {item.text: (time.perf_counter() - started) * 1000.0}

    return solve_one


def check_session(unit: Tuple[int, SessionScript]) -> Dict[Hashable, float]:
    """Drive one session script as a shard does; check times keyed by
    (session script index, check index)."""
    from repro.service.cache import CompileCache
    from repro.smt.session import SolverSession

    index, script = unit
    session = SolverSession(num_reads=HTTP_READS, seed=SOLVER_SEED,
                            sampler_params={"num_sweeps": HTTP_SWEEPS},
                            cache=CompileCache(maxsize=256))
    times: Dict[Hashable, float] = {}
    for kind, fields in session_ops(script, "replay"):
        if kind == "assert":
            session.assert_text(fields["script"])
        elif kind == "push":
            session.push(1)
        elif kind == "pop":
            session.pop(1)
        elif kind == "check":
            started = time.perf_counter()
            session.check_sat()
            times[(index, len(times))] = (time.perf_counter() - started) * 1000.0
    return times


def traced_replay(units: List[Any], solve_one: Callable) -> Tuple[Dict[str, float], Dict]:
    """Replay *units* untraced, then traced: (layer metrics, untraced ms per check).

    One untimed unit first, so neither pass pays first-call costs.
    """
    from spans import Tracer, install_layer_spans, layer_metrics

    solve_one(units[0])
    untraced_s, per_check = replay(units, solve_one)
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        traced_s, _ = replay(units, solve_one, tracer)
    finally:
        tracer.restore()
    layers = layer_metrics(tracer, len(units))
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    own = tracer.self_times()
    wall = sum(own.values())
    print("self-time share of traced wall: " + ", ".join(
        f"{name} {100.0 * seconds / wall:.1f}%"
        for name, seconds in sorted(own.items(), key=lambda item: -item[1])))
    return layers, per_check


# --------------------------------------------------------------------- #
# environment and output
# --------------------------------------------------------------------- #


def environment(workload: str, seed: int, inputs_digest: str) -> Dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_digest,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def report(correct: bool, attempted: int, failed: int, values: Dict[str, float],
           units: Dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"  {name:<42} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an exception, so the fleet is still torn down.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    import selftest

    failures = selftest.run()
    if failures:
        print("error: benchmark self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 2

    deadline = time.perf_counter() + HARD_LIMIT_S
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    gate = Gate()
    violations: List[str] = []
    layers: Dict[str, float] = {}

    if workload == "oneshot":
        scripts = solve_scripts(seed, 240)
        print("env: " + json.dumps(environment(workload, seed, digest(s.text for s in scripts))))
        if trace:
            # The replayed scripts also go through the fleet, one caller at
            # oneshot's budget, so this run reports the serving layers too.
            units = scripts[:REPLAY[workload]]
            layers, inprocess = traced_replay(units, check_script(ONESHOT_READS, ONESHOT_SWEEPS))

            def drive(conns: List[Any]) -> ClosedLoop:
                loop = ClosedLoop(0.0, len(units), ("solve",),
                                  deadline - time.perf_counter(), min_samples=0)
                loop.run([http_solve_unit(conns[0], units, gate)])
                return loop

            http = run_fleet(ONESHOT_READS, ONESHOT_SWEEPS, 1, 1, drive, seed, True)
            layers.update(http_layers(http, inprocess, lambda op: units[op.unit].text))
        else:
            setup_s = oneshot_setup_s()
            loop = ClosedLoop(args.seconds, CORE[workload], SAMPLE_KINDS[workload],
                              deadline - time.perf_counter())
            loop.run([oneshot_unit(scripts, gate)])
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        sequence = http_solve_sequence(seed) if workload == "http-solve" else []
        sessions = session_scripts(seed, 400) if workload == "http-session" else []
        texts = [s.text for s in sequence] or ["\n".join(s.lines) for s in sessions]
        print("env: " + json.dumps(environment(workload, seed, digest(texts))))

        def drive(conns: List[Any]) -> ClosedLoop:
            if workload == "http-solve":
                callers = [http_solve_unit(conn, sequence, gate) for conn in conns]
            else:
                callers = [http_session_unit(conn, sessions, gate, seed, shard)
                           for shard, conn in enumerate(conns)]
            loop = ClosedLoop(args.seconds, CORE[workload], SAMPLE_KINDS[workload],
                              deadline - time.perf_counter())
            loop.run(callers)
            return loop

        http = run_fleet(HTTP_READS, HTTP_SWEEPS, 1 if trace else SETUP_REPEATS["http"],
                         CONNECTIONS, drive, seed, trace)
        setup_s, rss_mb = http["setup_s"], http["rss_mb"]
        if trace and workload == "http-solve":
            distinct = list({s.text: s for s in sequence if s.planted != "malformed"}.values())
            layers, inprocess = traced_replay(
                distinct[:REPLAY[workload]], check_script(HTTP_READS, HTTP_SWEEPS))
            layers.update(http_layers(
                http, inprocess, lambda op: sequence[op.unit % len(sequence)].text))
        elif trace:
            units = list(enumerate(sessions[:REPLAY[workload]]))
            layers, inprocess = traced_replay(units, check_session)
            layers.update(http_layers(
                http, inprocess, lambda op: (op.unit, op.extra.get("check"))))
    if workload != "oneshot" or trace:
        loop = http["loop"]
        violations += http["violations"]

    if loop.timed_out:
        violations.append(f"run did not finish its core units within {HARD_LIMIT_S:g} s")
    for message in gate.violations[:20] + violations:
        print(f"VIOLATION: {message}", file=sys.stderr)
    correct = not gate.violations and not violations
    attempted = len(loop.ops)
    failed = sum(1 for op in loop.ops if not op.ok)
    if trace:
        report(correct, attempted, failed, layers, metric_units("per_layer"))
    else:
        report(correct, attempted, failed,
               end_to_end(workload, loop, setup_s, rss_mb), metric_units("end_to_end"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
