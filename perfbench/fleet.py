"""A ``python -m repro.server.router`` fleet as a subprocess, and its HTTP client.

The router spawns its shard servers and each shard its worker processes,
so the fleet is one process tree rooted at the router. :class:`Fleet`
starts it in a new session, reads the shard and router addresses from
the router's readiness lines, measures its peak memory from ``/proc``
and, on :meth:`Fleet.stop`, drains it with SIGTERM and then checks that
no process of the tree and no listening port of the fleet remains.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

HOST = "127.0.0.1"
_SPAWNED = re.compile(r"\[repro\.router\] spawned \d+ shard\(s\): (.*)$")
_ROUTING = re.compile(r"\[repro\.router\] routing on [^:]+:(\d+) ")


class FleetError(RuntimeError):
    """The fleet did not start, answer or stop as it must."""


class Connection:
    """One keep-alive HTTP/1.1 connection to the router or a shard."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(
        self, method: str, path: str, body: bytes = b"", content_type: str = "text/plain"
    ) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(HOST, self.port, timeout=self.timeout)
        try:
            self._conn.request(
                method, path, body=body or None, headers={"Content-Type": content_type}
            )
            response = self._conn.getresponse()
            payload = response.read()
        except (http.client.HTTPException, OSError):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, payload

    def solve(self, script: str) -> Dict[str, Any]:
        _status, payload = self.request("POST", "/solve", script.encode("utf-8"))
        return json.loads(payload)

    def session(self, op: str, **fields: Any) -> Dict[str, Any]:
        body = json.dumps(fields).encode("utf-8")
        _status, payload = self.request(
            "POST", f"/session/{op}", body, "application/json"
        )
        return json.loads(payload)

    def get_json(self, path: str) -> Tuple[Dict[str, Any], int]:
        """A GET endpoint's JSON payload and its size in bytes."""
        _status, payload = self.request("GET", path)
        return json.loads(payload), len(payload)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Fleet:
    """Router over *shards* shard servers, each with process workers."""

    def __init__(
        self,
        root: str,
        *,
        shards: int,
        workers: int,
        num_reads: int,
        num_sweeps: int,
        solver_seed: int,
    ) -> None:
        self.root = root
        self.shards = shards
        self.command = [
            sys.executable, "-m", "repro.server.router",
            "--host", HOST, "--port", "0",
            "--shards", str(shards), "--backend", "process",
            "--workers", str(workers),
            "--num-reads", str(num_reads), "--num-sweeps", str(num_sweeps),
            "--seed", str(solver_seed),
        ]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.shard_ports: List[int] = []
        self.log: Deque[str] = collections.deque(maxlen=200)
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._seen: Set[int] = set()

    # ------------------------------------------------------------------ #
    # start-up
    # ------------------------------------------------------------------ #

    def start(self, warmup_script: str, timeout: float = 60.0) -> float:
        """Spawn, wait for green health, warm every shard; returns seconds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command,
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout):
            raise FleetError("router never reported ready:\n" + self.tail())
        deadline = started + timeout
        with Connection(self.port, timeout=5.0) as probe:
            while True:
                health, _size = probe.get_json("/healthz")
                if health.get("healthy_shards") == self.shards:
                    break
                if time.perf_counter() > deadline:
                    raise FleetError(f"fleet not healthy: {health}")
                time.sleep(0.05)
        for port in self.shard_ports:
            with Connection(port) as shard:
                envelope = shard.solve(warmup_script)
            if not envelope.get("ok"):
                raise FleetError(f"warm-up request failed on :{port}: {envelope}")
        elapsed = time.perf_counter() - started
        self._seen.update(self.pids())
        return elapsed

    def _drain(self) -> None:
        """Read the fleet's output to its end: addresses, then the log tail."""
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            self.log.append(line)
            spawned = _SPAWNED.search(line)
            if spawned:
                self.shard_ports = [
                    int(part.rsplit(":", 1)[1]) for part in spawned.group(1).split(",")
                ]
            routing = _ROUTING.search(line)
            if routing:
                self.port = int(routing.group(1))
                self._ready.set()

    def tail(self) -> str:
        return "\n".join(list(self.log)[-20:])

    # ------------------------------------------------------------------ #
    # process tree
    # ------------------------------------------------------------------ #

    def pids(self) -> List[int]:
        """The router and every live descendant (shards, workers, helpers)."""
        if self.proc is None:
            return []
        children: Dict[int, List[int]] = collections.defaultdict(list)
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            stat = _read_stat(int(entry))
            if stat is not None:
                children[stat[1]].append(int(entry))
        tree, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            tree.append(pid)
            frontier.extend(children.get(pid, []))
        return tree

    def peak_rss_mb(self) -> float:
        """Summed VmHWM (peak resident set) of the fleet's processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #

    def stop(self, timeout: float = 45.0) -> List[str]:
        """Drain the fleet; returns teardown violations (empty = clean).

        Whatever the outcome, no process of the tree is left running: any
        straggler is SIGKILLed and waited for before returning.
        """
        if self.proc is None:
            return []
        violations: List[str] = []
        self._seen.update(self.pids())
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
            if code != 0:
                violations.append(f"router exited with code {code}")
        except subprocess.TimeoutExpired:
            violations.append(f"router still running {timeout:g} s after SIGTERM")
        stragglers = self._wait_gone(self._seen, 10.0)
        if stragglers:
            violations.append(f"fleet processes still running: {sorted(stragglers)}")
            self._kill(stragglers)
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for port in [self.port, *self.shard_ports]:
            if port and _listening(port):
                violations.append(f"port {port} still accepts connections")
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        self.proc = None
        return violations

    def _wait_gone(self, pids: Set[int], timeout: float) -> Set[int]:
        deadline = time.monotonic() + timeout
        alive = {pid for pid in pids if _running(pid)}
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = {pid for pid in alive if _running(pid)}
        return alive

    def _kill(self, pids: Set[int]) -> None:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self._wait_gone(pids, 10.0):
            raise FleetError(f"could not kill fleet processes {sorted(pids)}")


def accounting_violations(metrics: Dict[str, Any]) -> List[str]:
    """The /metrics identity: requests = completed + rejected.* + timeout
    + cancelled + internal, on the router's summed rollup."""
    counters = metrics.get("counters", {})
    requests = counters.get("server.requests", 0)
    accounted = sum(
        counters.get(name, 0)
        for name in ("server.completed", "server.timeout", "server.cancelled",
                     "server.internal")
    ) + sum(v for k, v in counters.items() if k.startswith("server.rejected."))
    if requests != accounted:
        return [f"accounting identity broken: server.requests={requests} "
                f"but outcomes sum to {accounted}"]
    return []


def _read_stat(pid: int) -> Optional[Tuple[str, int]]:
    """(state, parent pid) of *pid* from /proc, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def _running(pid: int) -> bool:
    """Alive and not a zombie (an exited process its parent has not reaped)."""
    stat = _read_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _listening(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.settimeout(1.0)
        return sock.connect_ex((HOST, port)) == 0
