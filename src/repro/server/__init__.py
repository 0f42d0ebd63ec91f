"""The serving layer: an asyncio SMT-solving server over TCP/HTTP.

This subpackage is the deployment shape the ROADMAP's north star asks for
— the §4 string-QUBO pipeline as a long-lived service fed a stream of
SMT-LIB instances:

* :mod:`~repro.server.protocol` — JSON response envelopes, the typed
  error taxonomy (``parse`` / ``too_large`` / ``overloaded`` /
  ``timeout`` / ``draining`` / ``cancelled``), and located parse errors;
* :mod:`~repro.server.httpio` — minimal asyncio HTTP/1.1 framing with
  socket-layer request-size enforcement, the service skeleton both
  serving tiers subclass, and the one client-side round trip;
* :mod:`~repro.server.admission` — the bounded admission queue: explicit
  backpressure (reject, never buffer unboundedly), deadline-aware slot
  waits, drain support;
* :mod:`~repro.server.workers` — executor-thread solver pool sharing one
  :class:`~repro.service.cache.CompileCache` and one
  :class:`~repro.service.metrics.MetricsRegistry`, with per-request
  deadlines composed into :class:`~repro.service.policy.RetryPolicy`;
* :mod:`~repro.server.app` — :class:`SolverServer` (routing,
  ``/solve`` ``/healthz`` ``/metrics``, graceful drain) and
  :class:`BackgroundServer` (embedding helper for tests/benchmarks);
* :mod:`~repro.server.procpool` — :class:`ProcessSolverBackend`: the
  ``backend="process"`` worker pool (long-lived solver processes, crash
  detection with typed ``internal`` envelopes, kill-and-respawn deadline
  cancellation);
* :mod:`~repro.server.router` — :class:`ShardRouter`: content-hash
  scale-out over N shard servers with fail-over, health probing and
  aggregated metrics (``python -m repro.server.router --shards 4``);
* :mod:`~repro.server.client` — blocking and asyncio clients.

Run it: ``python -m repro.server --port 8037 --workers 4``.

``app``, ``workers`` and ``client`` are imported lazily (PEP 562): they
pull in :mod:`repro.smt.solver` and the full annealing stack, and laziness
keeps ``import repro.server.protocol`` light for clients that only need
the envelope schema.
"""

from repro.server.admission import (
    AdmissionQueue,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
)
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_CANCELLED,
    ERROR_DRAINING,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_PARSE,
    ERROR_TIMEOUT,
    ERROR_TOO_LARGE,
    ERROR_UPSTREAM,
    ErrorInfo,
    ResponseEnvelope,
    SolveRequest,
    locate_parse_error,
)

__all__ = [
    "AdmissionQueue",
    "AsyncSolverClient",
    "BackgroundRouter",
    "BackgroundServer",
    "DeadlineExceededError",
    "DrainingError",
    "ERROR_BAD_REQUEST",
    "ERROR_CANCELLED",
    "ERROR_DRAINING",
    "ERROR_INTERNAL",
    "ERROR_OVERLOADED",
    "ERROR_PARSE",
    "ERROR_TIMEOUT",
    "ERROR_TOO_LARGE",
    "ERROR_UPSTREAM",
    "ErrorInfo",
    "OverloadedError",
    "ProcessSolverBackend",
    "ResponseEnvelope",
    "RouterConfig",
    "ServerConfig",
    "ServerState",
    "ShardRouter",
    "ShardSpec",
    "SolveReply",
    "SolveRequest",
    "SolverClient",
    "SolverServer",
    "SolverWorkerPool",
    "WorkerCrashError",
    "aggregate_metrics",
    "locate_parse_error",
    "shard_key",
]

_LAZY = {
    "AsyncSolverClient": "repro.server.client",
    "BackgroundRouter": "repro.server.router",
    "BackgroundServer": "repro.server.app",
    "ProcessSolverBackend": "repro.server.procpool",
    "RouterConfig": "repro.server.router",
    "ServerConfig": "repro.server.app",
    "ServerState": "repro.server.httpio",
    "ShardRouter": "repro.server.router",
    "ShardSpec": "repro.server.router",
    "SolveReply": "repro.server.client",
    "SolverClient": "repro.server.client",
    "SolverServer": "repro.server.app",
    "SolverWorkerPool": "repro.server.workers",
    "WorkerCrashError": "repro.server.procpool",
    "aggregate_metrics": "repro.server.router",
    "shard_key": "repro.server.router",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
