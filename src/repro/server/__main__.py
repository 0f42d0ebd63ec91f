"""CLI entry point: ``python -m repro.server``.

Starts the asyncio solving server and blocks until SIGTERM/SIGINT, which
triggers the graceful drain (stop accepting, finish in-flight up to
``--drain-timeout``, cancel the rest).

Examples
--------
Serve on the default port with 4 workers and a bounded queue::

    python -m repro.server --port 8037 --workers 4 --queue-limit 32

Solve over the wire::

    curl -s -X POST --data-binary \
      '(declare-const x String)(assert (= x "hi"))(check-sat)' \
      http://127.0.0.1:8037/solve
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.server.app import ServerConfig, SolverServer
from repro.server.httpio import serve_until_signalled


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Asyncio SMT-solving server (strings fragment → QUBO "
        "→ simulated annealing) with admission control and deadlines.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8037, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="concurrent solver slots"
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="solve backend: executor threads (one GIL) or long-lived "
        "worker processes (one solver process per slot)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="max requests waiting for a slot; beyond it requests are "
        "rejected with a typed 'overloaded' envelope (HTTP 429)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=30000.0,
        help="default per-request deadline (overridable per request)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to let in-flight solves finish on shutdown",
    )
    parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=1 << 20,
        help="socket-layer request size cap (typed 'too_large' beyond it)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=60.0,
        help="seconds a keep-alive connection may sit idle between "
        "requests before the server closes it",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=0.0,
        help="micro-batching window in ms (thread backend only): collect "
        "concurrent requests for up to this long and solve each group as "
        "one block-diagonally fused kernel call; 0 disables",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=8,
        help="max requests fused per micro-batch (with --batch-window-ms)",
    )
    parser.add_argument(
        "--strategy",
        choices=("direct", "refine"),
        default="direct",
        help="solve strategy: the unrefined pipeline, or the CEGAR "
        "refinement loop (classical propagation clamps implied bits, the "
        "annealer samples the reduced QUBO, blocking lemmas refine "
        "counterexamples, guaranteed fallback to the direct solve)",
    )
    parser.add_argument(
        "--refine-max-rounds",
        type=int,
        default=4,
        help="refinement round budget per check (with --strategy refine); "
        "0 always takes the fallback, bit-identical to --strategy direct",
    )
    parser.add_argument(
        "--opt-max-restarts",
        type=int,
        default=4,
        help="anytime restart budget for weighted (assert-soft) requests",
    )
    parser.add_argument(
        "--opt-exhaustive-bits",
        type=int,
        default=16,
        help="exhaustive-finish threshold in string bits for weighted "
        "requests (variables at or under it are enumerated exactly, "
        "proving optimality)",
    )
    parser.add_argument("--num-reads", type=int, default=64, help="annealer reads")
    parser.add_argument(
        "--num-sweeps", type=int, default=None, help="annealer sweeps per read"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="base seed (reproducible answers)"
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, help="solve retries per variable"
    )
    parser.add_argument(
        "--penalty", type=float, default=1.0, help="QUBO penalty strength A"
    )
    parser.add_argument(
        "--cache-size", type=int, default=256, help="compile-cache entries"
    )
    parser.add_argument(
        "--session-idle-timeout",
        type=float,
        default=300.0,
        help="seconds a sticky /session/* session may idle before expiry",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="live sticky sessions allowed at once (typed 'overloaded' beyond)",
    )
    parser.add_argument(
        "--session-warm",
        action="store_true",
        help="enable session warm starts (previous-model re-verification + "
        "annealer initial_states seeding; trades bit-identity with a fresh "
        "solver for repeat-solve speed)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    sampler_params = {}
    if args.num_sweeps is not None:
        sampler_params["num_sweeps"] = args.num_sweeps
    return ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
        queue_limit=args.queue_limit,
        deadline_ms=args.deadline_ms,
        drain_timeout=args.drain_timeout,
        max_request_bytes=args.max_request_bytes,
        idle_timeout=args.idle_timeout,
        num_reads=args.num_reads,
        seed=args.seed,
        sampler_params=sampler_params,
        max_attempts=args.max_attempts,
        penalty_strength=args.penalty,
        cache_size=args.cache_size,
        session_idle_timeout=args.session_idle_timeout,
        max_sessions=args.max_sessions,
        session_warm_start=args.session_warm,
        strategy=args.strategy,
        refine_max_rounds=args.refine_max_rounds,
        opt_max_restarts=args.opt_max_restarts,
        opt_exhaustive_bits=args.opt_exhaustive_bits,
    )


async def _run(config: ServerConfig) -> None:
    server = SolverServer(config)
    await server.start()
    await serve_until_signalled(
        server,
        f"[repro.server] serving on {server.host}:{server.port} "
        f"(workers={config.workers}, backend={config.backend}, "
        f"queue_limit={config.queue_limit}, "
        f"deadline_ms={config.deadline_ms:g})",
    )
    print("[repro.server] drained and stopped", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        asyncio.run(_run(config))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
