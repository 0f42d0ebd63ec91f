"""Minimal asyncio HTTP/1.1 framing, and the service skeleton on top of it.

The server speaks just enough HTTP for curl, load balancers and the
bundled clients: request-line + headers + ``Content-Length`` bodies,
keep-alive by default for HTTP/1.1 (``Connection: close`` honoured),
default-close for HTTP/1.0 (``Connection: keep-alive`` honoured). No
external dependencies — everything rides on :mod:`asyncio` streams.

Size enforcement happens **at the socket layer**: the header block is read
through a bounded ``readuntil`` and the body is only read after its
declared ``Content-Length`` has been checked against the configured
maximum, so an oversized payload is rejected with a typed ``too_large``
response *before* its bytes are buffered. Requests without a length
declaration are read through a hard cap and rejected the moment they
exceed it.

Both serving tiers — :class:`~repro.server.app.SolverServer` and
:class:`~repro.server.router.ShardRouter` — are :class:`HttpService`
subclasses: this module owns the bind, the lifecycle state machine, the
keep-alive connection loop, framing rejections, the route table, the
drain order and the daemon-thread runner (:class:`BackgroundService`);
the subclasses own only their endpoints. :func:`round_trip` is the one
client-side request used by the router, the fleet supervisor and
:class:`~repro.server.client.AsyncSolverClient`.
"""

from __future__ import annotations

import asyncio
import enum
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_CANCELLED,
    ERROR_INTERNAL,
    ERROR_TOO_LARGE,
    ResponseEnvelope,
    error_envelope,
)

__all__ = [
    "BackgroundService",
    "ConnectFailed",
    "HttpRequest",
    "HttpService",
    "ProtocolError",
    "RequestFailed",
    "RequestTooLarge",
    "ServerState",
    "read_request",
    "read_response",
    "render_request",
    "render_response",
    "round_trip",
    "serve_until_signalled",
]

#: Upper bound on the request line + header block, independent of the body.
MAX_HEADER_BYTES = 16384

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ValueError):
    """Malformed HTTP framing (bad request line, bad Content-Length, ...)."""


class RequestTooLarge(ValueError):
    """The request exceeded the configured maximum size."""

    def __init__(self, declared: Optional[int], limit: int) -> None:
        what = (
            f"declared Content-Length {declared}"
            if declared is not None
            else "request body"
        )
        super().__init__(f"{what} exceeds the {limit}-byte request limit")
        self.declared = declared
        self.limit = limit


@dataclass
class HttpRequest:
    """One parsed request: method, target path, lowercased headers, body."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def path(self) -> str:
        """The target without its query string."""
        return self.target.split("?", 1)[0]

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "")

    @property
    def keep_alive(self) -> bool:
        """Connection persistence per the request's HTTP version.

        HTTP/1.1 defaults to keep-alive unless ``Connection: close`` is
        sent; HTTP/1.0 defaults to *close* unless the client explicitly
        opts in with ``Connection: keep-alive``.
        """
        token = self.headers.get("connection", "").lower()
        if self.version.upper() == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The request/response head up to the blank line; None on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise ProtocolError("connection closed mid-header") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(
            f"header block exceeds {MAX_HEADER_BYTES} bytes"
        ) from None
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header block exceeds {MAX_HEADER_BYTES} bytes")
    return head


def _parse_headers(lines: list) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for raw in lines:
        if not raw:
            continue
        name, sep, value = raw.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def _content_length(headers: Mapping[str, str]) -> Optional[int]:
    raw = headers.get("content-length")
    if raw is None:
        return None
    try:
        length = int(raw)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {raw!r}") from None
    if length < 0:
        raise ProtocolError(f"negative Content-Length {length}")
    return length


async def read_request(
    reader: asyncio.StreamReader, max_request_bytes: int
) -> Optional[HttpRequest]:
    """Read one request; ``None`` on clean EOF.

    Raises :class:`RequestTooLarge` before buffering an oversized body and
    :class:`ProtocolError` on malformed framing.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers = _parse_headers(lines[1:])
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked transfer encoding is not supported")

    declared = _content_length(headers)
    if declared is not None:
        # Socket-layer gate: check the declaration *before* reading bytes.
        if declared > max_request_bytes:
            raise RequestTooLarge(declared, max_request_bytes)
        body = await reader.readexactly(declared) if declared else b""
    elif method in ("POST", "PUT"):
        # No declared length (HTTP/1.0-style close-delimited body): read up
        # to the cap plus one sentinel byte, rejecting the moment the limit
        # is crossed instead of buffering an unbounded stream.
        chunks = []
        received = 0
        while received <= max_request_bytes:
            chunk = await reader.read(max_request_bytes + 1 - received)
            if not chunk:
                break
            chunks.append(chunk)
            received += len(chunk)
        if received > max_request_bytes:
            raise RequestTooLarge(None, max_request_bytes)
        body = b"".join(chunks)
    else:
        body = b""
    return HttpRequest(
        method=method, target=target, headers=headers, body=body, version=version
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    close: bool = False,
) -> bytes:
    """Serialize one HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def render_request(
    method: str,
    path: str,
    body: bytes = b"",
    *,
    host: str = "localhost",
    content_type: str = "text/plain",
    close: bool = False,
) -> bytes:
    """Serialize one client-side HTTP/1.1 request."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Client side: read one response → ``(status, headers, body)``."""
    head = await _read_head(reader)
    if head is None:
        raise ProtocolError("connection closed before a response arrived")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"malformed status line {lines[0]!r}")
    status = int(parts[1])
    headers = _parse_headers(lines[1:])
    length = _content_length(headers)
    if length is None:
        body = await reader.read()
    else:
        body = await reader.readexactly(length) if length else b""
    return status, headers, body


# --------------------------------------------------------------------- #
# client side: one round trip
# --------------------------------------------------------------------- #


class ConnectFailed(ConnectionError):
    """The connect failed or timed out: the request was never sent."""


class RequestFailed(ConnectionError):
    """The connect succeeded but the round trip did not complete.

    The peer may have received — and may be acting on — the request, so
    a caller must not resend it elsewhere (the router's fail-over rule).
    """


async def round_trip(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    *,
    content_type: str = "text/plain",
    connect_timeout: float,
    timeout: float,
) -> Tuple[int, bytes]:
    """One ``Connection: close`` request → ``(status, body)``.

    Raises :class:`ConnectFailed` when the connection cannot be opened
    within *connect_timeout* and :class:`RequestFailed` when anything
    after the connect fails, including a reply slower than *timeout*.
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=connect_timeout
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise ConnectFailed(f"{type(exc).__name__}: {exc}") from exc
    try:
        writer.write(
            render_request(
                method,
                path,
                body,
                host=f"{host}:{port}",
                content_type=content_type,
                close=True,
            )
        )
        await writer.drain()
        status, _headers, payload = await asyncio.wait_for(
            read_response(reader), timeout=timeout
        )
        return status, payload
    except (
        OSError,
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        ValueError,  # ProtocolError, or an unparseable status code
    ) as exc:
        raise RequestFailed(f"{type(exc).__name__}: {exc}") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):  # pragma: no cover
            pass


# --------------------------------------------------------------------- #
# server side: the service skeleton
# --------------------------------------------------------------------- #


class ServerState(str, enum.Enum):
    """Where a service is in its lifecycle."""

    CREATED = "created"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"

    __str__ = str.__str__


#: One endpoint's answer: ``(JSON body, HTTP status)``.
Reply = Tuple[bytes, int]

#: The ``/session/<op>`` operations both tiers route.
SESSION_OPS = ("open", "assert", "push", "pop", "check", "close")


def envelope_reply(envelope: ResponseEnvelope) -> Reply:
    return envelope.to_json().encode("utf-8"), envelope.http_status


def json_reply(payload: Mapping[str, Any], status: int = 200) -> Reply:
    return json.dumps(payload, sort_keys=True).encode("utf-8"), status


#: Most unread body bytes discarded after a ``too_large`` rejection.
MAX_DISCARD_BYTES = 1 << 24


async def _discard(
    reader: asyncio.StreamReader, limit: int, budget: float = 0.25
) -> None:
    """Best-effort drain of up to *limit* unread request bytes, bounded by
    *budget* seconds."""
    loop = asyncio.get_running_loop()
    end = loop.time() + budget
    remaining = limit
    try:
        while remaining > 0:
            timeout = end - loop.time()
            if timeout <= 0:
                return
            chunk = await asyncio.wait_for(
                reader.read(min(1 << 16, remaining)), timeout=timeout
            )
            if not chunk:
                return
            remaining -= len(chunk)
    except (asyncio.TimeoutError, ConnectionError):
        return


class HttpService:
    """One asyncio HTTP/1.1 service: lifecycle, connections, routing.

    Lifecycle (see DESIGN.md Appendix E)::

        CREATED ──start()──▶ SERVING ──shutdown()──▶ DRAINING ──▶ STOPPED

    Subclasses set :attr:`tier` (the counter and log prefix) and
    ``self.metrics``, and implement ``_healthz``, ``_metrics_endpoint``,
    ``_route`` (``/solve`` with ``op=None``, or ``/session/<op>``) and the
    drain hooks ``_drain`` and ``_close``. ``config`` needs ``host``,
    ``port``, ``idle_timeout``, ``max_request_bytes`` and ``drain_timeout``.
    """

    tier = "server"
    #: Error type and message prefix of the last-resort exception boundary.
    crash_type = ERROR_INTERNAL
    crash_prefix = ""

    def __init__(self, config: Any) -> None:
        self.config = config
        self.state = ServerState.CREATED
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        #: Connection tasks currently *inside* a request (parse → dispatch →
        #: response write). Everything in ``_connections`` but not here is
        #: idle in a keep-alive read and safe to cancel at any time.
        self._active_requests: Set[asyncio.Task] = set()
        self._stopped = asyncio.Event()
        self._started_at = 0.0

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.config.port

    @property
    def uptime(self) -> float:
        if not self._started_at:
            return 0.0
        return time.monotonic() - self._started_at

    async def start(self) -> None:
        """Bind the listener and transition to SERVING."""
        if self.state is not ServerState.CREATED:
            raise RuntimeError(f"cannot start from state {self.state}")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._started_at = time.monotonic()
        self.state = ServerState.SERVING

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain, in one order for every tier.

        1. transition to DRAINING and close the listening socket;
        2. the subclass drain (:meth:`_drain`): stop admitting, wait for
           in-flight work up to ``drain_timeout``;
        3. cancel idle keep-alive connections (they are between requests;
           cancelling loses nothing);
        4. if the drain finished, give connections still flushing a final
           response a short grace period;
        5. cancel whatever remains — mid-request connections answer a
           typed ``cancelled`` envelope — then :meth:`_close`, STOPPED.
        """
        if self.state in (ServerState.DRAINING, ServerState.STOPPED):
            await self._stopped.wait()
            return
        self.state = ServerState.DRAINING
        if self._server is not None:
            # No ``await wait_closed()`` here: on Python 3.12+ it blocks
            # until every client *transport* closes, which would stall the
            # drain indefinitely while any keep-alive connection is open.
            self._server.close()
        drained = await self._drain()
        for task in list(self._connections):
            if task not in self._active_requests:
                task.cancel()
        if drained and self._active_requests:
            await asyncio.wait(
                list(self._active_requests),
                timeout=min(1.0, self.config.drain_timeout or 1.0),
            )
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            # Bounded: shutdown must never hang on a connection that
            # refuses to unwind.
            await asyncio.wait(list(self._connections), timeout=5.0)
        self._close()
        self.state = ServerState.STOPPED
        self._stopped.set()

    async def _drain(self) -> bool:
        """Stop admitting and wait for in-flight work; True when it finished."""
        return True

    def _close(self) -> None:
        """Release tier resources once every connection has unwound."""

    # -------------------------------------------------------------- #
    # connections
    # -------------------------------------------------------------- #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer, task)
        except (asyncio.CancelledError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(task)
            self._active_requests.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        task: asyncio.Task,
    ) -> None:
        while True:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, self.config.max_request_bytes),
                    timeout=self.config.idle_timeout,
                )
            except asyncio.TimeoutError:
                # A silent client must not pin a connection task (and with
                # it, graceful shutdown) forever.
                return
            except (RequestTooLarge, ProtocolError) as exc:
                too_large = isinstance(exc, RequestTooLarge)
                error_type = ERROR_TOO_LARGE if too_large else ERROR_BAD_REQUEST
                # Counted as a submitted-and-rejected request: the
                # accounting identity covers every request the socket saw.
                self.metrics.counter(f"{self.tier}.requests").inc()
                self.metrics.counter(f"{self.tier}.rejected.{error_type}").inc()
                body, status = envelope_reply(error_envelope(error_type, str(exc)))
                writer.write(render_response(status, body, close=True))
                await writer.drain()
                if too_large:
                    # Discard the unread body (bounded in bytes and time):
                    # closing a socket with unread bytes sends a reset, and
                    # a client still writing its body would see that reset
                    # instead of the envelope.
                    declared = exc.declared or 1 << 16
                    await _discard(reader, min(declared, MAX_DISCARD_BYTES))
                return
            if request is None:
                return  # clean EOF
            keep_alive = request.keep_alive
            # Busy: shutdown only force-cancels connections between
            # requests; in-request ones get the drain grace first.
            self._active_requests.add(task)
            try:
                try:
                    body, status = await self._dispatch(request)
                except asyncio.CancelledError:
                    # Shutdown hit mid-request after the drain timeout:
                    # best-effort typed envelope, then unwind.
                    body, status = envelope_reply(
                        error_envelope(
                            ERROR_CANCELLED,
                            f"solve cancelled by {self.tier} shutdown",
                        )
                    )
                    writer.write(render_response(status, body, close=True))
                    raise
                except Exception as exc:  # noqa: BLE001 — last-resort boundary
                    body, status = envelope_reply(
                        error_envelope(
                            self.crash_type,
                            f"{self.crash_prefix}{type(exc).__name__}: {exc}",
                        )
                    )
                writer.write(render_response(status, body, close=not keep_alive))
                await writer.drain()
            finally:
                self._active_requests.discard(task)
            if not keep_alive:
                return

    async def _dispatch(self, request: HttpRequest) -> Reply:
        path, method = request.path, request.method
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/metrics":
            return await self._metrics_endpoint()
        op = path[len("/session/"):] if path.startswith("/session/") else None
        if path == "/solve" or op in SESSION_OPS:
            if method != "POST":
                envelope = error_envelope(
                    ERROR_BAD_REQUEST, f"{path} requires POST, got {method}"
                )
                return envelope_reply(envelope)[0], 405
            return await self._route(request, op)
        return json_reply(
            {"error": {"type": "not_found", "message": f"no route for {path}"}}, 404
        )


# --------------------------------------------------------------------- #
# running a service: daemon thread (tests, benchmarks) or CLI
# --------------------------------------------------------------------- #


class BackgroundService:
    """Run an :class:`HttpService` on a daemon thread with its own loop.

    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    """

    def __init__(
        self, config: Any, factory: Callable[[], HttpService], name: str
    ) -> None:
        self.config = config
        self.service: Optional[HttpService] = None
        self._factory = factory
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._port: Optional[int] = None

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError(f"{self._name} not started")
        return self._port

    @property
    def metrics(self) -> Any:
        if self.service is None:
            raise RuntimeError(f"{self._name} not started")
        return self.service.metrics

    def start(self) -> Any:
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self._name}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError(f"{self._name} failed to start within 30 s")
        if self._startup_error is not None:
            raise RuntimeError(f"{self._name} failed to start") from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self.service is None:
            return
        if not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self._loop
            )
            try:
                future.result(timeout=timeout)
            except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced via start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.service = self._factory()
        self._loop = asyncio.get_running_loop()
        await self.service.start()
        self._port = self.service.port
        self._ready.set()
        await self.service.serve_forever()


async def serve_until_signalled(service: HttpService, banner: str) -> None:
    """Print *banner*, serve until SIGTERM/SIGINT, then drain gracefully."""
    tag = f"[repro.{service.tier}]"
    loop = asyncio.get_running_loop()

    def request_shutdown(signame: str) -> None:
        print(f"{tag} {signame} received — draining...", flush=True)
        asyncio.ensure_future(service.shutdown())

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, request_shutdown, sig.name)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    print(banner, flush=True)
    await service.serve_forever()
