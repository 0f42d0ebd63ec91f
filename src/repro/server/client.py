"""Client library for the solving server (blocking and asyncio flavours).

:class:`SolverClient` is the synchronous client — one persistent
``http.client`` connection, automatic reconnect, context-manager support —
what scripts, the CI smoke job and most tests use.
:class:`AsyncSolverClient` issues requests over asyncio streams and is the
building block of the load generator's concurrent bursts.

Both return the same :class:`SolveReply`: the parsed response envelope
plus the HTTP status. Transport-level failures raise
:class:`ServerConnectionError`; *protocol-level* failures (parse errors,
overload, timeouts) come back as ``ok=False`` envelopes — they are data,
not exceptions, because a load test must count them.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.server import httpio
from repro.server.protocol import ErrorInfo, ResponseEnvelope

__all__ = [
    "AsyncSolverClient",
    "ServerConnectionError",
    "SolveReply",
    "SolverClient",
]


class ServerConnectionError(ConnectionError):
    """The server could not be reached or the transport failed mid-request."""


#: Failures that mean a *kept-alive* connection was closed by the server
#: between requests (its ``--idle-timeout`` fired while the client sat
#: idle). They surface on the next use of the stale socket — as a clean
#: remote hang-up before any response bytes (``RemoteDisconnected``), a
#: reset, or a broken pipe on send. Retrying on a fresh connection is safe
#: *only* in this situation, because the request provably never reached a
#: server that answered: the reply, had one been produced, would have
#: arrived on the now-dead socket. Deliberately excluded: ``socket.timeout``
#: and ``IncompleteRead`` — with those the server may be mid-solve, and a
#: resubmission would double-execute the request.
_IDLE_CLOSE_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


@dataclass
class SolveReply:
    """One ``/solve`` answer: envelope fields + transport status."""

    http_status: int
    envelope: ResponseEnvelope

    # convenience projections --------------------------------------- #

    @property
    def ok(self) -> bool:
        return self.envelope.ok

    @property
    def status(self) -> str:
        return self.envelope.status

    @property
    def model(self) -> Dict[str, str]:
        return dict(self.envelope.model)

    @property
    def error(self) -> Optional[ErrorInfo]:
        return self.envelope.error

    @property
    def error_type(self) -> Optional[str]:
        return self.envelope.error.type if self.envelope.error else None

    @property
    def cache_hit(self) -> bool:
        return self.envelope.cache_hit

    def __repr__(self) -> str:
        if self.ok:
            return f"SolveReply(status={self.status!r}, model={self.model!r})"
        return f"SolveReply(error={self.error_type!r}, http={self.http_status})"


def _solve_body(
    script: str,
    deadline_ms: Optional[float],
    request_id: Optional[str],
) -> Tuple[bytes, str]:
    """The request body and content type for one solve call."""
    if deadline_ms is None and request_id is None:
        return script.encode("utf-8"), "text/plain; charset=utf-8"
    payload: Dict[str, Any] = {"script": script}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    if request_id is not None:
        payload["id"] = request_id
    return json.dumps(payload).encode("utf-8"), "application/json"


def _parse_reply(status: int, body: bytes) -> SolveReply:
    try:
        envelope = ResponseEnvelope.from_json(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServerConnectionError(
            f"malformed envelope (HTTP {status}): {body[:120]!r} ({exc})"
        ) from None
    return SolveReply(http_status=status, envelope=envelope)


# --------------------------------------------------------------------- #
# blocking client
# --------------------------------------------------------------------- #


class SolverClient:
    """Blocking client over one keep-alive HTTP connection.

    Examples
    --------
    >>> with SolverClient("127.0.0.1", 8037) as client:   # doctest: +SKIP
    ...     reply = client.solve('(declare-const x String)'
    ...                          '(assert (= x "hi"))(check-sat)')
    ...     reply.status, reply.model
    ('sat', {'x': 'hi'})
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -------------------------------------------------------------- #
    # transport
    # -------------------------------------------------------------- #

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _roundtrip(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        conn.request(method, path, body=body or None, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        if response.will_close:
            self.close()
        return response.status, payload

    def _request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        content_type: str = "text/plain",
    ) -> Tuple[int, bytes]:
        headers = {"Content-Type": content_type, "Content-Length": str(len(body))}
        # A surviving self._conn means a previous round trip completed on
        # it — the precondition for the idle-close reconnect below.
        reused = self._conn is not None
        conn = self._connection()
        try:
            return self._roundtrip(conn, method, path, body, headers)
        except _IDLE_CLOSE_ERRORS as exc:
            self.close()
            if not reused:
                # A fresh connection hanging up is a real transport error,
                # not an idle-timeout race — never retry it.
                raise ServerConnectionError(
                    f"{method} {path} to {self.host}:{self.port} failed: {exc}"
                ) from exc
            # The server idle-closed the keep-alive socket between requests
            # (or the reply could only have gone to the dead socket): one
            # reconnect on a fresh connection, no further retries.
            conn = self._connection()
            try:
                return self._roundtrip(conn, method, path, body, headers)
            except (http.client.HTTPException, OSError) as retry_exc:
                self.close()
                raise ServerConnectionError(
                    f"{method} {path} to {self.host}:{self.port} failed after "
                    f"idle-close reconnect: {retry_exc}"
                ) from retry_exc
        except (http.client.HTTPException, OSError) as exc:
            # Mid-request failures (timeout, truncated response, ...): the
            # server may be mid-solve — resubmitting could double-execute.
            self.close()
            raise ServerConnectionError(
                f"{method} {path} to {self.host}:{self.port} failed: {exc}"
            ) from exc

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._conn = None

    def __enter__(self) -> "SolverClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -------------------------------------------------------------- #
    # endpoints
    # -------------------------------------------------------------- #

    def solve(
        self,
        script: str,
        *,
        deadline_ms: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> SolveReply:
        """Submit one SMT-LIB script; returns the parsed envelope."""
        body, content_type = _solve_body(script, deadline_ms, request_id)
        status, payload = self._request("POST", "/solve", body, content_type)
        return _parse_reply(status, payload)

    def healthz(self) -> Dict[str, Any]:
        """The health payload; raises when it is not valid JSON."""
        status, payload = self._request("GET", "/healthz")
        health = json.loads(payload.decode("utf-8"))
        health["http_status"] = status
        return health

    def metrics(self) -> Dict[str, Any]:
        """The deterministic-keyed metrics export as a dict."""
        _status, payload = self._request("GET", "/metrics")
        return json.loads(payload.decode("utf-8"))

    def metrics_text(self) -> str:
        """The raw ``/metrics`` body (for key-ordering regression tests)."""
        _status, payload = self._request("GET", "/metrics")
        return payload.decode("utf-8")

    # -------------------------------------------------------------- #
    # sticky sessions (/session/*)
    # -------------------------------------------------------------- #

    def _session_request(
        self, op: str, payload: Dict[str, Any]
    ) -> SolveReply:
        body = json.dumps(
            {k: v for k, v in payload.items() if v is not None}
        ).encode("utf-8")
        status, reply = self._request(
            "POST", f"/session/{op}", body, "application/json"
        )
        return _parse_reply(status, reply)

    def session_open(self, *, session_id: Optional[str] = None) -> SolveReply:
        """Open a sticky session; the reply's ``id`` is the session id."""
        return self._session_request("open", {"session": session_id})

    def session_assert(self, session_id: str, script: str) -> SolveReply:
        """Add declare-const/assert commands to the session's top frame."""
        return self._session_request(
            "assert", {"session": session_id, "script": script}
        )

    def session_push(self, session_id: str, levels: int = 1) -> SolveReply:
        return self._session_request(
            "push", {"session": session_id, "levels": levels}
        )

    def session_pop(self, session_id: str, levels: int = 1) -> SolveReply:
        return self._session_request(
            "pop", {"session": session_id, "levels": levels}
        )

    def session_check(
        self, session_id: str, *, deadline_ms: Optional[float] = None
    ) -> SolveReply:
        """Check-sat the session's flattened frame stack."""
        return self._session_request(
            "check", {"session": session_id, "deadline_ms": deadline_ms}
        )

    def session_close(self, session_id: str) -> SolveReply:
        return self._session_request("close", {"session": session_id})


# --------------------------------------------------------------------- #
# asyncio client
# --------------------------------------------------------------------- #


@dataclass
class AsyncSolverClient:
    """Asyncio client: one connection per request, safe to fan out.

    Examples
    --------
    >>> async def burst(client, scripts):            # doctest: +SKIP
    ...     return await asyncio.gather(*(client.solve(s) for s in scripts))
    """

    host: str
    port: int
    timeout: float = 60.0

    async def _request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        content_type: str = "text/plain",
    ) -> Tuple[int, bytes]:
        try:
            return await httpio.round_trip(
                self.host,
                self.port,
                method,
                path,
                body,
                content_type=content_type,
                connect_timeout=self.timeout,
                timeout=self.timeout,
            )
        except httpio.ConnectFailed as exc:
            raise ServerConnectionError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        except httpio.RequestFailed as exc:
            raise ServerConnectionError(
                f"{method} {path} to {self.host}:{self.port} failed: {exc}"
            ) from exc

    async def solve(
        self,
        script: str,
        *,
        deadline_ms: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> SolveReply:
        body, content_type = _solve_body(script, deadline_ms, request_id)
        status, payload = await self._request("POST", "/solve", body, content_type)
        return _parse_reply(status, payload)

    async def healthz(self) -> Dict[str, Any]:
        status, payload = await self._request("GET", "/healthz")
        health = json.loads(payload.decode("utf-8"))
        health["http_status"] = status
        return health

    async def metrics(self) -> Dict[str, Any]:
        _status, payload = await self._request("GET", "/metrics")
        return json.loads(payload.decode("utf-8"))
