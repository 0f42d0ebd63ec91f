"""The wire protocol of the solving server: envelopes and error taxonomy.

Every ``/solve`` answer — success or failure — is one JSON **response
envelope** with a fixed, deterministically-ordered key set, so clients,
the load generator and the CI smoke job can all consume one schema:

.. code-block:: json

    {
      "cache_hit": false,
      "error": null,
      "id": "req-1",
      "lower_bound": null,
      "model": {"x": "hi"},
      "objective": null,
      "ok": true,
      "opt_status": "",
      "queue_ms": 0.21,
      "reason": "",
      "solve_ms": 31.7,
      "status": "sat",
      "upper_bound": null
    }

Scripts carrying ``assert-soft`` commands are optimized rather than
decided: ``status`` stays on the sat/unsat/unknown axis (feasible results
are ``sat``), while ``opt_status`` carries the refinement
(``optimal``/``feasible``/``infeasible``/``unknown``) and ``objective`` /
``lower_bound`` / ``upper_bound`` report the violated-soft-weight
objective and its anytime bracket. Plain solves leave all four at their
null defaults.

Failures set ``ok: false`` and carry a typed ``error`` object instead of a
model. The error taxonomy (one stable string per failure class) is the
server's contract with its operators:

=============== ===== ==========================================================
type            HTTP  meaning
=============== ===== ==========================================================
``parse``       400   malformed SMT-LIB input (with line/column context)
``bad_request`` 400   malformed request framing (bad JSON body, missing script)
``too_large``   413   request exceeded ``--max-request-bytes`` at the socket
``overloaded``  429   admission queue full — back off and retry
``timeout``     504   per-request deadline exceeded (queued or mid-solve)
``draining``    503   server is shutting down, not accepting new work
``cancelled``   503   solve cancelled by shutdown after the drain timeout
``internal``    500   unexpected server-side failure
``upstream``    502   router tier: no shard reachable / shard died mid-request
=============== ===== ==========================================================

Parse failures are *located*: :func:`locate_parse_error` maps the
tokenizer / parser exception back to a best-effort 1-based line/column in
the submitted script plus the offending source line, so a client sees
``parse error at 2:14: unterminated string literal`` instead of a bare
exception repr.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
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
    "ResponseEnvelope",
    "SessionRequest",
    "SolveRequest",
    "error_envelope",
    "http_status_for",
    "locate_parse_error",
    "offset_to_line_col",
]


ERROR_PARSE = "parse"
ERROR_BAD_REQUEST = "bad_request"
ERROR_TOO_LARGE = "too_large"
ERROR_OVERLOADED = "overloaded"
ERROR_TIMEOUT = "timeout"
ERROR_DRAINING = "draining"
ERROR_CANCELLED = "cancelled"
ERROR_INTERNAL = "internal"
#: Router-tier failure: the shard a request hashed to (and every fail-over
#: candidate) could not be reached, or died mid-request. Emitted only by
#: repro.server.router — a single SolverServer never produces it.
ERROR_UPSTREAM = "upstream"

#: error type → HTTP status code (the envelope is the source of truth; the
#: HTTP code is a transport-level convenience for curl / load balancers).
_HTTP_STATUS: Dict[str, int] = {
    ERROR_PARSE: 400,
    ERROR_BAD_REQUEST: 400,
    ERROR_TOO_LARGE: 413,
    ERROR_OVERLOADED: 429,
    ERROR_TIMEOUT: 504,
    ERROR_DRAINING: 503,
    ERROR_CANCELLED: 503,
    ERROR_INTERNAL: 500,
    ERROR_UPSTREAM: 502,
}


def http_status_for(error_type: Optional[str]) -> int:
    """The HTTP status code carrying an envelope with this error type."""
    if error_type is None:
        return 200
    return _HTTP_STATUS.get(error_type, 500)


# --------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------- #


@dataclass
class SolveRequest:
    """One parsed ``/solve`` request body.

    The body is either raw SMT-LIB text (``Content-Type: text/plain`` or
    anything non-JSON) or a JSON object ``{"script": "...",
    "deadline_ms": 500, "id": "req-1"}``. Only ``script`` is required.
    """

    script: str
    deadline_ms: Optional[float] = None
    request_id: Optional[str] = None

    @classmethod
    def from_body(cls, body: bytes, content_type: str = "") -> "SolveRequest":
        """Decode a request body; raises ``ValueError`` on malformed input."""
        text = body.decode("utf-8", errors="replace")
        if "json" not in (content_type or "").lower():
            if not text.strip():
                raise ValueError("empty request body (expected an SMT-LIB script)")
            return cls(script=text)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"JSON request body must be an object, got {type(payload).__name__}"
            )
        script = payload.get("script")
        if not isinstance(script, str) or not script.strip():
            raise ValueError("JSON request body needs a non-empty 'script' string")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                raise ValueError(
                    f"deadline_ms must be a positive number, got {deadline_ms!r}"
                )
            deadline_ms = float(deadline_ms)
        request_id = payload.get("id")
        if request_id is not None and not isinstance(request_id, str):
            raise ValueError(f"request id must be a string, got {request_id!r}")
        return cls(script=script, deadline_ms=deadline_ms, request_id=request_id)


@dataclass
class SessionRequest:
    """One parsed ``/session/*`` request body (always JSON).

    All fields are optional at the wire level — which ones an operation
    requires is the endpoint's decision (``open`` needs nothing, every
    other op needs ``session``; ``assert`` needs ``script``; ``push`` /
    ``pop`` read ``levels``). An empty body is a valid ``open``.
    """

    session_id: Optional[str] = None
    script: str = ""
    levels: int = 1
    deadline_ms: Optional[float] = None
    request_id: Optional[str] = None

    #: Sanity cap on push/pop levels per request (a frame costs memory).
    MAX_LEVELS = 1024

    @classmethod
    def from_body(cls, body: bytes, content_type: str = "") -> "SessionRequest":
        """Decode a session request body; ``ValueError`` on malformed input."""
        text = body.decode("utf-8", errors="replace")
        if not text.strip():
            return cls()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"JSON request body must be an object, got {type(payload).__name__}"
            )
        session_id = payload.get("session")
        if session_id is not None and not isinstance(session_id, str):
            raise ValueError(f"session must be a string, got {session_id!r}")
        script = payload.get("script", "")
        if not isinstance(script, str):
            raise ValueError(f"script must be a string, got {script!r}")
        levels = payload.get("levels", 1)
        if (
            isinstance(levels, bool)
            or not isinstance(levels, int)
            or not (0 <= levels <= cls.MAX_LEVELS)
        ):
            raise ValueError(
                f"levels must be an integer in [0, {cls.MAX_LEVELS}], got {levels!r}"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                raise ValueError(
                    f"deadline_ms must be a positive number, got {deadline_ms!r}"
                )
            deadline_ms = float(deadline_ms)
        request_id = payload.get("id")
        if request_id is not None and not isinstance(request_id, str):
            raise ValueError(f"request id must be a string, got {request_id!r}")
        return cls(
            session_id=session_id,
            script=script,
            levels=levels,
            deadline_ms=deadline_ms,
            request_id=request_id,
        )


# --------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------- #


@dataclass
class ErrorInfo:
    """A typed error with optional source location (for ``parse``)."""

    type: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None
    context: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorInfo":
        return cls(
            type=str(payload.get("type", ERROR_INTERNAL)),
            message=str(payload.get("message", "")),
            line=payload.get("line"),
            column=payload.get("column"),
            context=payload.get("context"),
        )


@dataclass
class ResponseEnvelope:
    """One ``/solve`` answer; serialized with recursively sorted keys."""

    ok: bool
    status: str = ""
    model: Dict[str, str] = field(default_factory=dict)
    reason: str = ""
    cache_hit: bool = False
    queue_ms: float = 0.0
    solve_ms: float = 0.0
    request_id: Optional[str] = None
    error: Optional[ErrorInfo] = None
    #: Optimization-mode fields (scripts with ``assert-soft``); plain
    #: solves keep the null defaults.
    opt_status: str = ""
    objective: Optional[float] = None
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None

    # -------------------------------------------------------------- #
    # constructors
    # -------------------------------------------------------------- #

    @classmethod
    def success(
        cls,
        status: str,
        model: Optional[Mapping[str, str]] = None,
        *,
        reason: str = "",
        cache_hit: bool = False,
        queue_ms: float = 0.0,
        solve_ms: float = 0.0,
        request_id: Optional[str] = None,
        opt_status: str = "",
        objective: Optional[float] = None,
        lower_bound: Optional[float] = None,
        upper_bound: Optional[float] = None,
    ) -> "ResponseEnvelope":
        return cls(
            ok=True,
            status=str(status),
            model=dict(model or {}),
            reason=reason,
            cache_hit=cache_hit,
            queue_ms=queue_ms,
            solve_ms=solve_ms,
            request_id=request_id,
            opt_status=str(opt_status),
            objective=objective,
            lower_bound=lower_bound,
            upper_bound=upper_bound,
        )

    @classmethod
    def failure(
        cls,
        error: ErrorInfo,
        *,
        status: str = "",
        queue_ms: float = 0.0,
        solve_ms: float = 0.0,
        request_id: Optional[str] = None,
    ) -> "ResponseEnvelope":
        return cls(
            ok=False,
            status=status,
            queue_ms=queue_ms,
            solve_ms=solve_ms,
            request_id=request_id,
            error=error,
        )

    # -------------------------------------------------------------- #
    # (de)serialization
    # -------------------------------------------------------------- #

    @property
    def http_status(self) -> int:
        return http_status_for(self.error.type if self.error else None)

    def to_dict(self) -> Dict[str, Any]:
        def bound(value: Optional[float]) -> Optional[float]:
            # JSON has no Infinity; an unbounded bracket side is null.
            if value is None or not math.isfinite(value):
                return None
            return float(value)

        return {
            "cache_hit": self.cache_hit,
            "error": self.error.to_dict() if self.error else None,
            "id": self.request_id,
            "lower_bound": bound(self.lower_bound),
            "model": dict(self.model),
            "objective": bound(self.objective),
            "ok": self.ok,
            "opt_status": self.opt_status,
            "queue_ms": round(float(self.queue_ms), 3),
            "reason": self.reason,
            "solve_ms": round(float(self.solve_ms), 3),
            "status": self.status,
            "upper_bound": bound(self.upper_bound),
        }

    def to_json(self) -> str:
        """Deterministic serialization: recursively sorted keys, no spaces."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ResponseEnvelope":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"envelope must be a JSON object, got {text[:80]!r}")
        error = payload.get("error")

        def bound(value: Any) -> Optional[float]:
            return None if value is None else float(value)

        return cls(
            ok=bool(payload.get("ok", False)),
            status=str(payload.get("status", "")),
            model=dict(payload.get("model") or {}),
            reason=str(payload.get("reason", "")),
            cache_hit=bool(payload.get("cache_hit", False)),
            queue_ms=float(payload.get("queue_ms", 0.0)),
            solve_ms=float(payload.get("solve_ms", 0.0)),
            request_id=payload.get("id"),
            error=ErrorInfo.from_dict(error) if error else None,
            opt_status=str(payload.get("opt_status", "") or ""),
            objective=bound(payload.get("objective")),
            lower_bound=bound(payload.get("lower_bound")),
            upper_bound=bound(payload.get("upper_bound")),
        )


def error_envelope(error_type: str, message: str, **kwargs: Any) -> ResponseEnvelope:
    """A failure envelope with an unlocated error of *error_type*."""
    return ResponseEnvelope.failure(
        ErrorInfo(type=error_type, message=message), **kwargs
    )


# --------------------------------------------------------------------- #
# parse-error location
# --------------------------------------------------------------------- #


def offset_to_line_col(text: str, offset: int) -> Tuple[int, int]:
    """Map a character *offset* into 1-based ``(line, column)``."""
    offset = max(0, min(offset, len(text)))
    prefix = text[:offset]
    line = prefix.count("\n") + 1
    column = offset - (prefix.rfind("\n") + 1) + 1
    return line, column


def _source_line(text: str, line: int) -> str:
    lines = text.splitlines()
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""


def _scan_parens(text: str) -> Tuple[list, Optional[int]]:
    """Paren balance scan mirroring the tokenizer's string/comment rules.

    Returns ``(unclosed_open_offsets, first_extra_close_offset)``.
    """
    opens: list = []
    extra_close: Optional[int] = None
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c == '"':
            i += 1
            while i < n:
                if text[i] == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        i += 2
                        continue
                    break
                i += 1
            i += 1
        elif c == "(":
            opens.append(i)
            i += 1
        elif c == ")":
            if opens:
                opens.pop()
            elif extra_close is None:
                extra_close = i
            i += 1
        else:
            i += 1
    return opens, extra_close


_OFFSET_RE = re.compile(r"offset (\d+)")
_QUOTED_RE = re.compile(r"'([^']+)'")


def locate_parse_error(text: str, exc: BaseException) -> ErrorInfo:
    """Best-effort source location of a tokenizer/parser exception.

    Strategies, in order: an explicit ``offset N`` in the exception message
    (unterminated string literals), a paren-balance scan for unbalanced
    ``(`` / ``)`` reports, and the first occurrence of a single-quoted
    fragment from the message (undeclared symbols, unsupported operators).
    Falls back to line 1, column 1 — the location is advisory, the message
    is authoritative.
    """
    message = str(exc)
    offset: Optional[int] = getattr(exc, "offset", None)

    if offset is None:
        match = _OFFSET_RE.search(message)
        if match:
            offset = int(match.group(1))

    if offset is None and "unbalanced" in message:
        opens, extra_close = _scan_parens(text)
        if "')'" in message and extra_close is not None:
            offset = extra_close
        elif opens:
            offset = opens[0]

    if offset is None:
        match = _QUOTED_RE.search(message)
        if match:
            fragment = match.group(1)
            found = text.find(fragment)
            if found >= 0:
                offset = found

    line, column = offset_to_line_col(text, offset if offset is not None else 0)
    return ErrorInfo(
        type=ERROR_PARSE,
        message=message,
        line=line,
        column=column,
        context=_source_line(text, line),
    )
