"""The wire format: constants, request validation, response shapes.

Everything here is a pure function of its arguments; the protocol
itself is described once, in the package docstring.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..core.errors import AccessDenied

#: Ops the server dispatches; anything else counts as "unknown" in the
#: per-op request metric so adversarial op names cannot mint series.
KNOWN_OPS = (
    "ping",
    "bye",
    "register",
    "query",
    "report",
    "metrics",
    "trace",
    "checkpoint",
    "forensics",
    "health",
)

#: Valid client priority range; higher is more important.
PRIORITY_MIN, PRIORITY_MAX = 0, 9
#: Priority assumed when the client sends none.
PRIORITY_DEFAULT = 5

#: Largest accepted deadline: one day in milliseconds.
DEADLINE_MS_MAX = 86_400_000.0


def encode(payload: Dict) -> bytes:
    """One response (or request) as a JSON line."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def bad_request(message: str) -> Dict:
    return {"ok": False, "error": message, "reason": "bad_request"}


def validate_request(payload: Dict) -> Optional[Dict]:
    """Type/range-check client-supplied fields.

    Returns a structured ``bad_request`` response for invalid input,
    None when the request is well-formed. Bad values are a client bug
    (or a probe), not a handler exception.
    """
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            return bad_request(
                "deadline_ms must be a number of milliseconds, got "
                f"{type(deadline_ms).__name__}"
            )
        if (
            deadline_ms != deadline_ms  # NaN
            or deadline_ms <= 0
            or deadline_ms > DEADLINE_MS_MAX
        ):
            return bad_request(
                f"deadline_ms must be in (0, {DEADLINE_MS_MAX:.0f}], "
                f"got {deadline_ms}"
            )
    priority = payload.get("priority")
    if priority is not None:
        if isinstance(priority, bool) or not isinstance(priority, int):
            return bad_request(
                "priority must be an integer, got "
                f"{type(priority).__name__}"
            )
        if not PRIORITY_MIN <= priority <= PRIORITY_MAX:
            return bad_request(
                f"priority must be in [{PRIORITY_MIN}, "
                f"{PRIORITY_MAX}], got {priority}"
            )
    identity = payload.get("identity")
    if identity is not None and not isinstance(identity, str):
        return bad_request(
            f"identity must be a string, got {type(identity).__name__}"
        )
    if payload.get("op") == "query":
        sql = payload.get("sql")
        if sql is not None and not isinstance(sql, str):
            return bad_request(
                f"sql must be a string, got {type(sql).__name__}"
            )
    return None


def query_response(result) -> Dict:
    """The answer to a served query (a ``GuardedResult``)."""
    return {
        "ok": True,
        "columns": result.result.columns,
        "rows": [list(row) for row in result.result.rows],
        "delay": result.delay,
        "rowcount": result.result.rowcount,
        "cached": result.cached,
    }


def denied_response(denied: AccessDenied) -> Dict:
    return {
        "ok": False,
        "error": str(denied),
        "reason": denied.reason,
        "retry_after": denied.retry_after,
    }


def shed_response(
    reason: str, retry_after: float = 0.0, detail: str = ""
) -> Dict:
    """An overload or shutdown refusal (``overloaded``, ``shutting_down``)."""
    message = {
        "overloaded": "server overloaded",
        "shutting_down": "server shutting down",
    }.get(reason, reason)
    if detail:
        message = f"{message}: {detail}"
    return {
        "ok": False,
        "error": message,
        "reason": reason,
        "retry_after": retry_after,
    }


def too_large_response(limit: int) -> Dict:
    return {
        "ok": False,
        "error": f"request exceeds {limit} bytes",
        "reason": "request_too_large",
    }


def internal_error_response(error: BaseException) -> Dict:
    return {
        "ok": False,
        "error": f"internal server error: {error}",
        "reason": "internal_error",
    }
