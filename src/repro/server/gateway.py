"""A minimal HTTP/JSON front door for the serve daemon.

``POST /v1/check``, ``/v1/verify``, and ``/v1/run`` take the same params
object the ``repro-rpc/1`` frames carry and return the same result dict
as JSON — the gateway is a thin translation layer over
:meth:`~.daemon.Server.handle_request`, so HTTP clients get **identical**
admission semantics to socket clients: the same bounded queue, the same
per-request timeout, the same drain behavior.  One shared budget, two
wire formats.  Defaults match too: a ``/v1/run`` body without an
``engine`` key runs on the compiled bytecode engine, as a socket
request does.

Error codes map onto HTTP statuses clients already know how to retry:

=================  ======  =========================================
``repro-rpc/1``    status  note
=================  ======  =========================================
invalid-request    400     bad params / body not a JSON object
unknown-method     404     no such route
too-large          413     body over the frame limit
timeout            504     request exceeded ``timeout_s``
overloaded         503     carries ``Retry-After: 1``
shutting-down      503     server is draining
internal           500     worker crash (server keeps serving)
=================  ======  =========================================

``GET /v1/ping|stats|metrics`` expose the control plane for dashboards.
The parser is deliberately small: one request per connection
(``Connection: close``), ``Content-Length`` bodies only.  Anything
fancier belongs in a real reverse proxy in front.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .protocol import (
    E_INVALID,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_TIMEOUT,
    E_TOO_LARGE,
    E_UNKNOWN_METHOD,
    METHODS,
)

#: repro-rpc/1 error code -> HTTP status.
STATUS_FOR_CODE: Dict[str, int] = {
    E_INVALID: 400,
    E_UNKNOWN_METHOD: 404,
    E_TOO_LARGE: 413,
    E_TIMEOUT: 504,
    E_OVERLOADED: 503,
    E_SHUTTING_DOWN: 503,
}

#: Data-plane methods reachable as POST /v1/<method>.
POST_METHODS = ("check", "verify", "run", "batch")
GET_METHODS = ("ping", "stats", "metrics")

MAX_HEADER_BYTES = 16 * 1024


@dataclass
class GatewayConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral


class HttpGateway:
    """One HTTP listener translating onto an existing :class:`Server`."""

    def __init__(self, server, config: Optional[GatewayConfig] = None):
        self.server = server
        self.config = config if config is not None else GatewayConfig()
        self.address: Optional[Tuple[str, int]] = None
        self._listener = None

    async def start(self):
        """Open the listener and return the underlying asyncio server
        (the daemon folds it into its own shutdown list)."""
        self._listener = await asyncio.start_server(
            self._client_loop, self.config.host, self.config.port
        )
        self.address = self._listener.sockets[0].getsockname()[:2]
        return self._listener

    # ------------------------------------------------------------------
    # One connection = one request
    # ------------------------------------------------------------------

    async def _client_loop(self, reader, writer) -> None:
        self.server._count("gateway.connections")
        try:
            status, body = await self._serve_one(reader)
            writer.write(_response(status, body))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_one(self, reader) -> Tuple[int, Dict[str, Any]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return 400, _err(E_INVALID, "malformed HTTP request")
        if len(head) > MAX_HEADER_BYTES:
            return 431, _err(E_TOO_LARGE, "request headers too large")
        try:
            verb, path, headers = _parse_head(head)
        except ValueError as exc:
            return 400, _err(E_INVALID, str(exc))

        if verb == "GET":
            return await self._control(path)
        if verb != "POST":
            return 405, _err(E_INVALID, f"method {verb} not allowed")

        method = _route(path, POST_METHODS)
        if method is None:
            return 404, _err(E_UNKNOWN_METHOD, f"no route {path}")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400, _err(E_INVALID, "bad Content-Length")
        if length > self.server.config.max_frame:
            return 413, _err(
                E_TOO_LARGE,
                f"body exceeds {self.server.config.max_frame} bytes",
            )
        body = await reader.readexactly(length) if length else b""
        try:
            params = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, _err(E_INVALID, "body must be a JSON object")
        if not isinstance(params, dict):
            return 400, _err(E_INVALID, "body must be a JSON object")

        self.server._count(f"gateway.requests.{method}")
        code, payload = await self.server.handle_request(method, params, None)
        if code is None:
            return 200, payload
        return STATUS_FOR_CODE.get(code, 500), _err(code, payload)

    async def _control(self, path: str) -> Tuple[int, Dict[str, Any]]:
        method = _route(path, GET_METHODS)
        if method == "ping":
            return 200, self.server.service.ping()
        if method == "stats":
            return 200, await self.server.stats_doc()
        if method == "metrics":
            return 200, await self.server.metrics_doc()
        return 404, _err(E_UNKNOWN_METHOD, f"no route {path}")


def _route(path: str, table) -> Optional[str]:
    path = path.split("?", 1)[0]
    if not path.startswith("/v1/"):
        return None
    name = path[len("/v1/") :]
    return name if name in table else None


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # latin-1 never raises, but belt and braces
        raise ValueError("undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"bad request line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return parts[0], parts[1], headers


def _err(code: str, message: Any) -> Dict[str, Any]:
    return {"error": {"code": code, "message": message}}


def _response(status: int, body: Dict[str, Any]) -> bytes:
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        413: "Payload Too Large",
        431: "Request Header Fields Too Large",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }.get(status, "Error")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    code = body.get("error", {}).get("code") if isinstance(body, dict) else None
    if code == E_OVERLOADED:
        head.append("Retry-After: 1")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


__all__ = ["GatewayConfig", "HttpGateway", "STATUS_FOR_CODE"]
