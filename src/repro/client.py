"""A small blocking client for the ``repro-rpc/1`` protocol.

Used by ``repro client``, the server tests, and ``repro bench``'s server
section.  One socket, JSON lines, strictly request/response::

    from repro.client import Client

    with Client(("127.0.0.1", 7621)) as client:
        result = client.check(source, filename="list.fcl")   # CheckResult

Addresses: a ``(host, port)`` tuple, a unix socket path (``"/run/x.sock"``
or ``"unix:/run/x.sock"``), or ``"host:port"``.

Protocol-level failures raise :class:`RemoteError` (carrying the server's
error ``code``); transport failures raise :class:`ClientError`.  Program-
level failures never raise — they come back as ``ok=False`` results with
:class:`~repro.api.Diagnostic` records, exactly like :mod:`repro.api`.

When event tracing is enabled in the client process
(``telemetry.enable_tracing()``), every :meth:`Client.call` wraps the
round trip in an ``rpc.<method>`` span and stamps its context into the
frame's ``trace`` key, so the daemon's ``server.<method>`` span (and
everything beneath it) becomes a child of the client's span — one trace
tree across both processes.  With tracing off, frames are byte-identical
to previous releases.
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .api import CheckResult, RunResult, VerifyResult
from . import telemetry as tel
from .server.protocol import RPC_SCHEMA

Address = Union[str, Tuple[str, int]]


class ClientError(Exception):
    """Transport-level failure (connect, framing, premature close)."""


class RemoteError(ClientError):
    """The server answered with a protocol-level error envelope."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def parse_address(spec: str) -> Address:
    """``unix:PATH`` / ``PATH-with-slash`` / ``HOST:PORT`` / ``:PORT`` /
    ``[IPV6]:PORT``.

    Bracketed IPv6 specs (``[::1]:7621``) follow RFC 3986 host syntax:
    the brackets delimit the host (whose colons would otherwise be
    ambiguous with the port separator) and are stripped from the
    returned host.  Bare IPv6 (``::1:7621``) also parses — the last
    colon wins — but is ambiguous; prefer brackets.
    """
    if spec.startswith("unix:"):
        return spec[len("unix:"):]
    if "/" in spec:
        return spec
    bad = ClientError(
        f"bad address {spec!r} (want HOST:PORT, [IPV6]:PORT, or unix:PATH)"
    )
    if spec.startswith("["):
        # [IPV6]:PORT — rpartition(":") alone would keep the brackets in
        # the host, which no resolver accepts.
        host, bracket, port = spec.rpartition("]:")
        if not bracket or not host.startswith("["):
            raise bad
        try:
            return (host[1:], int(port))
        except ValueError:
            raise bad
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        try:
            return (host or "127.0.0.1", int(port))
        except ValueError:
            raise bad
    raise bad


class Client:
    """One connection to a ``repro serve`` daemon."""

    def __init__(self, address: Address, timeout: Optional[float] = 120.0):
        self.address = parse_address(address) if isinstance(address, str) else address
        self.timeout = timeout
        self._ids = itertools.count(1)
        sock: Optional[socket.socket] = None
        try:
            if isinstance(self.address, str):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(self.address)
            else:
                sock = socket.create_connection(self.address, timeout=timeout)
        except OSError as exc:
            # A failed connect must not leak the file descriptor (the
            # AF_UNIX socket exists before connect; create_connection
            # closes its own attempts but not on e.g. getaddrinfo
            # KeyboardInterrupt paths).
            if sock is not None:
                sock.close()
            raise ClientError(f"cannot connect to {self.address}: {exc}")
        self._sock = sock
        self._file = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def call(self, method: str, params: Optional[Dict[str, Any]] = None) -> Any:
        """One RPC round trip; returns the ``result`` payload.

        With tracing enabled, the round trip runs under an
        ``rpc.<method>`` span whose context rides in the frame's
        ``trace`` key for the daemon to parent its request span under.
        """
        tr = tel.tracer()
        if tr.enabled:
            with tr.span(f"rpc.{method}", cat="rpc") as ctx:
                return self._call(method, params, ctx)
        return self._call(method, params, None)

    def _call(
        self,
        method: str,
        params: Optional[Dict[str, Any]],
        ctx,
    ) -> Any:
        request_id = next(self._ids)
        frame = {
            "rpc": RPC_SCHEMA,
            "id": request_id,
            "method": method,
            "params": params or {},
        }
        if ctx is not None:
            frame["trace"] = ctx.to_wire()
        try:
            self._sock.sendall(
                (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")
            )
            line = self._file.readline()
        except OSError as exc:
            raise ClientError(f"transport failure: {exc}")
        if not line:
            raise ClientError("server closed the connection")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ClientError(f"bad response frame: {exc}")
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise RemoteError(
            error.get("code", "unknown"), error.get("message", "?")
        )

    def send_raw(self, payload: bytes) -> Dict[str, Any]:
        """Ship arbitrary bytes (tests: malformed/oversize frames) and
        read back one response frame."""
        try:
            self._sock.sendall(payload)
            line = self._file.readline()
        except OSError as exc:
            raise ClientError(f"transport failure: {exc}")
        if not line:
            raise ClientError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Typed convenience methods (the facade, remotely)
    # ------------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def check(self, source: str, filename: str = "<rpc>") -> CheckResult:
        return CheckResult.from_dict(
            self.call("check", {"source": source, "filename": filename})
        )

    def verify(self, source: str, filename: str = "<rpc>") -> VerifyResult:
        return VerifyResult.from_dict(
            self.call("verify", {"source": source, "filename": filename})
        )

    def run(
        self,
        source: str,
        function: str,
        args: Sequence = (),
        filename: str = "<rpc>",
        max_steps: Optional[int] = None,
        erased: bool = False,
        engine: Optional[str] = None,
    ) -> RunResult:
        """``engine`` is sent only when given; ``"ir"`` is the only engine
        the server accepts (anything else is ``invalid-request``)."""
        params: Dict[str, Any] = {
            "source": source,
            "function": function,
            "args": list(args),
            "filename": filename,
            "erased": erased,
        }
        if engine is not None:
            params["engine"] = engine
        if max_steps is not None:
            params["max_steps"] = max_steps
        return RunResult.from_dict(self.call("run", params))

    def batch(self, programs: List[Tuple[str, str]]) -> Dict[str, Any]:
        """``programs`` is a list of ``(label, source)`` pairs."""
        return self.call(
            "batch",
            {
                "programs": [
                    {"label": label, "source": source}
                    for label, source in programs
                ]
            },
        )

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def metrics(self) -> Dict[str, Any]:
        """The server's full metrics export (a ``repro-telemetry/2``
        document — render locally with :func:`repro.telemetry
        .render_prometheus` for text exposition)."""
        return self.call("metrics")

    def trace_doc(self) -> Dict[str, Any]:
        """The server's trace ring buffer: ``{"schema", "enabled",
        "events", "dropped"}`` — ingest into a local tracer to stitch a
        cross-process tree."""
        return self.call("trace")

    def shutdown(self) -> Dict[str, Any]:
        return self.call("shutdown")


__all__ = [
    "Address",
    "Client",
    "ClientError",
    "RemoteError",
    "parse_address",
]
