"""Worker-process entry points for the parallel pipeline.

Everything here must be importable by name from a fresh interpreter (the
``ProcessPoolExecutor`` contract) and speak only in picklable primitives:
tasks and results are plain dicts of strings/ints, exceptions are folded
into structured error records, and telemetry crosses the process boundary
as exported ``repro-telemetry/2`` documents that the parent merges back
into its registry.

A worker keeps a small per-process table of :class:`ProgramSession`
objects keyed by (source, profile), so a batch that fans N functions of
one file out parses and elaborates that file once per *worker*, not once
per function.

Check-phase and verify-phase metrics are collected into **separate**
registries.  That lets the parent reproduce the serial path's accounting
exactly: a serial run that dies on the third function's type error never
ran the verifier at all, so when a parallel run hits the same error the
parent merges only the check-phase documents of the functions a serial
run would have reached and drops every verify-phase document.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional, Tuple

from .. import telemetry as tel
from ..core.checker import CheckProfile
from ..core.errors import TypeError_
from ..core.serialize import (
    func_derivation_from_json,
    func_derivation_to_json,
)
from ..lang import parse_program
from ..lang.parser import ParseError
from ..lang.tokens import SourceSpan
from ..verifier import VerificationError
from .session import ProgramSession

#: Per-process session table; bounded so a long batch over many files
#: doesn't pin every AST in every worker forever.
_SESSIONS: Dict[Tuple[str, CheckProfile], ProgramSession] = {}
_MAX_SESSIONS = 8


def init_worker() -> None:
    """Pool initializer: match the parent's recursion headroom (the checker
    and the pickler both recurse over deep derivations)."""
    sys.setrecursionlimit(100_000)


def _session_for(source: str, profile: CheckProfile) -> ProgramSession:
    key = (source, profile)
    session = _SESSIONS.get(key)
    if session is None:
        if len(_SESSIONS) >= _MAX_SESSIONS:
            _SESSIONS.clear()
        session = _SESSIONS[key] = ProgramSession(source, profile=profile)
    return session


def _span_tuple(span: Optional[SourceSpan]):
    if span is None:
        return None
    return (span.start, span.end, span.line, span.column)


def span_from_tuple(data) -> Optional[SourceSpan]:
    if data is None:
        return None
    start, end, line, column = data
    return SourceSpan(start, end, line, column)


def observe_certificate(reg: Optional[tel.Registry], cert: str) -> None:
    """Record a certificate's JSON wire size where the pipeline already
    holds the JSON: a cache read on replay, a cache write after a verify."""
    if reg is not None and reg.enabled:
        reg.observe("verifier.certificate_bytes", len(cert.encode("utf-8")))


def _error_record(stage: str, exc: BaseException, crash: bool = False):
    return {
        "stage": stage,
        "cls": type(exc).__name__,
        "message": getattr(exc, "message", None) or str(exc),
        "span": _span_tuple(getattr(exc, "span", None)),
        "crash": crash,
    }


def run_function_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Check (or replay) + verify one function; the parallel pipeline's
    unit of work.

    ``task`` keys: ``source``, ``profile``, ``func``, ``kind``
    (``"check"`` for a cache miss, ``"replay"`` for a hit whose stored
    certificate should go through the verifier), ``cert`` (the stored
    certificate JSON for replays), ``want_cert`` (serialize the fresh
    derivation so the parent can store it), ``verify``, ``collect``
    (gather telemetry documents), ``trace`` (optional trace-context wire
    dict: run under a worker-local tracer and ship the events back as
    ``trace_doc`` for the parent to stitch into its ring buffer).
    """
    parent_ctx = tel.TraceContext.from_wire(task.get("trace"))
    if parent_ctx is None:
        return _run_function_task(task)
    local = tel.Tracer(capacity=4096)
    with tel.use_tracer_local(local):
        with local.span(
            f"pipeline.func.{task['func']}", cat="pipeline", parent=parent_ctx
        ):
            result = _run_function_task(task)
    result["trace_doc"] = local.events()
    return result


def _run_function_task(task: Dict[str, Any]) -> Dict[str, Any]:
    t0 = time.perf_counter()
    collect = task["collect"]
    check_reg = tel.Registry(enabled=True) if collect else None
    verify_reg = tel.Registry(enabled=True) if collect else None
    result: Dict[str, Any] = {
        "func": task["func"],
        "ok": False,
        "cached": "miss",
        "nodes": 0,
        "verified": 0,
        "cert": None,
        "error": None,
    }

    name = task["func"]
    fd = None
    try:
        session = _session_for(task["source"], task["profile"])
    except TypeError_ as exc:
        # Program-level validation failure — the parent normally catches
        # this before fanning out, but a worker must never crash the pool.
        result["error"] = _error_record("check", exc)
        if collect:
            result["check_doc"] = tel.registry_to_doc(check_reg)
            result["verify_doc"] = tel.registry_to_doc(verify_reg)
        result["ms"] = (time.perf_counter() - t0) * 1000.0
        return result

    if task["kind"] == "replay":
        result["cached"] = "hit"
        with tel.use_local(verify_reg) if collect else _noop():
            try:
                fd = func_derivation_from_json(name, task["cert"])
                observe_certificate(verify_reg, task["cert"])
                result["verified"] = session.verify_function(fd)
            except (VerificationError, ValueError, KeyError, TypeError):
                # The stored certificate no longer replays (tampered,
                # truncated, or a collision-grade anomaly): self-heal by
                # re-deriving from scratch.
                result["cached"] = "stale"
                fd = None
        if fd is not None:
            result["ok"] = True
            result["nodes"] = fd.body.node_count()

    if fd is None:
        with tel.use_local(check_reg) if collect else _noop():
            try:
                fd = session.check_function(name)
            except TypeError_ as exc:
                result["error"] = _error_record("check", exc)
            except Exception as exc:  # noqa: BLE001 — report, don't hang the pool
                result["error"] = _error_record("check", exc, crash=True)
        if fd is not None:
            result["nodes"] = fd.body.node_count()
            if task["verify"]:
                with tel.use_local(verify_reg) if collect else _noop():
                    try:
                        result["verified"] = session.verify_function(fd)
                    except VerificationError as exc:
                        result["error"] = _error_record("verify", exc)
                    except Exception as exc:  # noqa: BLE001
                        result["error"] = _error_record("verify", exc, crash=True)
            if result["error"] is None:
                result["ok"] = True
                if task["want_cert"]:
                    result["cert"] = func_derivation_to_json(fd)
                    observe_certificate(verify_reg, result["cert"])

    if collect:
        result["check_doc"] = tel.registry_to_doc(check_reg)
        result["verify_doc"] = tel.registry_to_doc(verify_reg)
    result["ms"] = (time.perf_counter() - t0) * 1000.0
    return result


def check_verify_program_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Whole-program checker⇒verifier verdict — the fuzz campaign's
    static oracle, run remotely with byte-for-byte the same semantics as
    the in-process path in :mod:`repro.fuzz.oracles`.

    ``task`` keys: ``source``, ``profile``, ``collect``.  Returns a
    verdict dict with ``status`` in ``ok | parse | type | crash |
    verifier`` plus the error details needed to reconstruct the serial
    diagnostics, and (when collecting) the telemetry document of
    everything the check and verify did.
    """
    collect = task["collect"]
    reg = tel.Registry(enabled=True) if collect else None
    verdict: Dict[str, Any] = {"status": "ok", "cls": None, "message": None, "span": None}
    with tel.use_local(reg) if collect else _noop():
        try:
            program = parse_program(task["source"])
        except ParseError as exc:
            verdict.update(
                status="parse",
                cls="ParseError",
                message=str(exc),
                span=_span_tuple(getattr(exc, "span", None)),
            )
            program = None
        derivation = None
        session = None
        if program is not None:
            # Construction mirrors the serial oracle exactly: program-level
            # validation/elaboration errors are TypeError_ rejections, any
            # other exception is a checker-crash finding.
            try:
                session = ProgramSession(
                    task["source"], program=program, profile=task["profile"]
                )
                derivation = session.checker.check_program()
            except TypeError_ as exc:
                verdict.update(
                    status="type",
                    cls=type(exc).__name__,
                    message=exc.message,
                    span=_span_tuple(exc.span),
                )
            except Exception as exc:  # noqa: BLE001 — crashes are findings
                verdict.update(
                    status="crash", cls=type(exc).__name__, message=str(exc)
                )
        if derivation is not None:
            try:
                session.verifier.verify_program(derivation)
            except VerificationError as exc:
                verdict.update(status="verifier", message=str(exc))
    if collect:
        verdict["doc"] = tel.registry_to_doc(reg)
    return verdict


class _noop:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False
