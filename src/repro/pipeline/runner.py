"""The one program-level check/verify orchestrator.

Every check and verify of a whole program — the :mod:`repro.api` facade,
and through it the CLI and the daemon — runs through
:meth:`Pipeline.run`.  A :class:`Pipeline` turns a program into a
:class:`ProgramResult` through three cooperating mechanisms:

* **per-function jobs** — each function of a program is an independent
  job (check + verify, or certificate replay), checked against its
  elaborated function type (§4.8, §5).  ``jobs=1`` (the default) runs
  them in-process against the caller's warm session, phase-faithful to
  ``Checker.check_program`` + ``Verifier.verify_program``; ``jobs>1``
  fans them out over a ``ProcessPoolExecutor``, worth its task-pickling
  and per-worker re-elaboration tax only for large CPU-bound batches;
* **the certificate cache** (:mod:`repro.pipeline.cache`) — a content
  hash decides per function whether the prover runs at all.  A hit
  replays the stored certificate through the verifier (soundness
  preserved: nothing is trusted), or skips verification entirely under
  ``trust_cache`` (integrity by content hash: the certificate was
  verified when it was stored, and the key proves the inputs have not
  changed since);
* **telemetry merge-back** — worker registries come home as exported
  documents and are folded into the parent registry, so ``--metrics-json``
  reports the same checker/verifier counters a serial run would.

Determinism contract, relied on by tests and CI: for any program and any
cache state, ``jobs=1`` and ``jobs=N`` produce identical accept/reject
decisions, identical first-error diagnostics (first in sorted function
order, exactly like ``Checker.check_program``), and identical merged
counters (modulo the ``pipeline.*`` family itself).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry as tel
from ..core.errors import TypeError_
from ..core.serialize import func_derivation_to_json
from ..verifier import VerificationError
from .cache import CacheEntry, CertCache
from .session import ProgramSession
from .worker import init_worker, observe_certificate, run_function_task


@dataclass
class ErrorInfo:
    """A check/verify failure in transportable form (workers cannot ship
    exception objects across the process boundary reliably)."""

    stage: str  # "check" | "verify"
    cls: str
    message: str
    span: Optional[Tuple[int, int, int, int]] = None
    crash: bool = False

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ErrorInfo":
        return cls(
            stage=record["stage"],
            cls=record["cls"],
            message=record["message"],
            span=tuple(record["span"]) if record["span"] else None,
            crash=record.get("crash", False),
        )

    @classmethod
    def from_exception(
        cls, stage: str, exc: BaseException, crash: bool = False
    ) -> "ErrorInfo":
        span = getattr(exc, "span", None)
        return cls(
            stage=stage,
            cls=type(exc).__name__,
            message=getattr(exc, "message", None) or str(exc),
            span=None
            if span is None
            else (span.start, span.end, span.line, span.column),
            crash=crash,
        )

    def to_diagnostic(self, file: str = "<input>"):
        """The canonical :class:`repro.api.Diagnostic` form — the one
        encoder shared by CLI text output, ``--metrics-json`` failure
        records, and ``repro-rpc/1`` responses."""
        from ..api import Diagnostic

        return Diagnostic(
            file=file,
            severity="error",
            code="VerificationError" if self.stage == "verify" else self.cls,
            message=self.message,
            span=self.span,
        )


@dataclass
class FunctionResult:
    name: str
    ok: bool
    #: "miss" (freshly derived), "hit" (certificate replayed), "trusted"
    #: (hit under trust_cache — not re-verified), "stale" (an unusable
    #: cache entry forced a fresh derivation).
    cached: str
    nodes: int = 0
    verified: int = 0
    ms: float = 0.0
    error: Optional[ErrorInfo] = None


@dataclass
class ProgramResult:
    label: str
    ok: bool
    error: Optional[ErrorInfo] = None
    functions: List[FunctionResult] = field(default_factory=list)
    wall_ms: float = 0.0

    @property
    def nodes(self) -> int:
        return sum(f.nodes for f in self.functions)

    @property
    def verified(self) -> int:
        return sum(f.verified for f in self.functions)

    def counts(self) -> Dict[str, int]:
        out = {"hit": 0, "miss": 0, "stale": 0, "trusted": 0}
        for f in self.functions:
            out[f.cached] = out.get(f.cached, 0) + 1
        # A trusted hit is still a hit; stale entries were misses that
        # additionally evicted garbage.
        out["hit"] += out.pop("trusted")
        return out


class Pipeline:
    """Reusable check/verify engine: serial in-process for ``jobs=1``, a
    process pool for ``jobs>1``, with an optional certificate cache."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        trust_cache: bool = False,
        cache_entries: Optional[int] = None,
        cache_bytes: Optional[int] = None,
    ):
        self.jobs = max(1, jobs)
        self.cache = (
            CertCache(
                cache_dir, max_entries=cache_entries, max_bytes=cache_bytes
            )
            if cache_dir
            else None
        )
        self.trust_cache = trust_cache
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _executor_handle(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=init_worker
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # One program
    # ------------------------------------------------------------------

    def run(
        self,
        label: str,
        source: str,
        *,
        session: Optional[ProgramSession] = None,
        verify: bool = True,
    ) -> ProgramResult:
        """Check (and, with ``verify``, verify) every function of one
        program.  ``session`` is the caller's warm session for ``source``;
        without one the program is parsed and elaborated here."""
        tr = tel.tracer()
        if not tr.enabled:
            return self._run(label, source, session, verify)
        # Under the ambient span when there is one (the daemon's request
        # span, the facade's api.* span), a new root otherwise; worker
        # tasks inherit this context and stitch under it.
        with tr.span("pipeline.program", cat="pipeline", args={"label": label}):
            return self._run(label, source, session, verify)

    def _run(
        self,
        label: str,
        source: str,
        session: Optional[ProgramSession],
        verify: bool,
    ) -> ProgramResult:
        t0 = time.perf_counter()
        reg = tel.registry()
        if session is None:
            try:
                session = ProgramSession(source)
            except TypeError_ as exc:
                # Program-level validation failure (duplicate names,
                # malformed annotations) — same rejection the serial
                # Checker raises.
                return ProgramResult(
                    label,
                    ok=False,
                    error=ErrorInfo.from_exception("check", exc),
                    wall_ms=(time.perf_counter() - t0) * 1000.0,
                )
        names = session.function_names()

        # Phase 0 — consult the cache and plan one task per function.
        resolved: Dict[str, FunctionResult] = {}
        tasks: List[Dict[str, Any]] = []
        for name in names:
            status, entry = ("miss", None)
            if self.cache is not None:
                status, entry = self.cache.get(session.function_key(name))
            if status == "hit" and entry is not None:
                if self.trust_cache or not verify:
                    resolved[name] = FunctionResult(
                        name,
                        ok=True,
                        cached="trusted" if self.trust_cache else "hit",
                        nodes=entry.nodes,
                        verified=entry.verified if self.trust_cache else 0,
                    )
                    continue
                tasks.append(self._task(session, name, "replay", entry.cert, verify))
            else:
                # "stale" is re-derived like a miss; the overwrite below
                # evicts the unusable entry.
                tasks.append(self._task(session, name, "check", None, verify))

        if tasks and self.jobs > 1:
            outcomes = self._run_parallel(tasks, reg)
        else:
            outcomes = self._run_serial(session, tasks, reg, verify)

        result = self._assemble(
            label, session, names, resolved, outcomes, reg, verify
        )
        result.wall_ms = (time.perf_counter() - t0) * 1000.0
        if reg.enabled:
            reg.inc("pipeline.files")
            reg.inc("pipeline.functions", len(names))
            if self.cache is not None:
                counts = result.counts()
                reg.inc("pipeline.cache.hit", counts["hit"])
                reg.inc("pipeline.cache.miss", counts["miss"])
                reg.inc("pipeline.cache.stale", counts["stale"])
        return result

    def _task(
        self,
        session: ProgramSession,
        name: str,
        kind: str,
        cert: Optional[str],
        verify: bool,
    ) -> Dict[str, Any]:
        return {
            "source": session.source,
            "profile": session.profile,
            "func": name,
            "kind": kind,
            "cert": cert,
            "want_cert": self.cache is not None and verify,
            "verify": verify,
            "collect": tel.registry().enabled,
            # Wire trace context (None when tracing is off): workers run
            # under a local tracer parented here and ship events back as
            # `trace_doc` for the parent ring buffer to ingest.
            "trace": tel.current_wire() if tel.tracer().enabled else None,
        }

    # ------------------------------------------------------------------
    # Serial execution — in-process, phase-faithful
    # ------------------------------------------------------------------

    def _run_serial(
        self,
        session: ProgramSession,
        tasks: List[Dict[str, Any]],
        reg: tel.Registry,
        verify: bool,
    ) -> Dict[str, Dict[str, Any]]:
        """In-process execution against the ambient registry, replicating
        the serial entry points' phase structure exactly: check every
        function first (sorted order, stop at the first type error — the
        verifier must not run for a program the checker rejected), then
        verify/replay every derivation."""
        outcomes: Dict[str, Dict[str, Any]] = {}
        fresh: Dict[str, Any] = {}  # name -> FuncDerivation to verify

        with _maybe_span(reg, "check.program"):
            for task in tasks:
                name = task["func"]
                if task["kind"] == "replay":
                    continue  # nothing to check; replayed in phase 2
                t0 = time.perf_counter()
                try:
                    fd = session.check_function(name)
                except TypeError_ as exc:
                    outcomes[name] = _outcome(
                        name, error=ErrorInfo.from_exception("check", exc)
                    )
                    return outcomes
                fresh[name] = fd
                outcomes[name] = _outcome(
                    name,
                    cached="miss",
                    nodes=fd.body.node_count(),
                    ms=(time.perf_counter() - t0) * 1000.0,
                )

        if not verify:
            return outcomes

        with _maybe_span(reg, "verify.program"):
            for task in tasks:
                name = task["func"]
                t0 = time.perf_counter()
                if task["kind"] == "replay":
                    out = self._replay_serial(session, name, task["cert"])
                else:
                    out = outcomes[name]
                    try:
                        out["verified"] = session.verify_function(fresh[name])
                    except VerificationError as exc:
                        out["error"] = ErrorInfo.from_exception("verify", exc)
                        out["ok"] = False
                        outcomes[name] = out
                        return outcomes
                    if self.cache is not None:
                        out["cert"] = func_derivation_to_json(fresh[name])
                        observe_certificate(reg, out["cert"])
                out["ms"] += (time.perf_counter() - t0) * 1000.0
                outcomes[name] = out
                if out["error"] is not None:
                    return outcomes
        return outcomes

    def _replay_serial(
        self, session: ProgramSession, name: str, cert: str
    ) -> Dict[str, Any]:
        from ..core.serialize import func_derivation_from_json

        try:
            fd = func_derivation_from_json(name, cert)
            observe_certificate(tel.registry(), cert)
            verified = session.verify_function(fd)
            return _outcome(
                name, cached="hit", nodes=fd.body.node_count(), verified=verified
            )
        except (VerificationError, ValueError, KeyError, TypeError):
            pass
        # Unusable certificate: self-heal with a fresh derivation.
        out = _outcome(name, cached="stale")
        try:
            fd = session.check_function(name)
            out["nodes"] = fd.body.node_count()
            out["verified"] = session.verify_function(fd)
            if self.cache is not None:
                out["cert"] = func_derivation_to_json(fd)
                observe_certificate(tel.registry(), out["cert"])
        except TypeError_ as exc:
            out.update(ok=False, error=ErrorInfo.from_exception("check", exc))
        except VerificationError as exc:
            out.update(ok=False, error=ErrorInfo.from_exception("verify", exc))
        return out

    # ------------------------------------------------------------------
    # Parallel execution — a process pool
    # ------------------------------------------------------------------

    def _run_parallel(
        self, tasks: List[Dict[str, Any]], reg: tel.Registry
    ) -> Dict[str, Dict[str, Any]]:
        executor = self._executor_handle()
        with _maybe_span(reg, "check.program"):
            raw = list(executor.map(run_function_task, tasks))
        return self._ingest(raw, reg)

    def _ingest(
        self, raw: List[Dict[str, Any]], reg: tel.Registry
    ) -> Dict[str, Dict[str, Any]]:
        outcomes: Dict[str, Dict[str, Any]] = {}
        tr = tel.tracer()
        for record in raw:
            # Trace events describe what actually ran, so unlike the
            # metric documents below they are ingested unconditionally —
            # no serial-parity discard.
            if tr.enabled and record.get("trace_doc"):
                tr.ingest(record["trace_doc"])
            out = _outcome(
                record["func"],
                cached=record["cached"],
                nodes=record["nodes"],
                verified=record["verified"],
                ms=record["ms"],
            )
            out["cert"] = record.get("cert")
            out["check_doc"] = record.get("check_doc")
            out["verify_doc"] = record.get("verify_doc")
            if record["error"] is not None:
                out["ok"] = False
                out["error"] = ErrorInfo.from_record(record["error"])
            outcomes[record["func"]] = out
        return outcomes

    # ------------------------------------------------------------------
    # Assembly — deterministic reporting + telemetry merge-back
    # ------------------------------------------------------------------

    def _assemble(
        self,
        label: str,
        session: ProgramSession,
        names: List[str],
        resolved: Dict[str, FunctionResult],
        outcomes: Dict[str, Dict[str, Any]],
        reg: tel.Registry,
        verify: bool,
    ) -> ProgramResult:
        # The winning error is the serial one: first check error in sorted
        # function order; barring those, the first verify error.
        error: Optional[ErrorInfo] = None
        error_name: Optional[str] = None
        for stage in ("check", "verify"):
            for name in names:
                out = outcomes.get(name)
                if out is not None and out["error"] is not None and out["error"].stage == stage:
                    error, error_name = out["error"], name
                    break
            if error is not None:
                break

        # Merge worker telemetry so the parent registry reads like a
        # serial run: on a check failure, a serial run never checked past
        # the failing function (sorted order) and never verified anything.
        if reg.enabled:
            merge_names = names
            include_verify = error is None or error.stage == "verify"
            if error is not None and error.stage == "check":
                merge_names = names[: names.index(error_name) + 1]
            for name in merge_names:
                out = outcomes.get(name)
                if out is None:
                    continue
                if out.get("check_doc") is not None:
                    tel.merge_doc(reg, out["check_doc"])
                if include_verify and out.get("verify_doc") is not None:
                    tel.merge_doc(reg, out["verify_doc"])
                if error is not None and error_name == name:
                    break
                if out.get("ms"):
                    reg.observe("pipeline.worker_ms", out["ms"])

        # A serial run that fails verification has checked every function.
        checked = sum(
            1
            for out in outcomes.values()
            if out["cached"] in ("miss", "stale")
        )
        if reg.enabled and checked and (error is None or error.stage == "verify"):
            reg.inc("checker.functions", checked)

        result = ProgramResult(label, ok=error is None, error=error)
        if error is not None:
            return result

        verified_count = 0
        for name in names:
            if name in resolved:
                result.functions.append(resolved[name])
                continue
            out = outcomes[name]
            result.functions.append(
                FunctionResult(
                    name,
                    ok=True,
                    cached=out["cached"],
                    nodes=out["nodes"],
                    verified=out["verified"],
                    ms=out["ms"],
                )
            )
            if verify:
                verified_count += 1
            if self.cache is not None and out.get("cert"):
                self.cache.put(
                    session.function_key(name),
                    CacheEntry(
                        func=name,
                        nodes=out["nodes"],
                        verified=out["verified"],
                        cert=out["cert"],
                    ),
                )
        if reg.enabled and verified_count:
            reg.inc("verifier.certificates", verified_count)
        return result


def _outcome(
    name: str,
    cached: str = "miss",
    nodes: int = 0,
    verified: int = 0,
    ms: float = 0.0,
    error: Optional[ErrorInfo] = None,
) -> Dict[str, Any]:
    return {
        "func": name,
        "ok": error is None,
        "cached": cached,
        "nodes": nodes,
        "verified": verified,
        "ms": ms,
        "error": error,
        "cert": None,
        "check_doc": None,
        "verify_doc": None,
    }


class _maybe_span:
    """``registry.span(name)`` when telemetry is on, nothing otherwise."""

    def __init__(self, reg: tel.Registry, name: str):
        self._cm = reg.span(name) if reg.enabled else None

    def __enter__(self):
        return self._cm.__enter__() if self._cm is not None else None

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc) if self._cm is not None else False
