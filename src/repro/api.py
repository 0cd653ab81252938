"""The stable programmatic facade: ``check`` / ``verify`` / ``run``.

Before this module, callers reached into four inconsistent entry points
(``core.checker.check_source``, ``verifier.verify_source``,
``runtime.machine.run_function``, ``pipeline.Pipeline``) with mismatched
signatures, exit-code conventions, and ad-hoc dict payloads.  The facade
gives every consumer — the CLI, the batch pipeline, and the ``repro
serve`` RPC daemon — one typed surface:

* :func:`check`  → :class:`CheckResult`
* :func:`verify` → :class:`VerifyResult`
* :func:`run`    → :class:`RunResult`

:func:`check` and :func:`verify` always run a
:class:`~repro.pipeline.Pipeline` over the program's session, function
by function against the elaborated function types; a caller that wants
a process pool or a certificate cache (the CLI's ``--jobs``/``--cache``,
the daemon's resident cache) passes its own ``pipeline=``.  Results are
identical whatever the pipeline by its determinism contract.
:class:`Session` is the warm handle for embedders: parse + elaborate
once, then ``check``/``verify``/``run`` repeatedly (and concurrently)
without re-paying program-level costs or importing ``repro.pipeline``
internals.

No facade function raises on a *program* problem: parse errors, type
errors, verification failures, and runtime faults all come back as
:class:`Diagnostic` records on the result (``result.ok`` is False).
Exceptions are reserved for caller bugs (bad argument types).

Every result is a frozen-ish dataclass with ``to_dict()``/``from_dict()``
whose dict form IS the ``repro-rpc/1`` wire payload — the server returns
exactly ``check(source).to_dict()``, which is what makes the "server
responses are byte-identical to in-process results" guarantee checkable.

Exit codes are normalized in :class:`ExitCode` (see docs/API.md):
0 ok · 1 check-reject · 2 verify-fail · 3 runtime error / bench
regression · 4 divergence · 5 fuzz violation · 64 usage.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core.checker import DEFAULT_PROFILE, CheckProfile
from .core.errors import TypeError_
from .lang.tokens import SourceSpan

API_VERSION = "repro-api/1"


class ExitCode(enum.IntEnum):
    """Process exit codes, uniform across every ``repro`` subcommand.

    ``BENCH_REGRESS`` and ``RUNTIME_ERROR`` share 3 deliberately: both
    mean "the artifact was fine but executing it went wrong", and no
    subcommand can produce both.
    """

    OK = 0
    CHECK_REJECT = 1
    VERIFY_FAIL = 2
    RUNTIME_ERROR = 3
    BENCH_REGRESS = 3  # alias of RUNTIME_ERROR
    DIVERGENCE = 4
    FUZZ_VIOLATION = 5
    USAGE = 64


#: Diagnostic codes rendered as "syntax error" with a caret excerpt.
_SYNTAX_CODES = ("ParseError", "LexError")
#: Diagnostic codes produced by the runtime, rendered without an excerpt.
_RUNTIME_CODES = (
    "MachineError",
    "ReservationViolation",
    "DeadlockError",
    "StepLimitExceeded",
)


@dataclass
class Diagnostic:
    """One canonical failure record.

    This is the single encoder behind CLI text output, ``--metrics-json``
    failure records, and ``repro-rpc/1`` error payloads — the per-call-site
    dict literals are gone.  ``span`` is ``(start, end, line, column)`` or
    ``None`` when the failure has no source location.
    """

    file: str
    severity: str  # "error" (reserved: "warning")
    code: str  # the exception class name, e.g. "RegionConsumed"
    message: str
    span: Optional[Tuple[int, int, int, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "span": list(self.span) if self.span is not None else None,
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnostic":
        span = data.get("span")
        return cls(
            file=data["file"],
            severity=data["severity"],
            code=data["code"],
            message=data["message"],
            span=tuple(span) if span is not None else None,
        )

    @classmethod
    def from_exception(
        cls, exc: BaseException, file: str = "<input>"
    ) -> "Diagnostic":
        from .lang.diagnostics import strip_location_prefix

        span = getattr(exc, "span", None)
        return cls(
            file=file,
            severity="error",
            code=type(exc).__name__,
            message=getattr(exc, "message", None)
            or strip_location_prefix(str(exc)),
            span=None
            if span is None
            else (span.start, span.end, span.line, span.column),
        )

    def source_span(self) -> Optional[SourceSpan]:
        if self.span is None:
            return None
        start, end, line, column = self.span
        return SourceSpan(start, end, line, column)

    def render(self, source: str = "") -> str:
        """The human-facing form: caret excerpt for parse/type errors,
        the historical one-liners for verify and runtime failures."""
        from .lang.diagnostics import render_diagnostic

        if self.code == "VerificationError":
            return f"{self.file}: VERIFICATION FAILED: {self.message}"
        if self.code in _RUNTIME_CODES:
            return f"runtime error: {self.message}"
        kind = "syntax error" if self.code in _SYNTAX_CODES else "type error"
        return render_diagnostic(
            source, self.source_span(), self.message, filename=self.file, kind=kind
        )


def _diagnostics_from(items: Sequence[Dict[str, Any]]) -> List[Diagnostic]:
    return [Diagnostic.from_dict(item) for item in items]


@dataclass
class CheckResult:
    """Outcome of type-checking one program."""

    ok: bool
    functions: int = 0
    nodes: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "functions": self.functions,
            "nodes": self.nodes,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CheckResult":
        return cls(
            ok=data["ok"],
            functions=data["functions"],
            nodes=data["nodes"],
            diagnostics=_diagnostics_from(data["diagnostics"]),
        )

    @classmethod
    def from_program_result(
        cls, result, filename: str, functions: int
    ) -> "CheckResult":
        """The facade form of a pipeline
        :class:`~repro.pipeline.ProgramResult` for a program of
        ``functions`` functions."""
        if not result.ok:
            return cls(
                ok=False,
                functions=functions,
                diagnostics=[result.error.to_diagnostic(filename)],
            )
        return cls(ok=True, functions=functions, nodes=result.nodes)

    def summary(self, file: str) -> str:
        return (
            f"{file}: OK — {self.functions} functions, "
            f"{self.nodes} derivation nodes"
        )

    @property
    def exit_code(self) -> ExitCode:
        return ExitCode.OK if self.ok else ExitCode.CHECK_REJECT


@dataclass
class VerifyResult:
    """Outcome of checking and then independently verifying a program."""

    ok: bool
    functions: int = 0
    nodes: int = 0
    verified: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "functions": self.functions,
            "nodes": self.nodes,
            "verified": self.verified,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerifyResult":
        return cls(
            ok=data["ok"],
            functions=data["functions"],
            nodes=data["nodes"],
            verified=data["verified"],
            diagnostics=_diagnostics_from(data["diagnostics"]),
        )

    @classmethod
    def from_program_result(
        cls, result, filename: str, functions: int
    ) -> "VerifyResult":
        """As :meth:`CheckResult.from_program_result`, plus the count of
        derivation nodes the verifier checked."""
        if not result.ok:
            return cls(
                ok=False,
                functions=functions,
                diagnostics=[result.error.to_diagnostic(filename)],
            )
        return cls(
            ok=True,
            functions=functions,
            nodes=result.nodes,
            verified=result.verified,
        )

    def summary(self, file: str) -> str:
        return f"{file}: verified ({self.verified} nodes)"

    @property
    def exit_code(self) -> ExitCode:
        if self.ok:
            return ExitCode.OK
        for diag in self.diagnostics:
            if diag.code == "VerificationError":
                return ExitCode.VERIFY_FAIL
        return ExitCode.CHECK_REJECT


@dataclass
class RunResult:
    """Outcome of running one function single-threaded."""

    ok: bool
    value: Optional[str] = None  # rendered result (see render_value)
    steps: int = 0
    reservation_checks: int = 0
    heap_reads: int = 0
    heap_writes: int = 0
    heap_objects: int = 0
    engine: str = "ir"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "value": self.value,
            "steps": self.steps,
            "reservation_checks": self.reservation_checks,
            "heap_reads": self.heap_reads,
            "heap_writes": self.heap_writes,
            "heap_objects": self.heap_objects,
            "engine": self.engine,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        return cls(
            ok=data["ok"],
            value=data["value"],
            steps=data["steps"],
            reservation_checks=data["reservation_checks"],
            heap_reads=data["heap_reads"],
            heap_writes=data["heap_writes"],
            heap_objects=data["heap_objects"],
            engine=data.get("engine", "ir"),
            diagnostics=_diagnostics_from(data["diagnostics"]),
        )

    @property
    def exit_code(self) -> ExitCode:
        if self.ok:
            return ExitCode.OK
        if any(d.code in _RUNTIME_CODES for d in self.diagnostics):
            return ExitCode.RUNTIME_ERROR
        return ExitCode.CHECK_REJECT


def render_value(value, heap) -> str:
    """Render a runtime value the way the CLI prints it (structs show
    their fields and location; primitives show their repr)."""
    from .runtime.values import NONE, UNIT, Loc

    if value is UNIT:
        return "()"
    if value is NONE:
        return "none"
    if isinstance(value, Loc):
        obj = heap.obj(value)
        fields = ", ".join(
            f"{name} = {_brief(v)}" for name, v in obj.fields.items()
        )
        return f"{obj.struct.name}{{{fields}}} @ {value}"
    return repr(value)


def _brief(value) -> str:
    from .runtime.values import NONE, Loc

    if value is NONE:
        return "none"
    if isinstance(value, Loc):
        return str(value)
    return repr(value)


# ---------------------------------------------------------------------------
# The facade functions
# ---------------------------------------------------------------------------


def _traced(name: str):
    """Wrap a facade function in an ``api.*`` tracer span, so every
    entry through the facade anchors a trace tree (or nests under the
    caller's ambient span).  Free when tracing is off: one lazy import
    plus one attribute check."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from . import telemetry as tel

            tr = tel.tracer()
            if not tr.enabled:
                return fn(*args, **kwargs)
            with tr.span(name, cat="api"):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _make_session(
    source: str,
    filename: str,
    program,
    profile: CheckProfile,
):
    """(session, failure-diagnostics). Parse + program-level elaboration;
    both kinds of failure come back as diagnostics, not exceptions."""
    from .lang import ParseError, parse_program
    from .lang.lexer import LexError
    from .pipeline.session import ProgramSession

    try:
        if program is None:
            program = parse_program(source)
        return ProgramSession(source, program=program, profile=profile), []
    except (ParseError, LexError, TypeError_) as exc:
        return None, [Diagnostic.from_exception(exc, file=filename)]


def _run_pipeline(
    result_cls,
    source: str,
    filename: str,
    program,
    profile: CheckProfile,
    session,
    pipeline,
    verify: bool,
):
    """Check (and, with ``verify``, verify) one program through
    ``pipeline`` — a serial one without a cache when ``None`` — and
    convert the outcome to ``result_cls``."""
    from .pipeline.runner import Pipeline

    if session is None:
        session, failed = _make_session(source, filename, program, profile)
        if session is None:
            return result_cls(ok=False, diagnostics=failed)
    result = (pipeline or Pipeline()).run(
        filename, session.source, session=session, verify=verify
    )
    return result_cls.from_program_result(
        result, filename, len(session.program.funcs)
    )


@_traced("api.check")
def check(
    source: str,
    *,
    filename: str = "<input>",
    program=None,
    profile: CheckProfile = DEFAULT_PROFILE,
    session=None,
    pipeline=None,
) -> CheckResult:
    """Parse and type-check ``source``; never raises on program errors.

    ``session`` lets warm callers (the server) reuse a parsed/elaborated
    :class:`~repro.pipeline.ProgramSession`; ``pipeline`` supplies a
    :class:`~repro.pipeline.Pipeline` with a process pool or a
    certificate cache.  Results are identical either way.
    """
    return _run_pipeline(
        CheckResult, source, filename, program, profile, session, pipeline,
        verify=False,
    )


@_traced("api.verify")
def verify(
    source: str,
    *,
    filename: str = "<input>",
    program=None,
    profile: CheckProfile = DEFAULT_PROFILE,
    session=None,
    pipeline=None,
) -> VerifyResult:
    """Check, then independently verify the derivation (§5).
    ``session`` and ``pipeline`` work exactly as for :func:`check`."""
    return _run_pipeline(
        VerifyResult, source, filename, program, profile, session, pipeline,
        verify=True,
    )


@_traced("api.run")
def run(
    source: str,
    function: str,
    args: Sequence = (),
    *,
    filename: str = "<input>",
    program=None,
    profile: CheckProfile = DEFAULT_PROFILE,
    check_first: bool = True,
    erased: bool = False,
    max_steps: Optional[int] = None,
    sink_sends: bool = True,
    seed: Optional[int] = None,
    engine: str = "ir",
    session=None,
) -> RunResult:
    """Type-check (unless ``check_first=False``) and run one function
    single-threaded.  ``max_steps`` bounds execution (the server's step
    budget); exceeding it is a ``StepLimitExceeded`` diagnostic.
    ``erased=True`` uses the §3.2 verified-erasure fast path and is only
    honored when the program was checked.  ``engine`` names the executor;
    the compiled bytecode engine (``"ir"``, see :mod:`repro.ir`) is the
    only one, and any other value is a failed result.
    """
    from .runtime.heap import Heap
    from .runtime.machine import run_function

    if engine != "ir":
        return RunResult(
            ok=False,
            engine=engine,
            diagnostics=[
                Diagnostic(
                    file=filename,
                    severity="error",
                    code="MachineError",
                    message=(
                        f"unknown engine {engine!r}; expected 'ir'"
                    ),
                )
            ],
        )
    if session is None:
        session, failed = _make_session(source, filename, program, profile)
        if session is None:
            return RunResult(ok=False, engine=engine, diagnostics=failed)
    if check_first:
        try:
            session.checker.check_program()
        except TypeError_ as exc:
            return RunResult(
                ok=False,
                engine=engine,
                diagnostics=[Diagnostic.from_exception(exc, file=filename)],
            )
    if function not in session.program.funcs:
        return RunResult(
            ok=False,
            engine=engine,
            diagnostics=[
                Diagnostic(
                    file=filename,
                    severity="error",
                    code="MachineError",
                    message=f"no function {function!r}",
                )
            ],
        )
    heap = Heap()
    check_reservations = not (erased and check_first)
    try:
        value, interp = run_function(
            session.program,
            function,
            list(args),
            heap=heap,
            check_reservations=check_reservations,
            sink_sends=sink_sends,
            max_steps=max_steps,
            seed=seed,
            engine=engine,
        )
    except Exception as exc:  # runtime faults are diagnostics, not crashes
        return RunResult(
            ok=False,
            engine=engine,
            diagnostics=[Diagnostic.from_exception(exc, file=filename)],
        )
    return RunResult(
        ok=True,
        value=render_value(value, heap),
        steps=interp.stats.steps,
        reservation_checks=interp.stats.reservation_checks,
        heap_reads=heap.reads,
        heap_writes=heap.writes,
        heap_objects=len(heap),
        engine=engine,
    )


class Session:
    """A warm program handle: parse + elaborate once, then ``check`` /
    ``verify`` / ``run`` repeatedly without re-paying program-level
    costs.

    This is the stable wrapper over the pipeline's internal
    ``ProgramSession`` — embedders get warm reuse without importing
    :mod:`repro.pipeline`.  The checker core is persistent (path-copied
    contexts, interned regions), so one Session may be shared across
    threads: concurrent ``check`` calls against the same warm Session
    are safe with zero copies.

    Construction never raises on program errors: a Session whose source
    fails to parse or elaborate has ``ok == False`` and carries the
    diagnostics; its ``check``/``verify``/``run`` return failed results
    built from them.
    """

    def __init__(
        self,
        source: str,
        *,
        filename: str = "<input>",
        profile: CheckProfile = DEFAULT_PROFILE,
    ):
        self.source = source
        self.filename = filename
        self.profile = profile
        self._session, self._diagnostics = _make_session(
            source, filename, None, profile
        )

    @property
    def ok(self) -> bool:
        """Whether the source parsed and elaborated."""
        return self._session is not None

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """Parse/elaboration diagnostics (empty when ``ok``)."""
        return list(self._diagnostics)

    @property
    def program(self):
        """The parsed :class:`~repro.lang.ast.Program` (``None`` when
        construction failed)."""
        return None if self._session is None else self._session.program

    def function_names(self) -> List[str]:
        """Sorted function names (the checker's processing order)."""
        return [] if self._session is None else self._session.function_names()

    def check(self) -> CheckResult:
        if self._session is None:
            return CheckResult(ok=False, diagnostics=self.diagnostics)
        return check(
            self.source, filename=self.filename, session=self._session
        )

    def verify(self) -> VerifyResult:
        if self._session is None:
            return VerifyResult(ok=False, diagnostics=self.diagnostics)
        return verify(
            self.source, filename=self.filename, session=self._session
        )

    def run(self, function: str, args: Sequence = (), **kwargs) -> RunResult:
        if self._session is None:
            return RunResult(ok=False, diagnostics=self.diagnostics)
        return run(
            self.source,
            function,
            args,
            filename=self.filename,
            profile=self.profile,
            session=self._session,
            **kwargs,
        )

    def __repr__(self) -> str:
        status = "ok" if self.ok else "failed"
        return f"Session({self.filename!r}, {status})"


__all__ = [
    "API_VERSION",
    "CheckResult",
    "Diagnostic",
    "ExitCode",
    "RunResult",
    "Session",
    "VerifyResult",
    "check",
    "render_value",
    "run",
    "verify",
]
