"""repro — a reproduction of "A Flexible Type System for Fearless
Concurrency" (Milano, Turcotti, Myers; PLDI 2022).

The package implements the paper's language (FCL), its tempered-domination
region type system with the focus mechanism and virtual transformations,
the prover–verifier checking architecture, the dynamic reservation-safe
runtime (a compiled bytecode engine checked against the fig 7 small-step
machine) with the efficient ``if disconnected`` primitive, message-passing
concurrency, and the Table 1 baseline models.

Quickstart (the stable facade — see docs/API.md)::

    from repro import api

    src = open("examples/list.fcl").read()
    result = api.check(src)                 # CheckResult, never raises
    if result.ok:
        print(api.run(src, "main").value)

For warm reuse (many calls against one program) hold an
:class:`api.Session <repro.api.Session>`; for per-function parallelism
pass ``jobs=``/``mode=`` to ``api.check``/``api.verify``.

The legacy exception-raising ``*_source`` entry points at the package
root were removed after their deprecation period; use
:func:`repro.api.check` / :func:`repro.api.verify` (see the deprecation
table in docs/API.md).
"""

from . import api
from .api import (
    CheckResult,
    Diagnostic,
    ExitCode,
    RunResult,
    Session,
    VerifyResult,
)
from .core.checker import CheckProfile, Checker
from .core.errors import TypeError_
from .lang import ParseError, parse_program, pretty_program
from .runtime.machine import (
    DeadlockError,
    Machine,
    ReservationViolation,
    run_function,
)
from .verifier.verifier import VerificationError, Verifier

__version__ = "1.4.0"


__all__ = [
    "api",
    "CheckResult",
    "Checker",
    "CheckProfile",
    "Diagnostic",
    "ExitCode",
    "RunResult",
    "Session",
    "VerifyResult",
    "TypeError_",
    "ParseError",
    "parse_program",
    "pretty_program",
    "Machine",
    "run_function",
    "ReservationViolation",
    "DeadlockError",
    "Verifier",
    "VerificationError",
    "__version__",
]
