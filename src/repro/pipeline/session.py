"""A parsed/elaborated program shared across the whole check/verify stack.

Before the pipeline, every entry point re-did program-level work per call:
``verify_source`` parsed the program, the :class:`Checker` elaborated the
function-type table, and the :class:`Verifier` elaborated the same table
again.  A :class:`ProgramSession` does each exactly once — parse once per
file, elaborate once per program — and hands the shared objects to both
the prover and the verifier, which is what lets the batch runner fan
hundreds of per-function jobs out without paying the program-level costs
hundreds of times.

A session also remembers whether its program type-checks, so a warm
``api.run`` checks once per session rather than once per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .. import telemetry as tel
from ..core.checker import CHECKER_VERSION, Checker, CheckProfile, DEFAULT_PROFILE
from ..core.derivation import FuncDerivation
from ..core.errors import TypeError_
from ..core.functypes import FuncType
from ..lang import ast, parse_program
from ..verifier import Verifier
from .cache import ProgramFingerprints


class ProgramSession:
    """One program, parsed and elaborated once, with a shared checker,
    verifier, and cache-key fingerprinter hanging off it."""

    def __init__(
        self,
        source: str,
        program: Optional[ast.Program] = None,
        profile: CheckProfile = DEFAULT_PROFILE,
        record: bool = True,
        version: str = CHECKER_VERSION,
    ):
        self.source = source
        self.program = program if program is not None else parse_program(source)
        self.profile = profile
        self.version = version
        self.checker = Checker(self.program, profile=profile, record=record)
        self.verifier = Verifier(self.program, functypes=self.checker.functypes)
        self._fingerprints: Optional[ProgramFingerprints] = None
        # The check verdict: None until checked, then True or the
        # rejection.  Like ``ir/bytecode.py``'s per-program compile cache,
        # it treats ``self.program`` as immutable.
        self._verdict: Union[None, bool, TypeError_] = None

    @property
    def functypes(self) -> Dict[str, FuncType]:
        return self.checker.functypes

    @property
    def fingerprints(self) -> ProgramFingerprints:
        if self._fingerprints is None:
            self._fingerprints = ProgramFingerprints(
                self.program, profile=self.profile, version=self.version
            )
        return self._fingerprints

    def function_names(self) -> List[str]:
        """Sorted, matching the order ``Checker.check_program`` checks in
        (and therefore which type error a serial run reports first)."""
        return sorted(self.program.funcs)

    def function_key(self, name: str) -> str:
        return self.fingerprints.key(name)

    def check_function(self, name: str) -> FuncDerivation:
        return self.checker.check_function(name)

    def verify_function(self, fd: FuncDerivation) -> int:
        return self.verifier.verify_function(fd)

    def check_once(self) -> None:
        """Raise the program's type error, if it has one.

        The first call runs this session's own checker over the whole
        program; later calls reuse its verdict (counted as
        ``checker.verdict_reused``).  Only an accept or a ``TypeError_``
        is remembered, and only the flag is kept, not the derivation.
        Nothing else writes the verdict: a :class:`Pipeline` result,
        cached or trusted certificates included, never marks a session
        checked.  Two threads making the first call at once may both
        check; the race is benign, because checking is idempotent.
        """
        verdict = self._verdict
        if verdict is None:
            try:
                self.checker.check_program()
            except TypeError_ as exc:
                self._verdict = exc
                raise
            self._verdict = True
            return
        reg = tel.registry()
        if reg.enabled:
            reg.inc("checker.verdict_reused")
        if verdict is not True:
            # A fresh traceback each time, so repeats do not grow it.
            raise verdict.with_traceback(None)
