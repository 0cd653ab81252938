"""Cached per-function data-flow analysis (§5.1 support).

The checker's liveness oracle and branch unification repeatedly need the
same facts about a function body: which variables an expression reads
(``uses``) and which are live after each node.  Before this module they were re-derived node by node — ``uses`` walked the
subtree on every call, and a fresh :class:`~repro.core.liveness.Liveness`
was built per function check even when a warm session re-checks the same
program.

:class:`ProgramAnalysis` owns one lazily built, immutable
:class:`FunctionAnalysis` per function.  All facts are computed once and
frozen, so a warm :class:`~repro.pipeline.session.ProgramSession` can hand the same analysis
to concurrent checker threads: construction is serialised under a small
lock, reads after publication are lock-free.

The analysis is *descriptive only*: nothing here changes which programs are
accepted or what derivations look like — it only avoids recomputing facts
the checker already relied on (CHECKER_VERSION is unaffected).

Facts provided:

* ``uses(expr)`` — memoized read-set of an expression (same contract as
  :func:`repro.core.liveness.uses`).
* ``liveness`` — the function's backward liveness table, shared across
  repeated checks of the same session.

The program's call graph lives in :func:`repro.pipeline.cache.callees_of`.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet

from ..lang import ast
from ..telemetry import registry as _telemetry
from .liveness import Liveness, uses as _uses


class FunctionAnalysis:
    """All cached facts for one function.  Immutable after construction
    except the internal ``uses`` memo, which is append-only and keyed by
    node identity (idempotent values, so concurrent fills are benign)."""

    def __init__(self, fdef: ast.FuncDef):
        self.fdef = fdef
        self.liveness = Liveness(fdef)
        self._uses: Dict[int, FrozenSet[str]] = {}
        tel = _telemetry()
        if tel.enabled:
            tel.inc("analysis.functions")

    def uses(self, expr: ast.Expr) -> FrozenSet[str]:
        """Memoized :func:`repro.core.liveness.uses`."""
        cached = self._uses.get(id(expr))
        tel = _telemetry()
        if cached is not None:
            if tel.enabled:
                tel.inc("analysis.uses.hits")
            return cached
        if tel.enabled:
            tel.inc("analysis.uses.misses")
        result = frozenset(_uses(expr))
        self._uses[id(expr)] = result
        return result

    def live_after(self, node: ast.Expr) -> FrozenSet[str]:
        return self.liveness.live_after(node)


class ProgramAnalysis:
    """Per-program analysis cache: one :class:`FunctionAnalysis` per
    function.  Thread-safe: construction of each entry is serialised,
    published entries are immutable."""

    def __init__(self, program: ast.Program):
        self._program = program
        self._lock = threading.Lock()
        self._funcs: Dict[str, FunctionAnalysis] = {}

    def function(self, name: str) -> FunctionAnalysis:
        analysis = self._funcs.get(name)
        if analysis is not None:
            return analysis
        fdef = self._program.func(name)
        with self._lock:
            analysis = self._funcs.get(name)
            if analysis is None:
                analysis = FunctionAnalysis(fdef)
                self._funcs[name] = analysis
        return analysis

    def for_function(self, fdef: ast.FuncDef) -> FunctionAnalysis:
        """Analysis for ``fdef``: the cached entry when it is the
        program's definition of that name, a fresh uncached one for
        synthetic definitions (the REPL wraps each input in a throwaway
        function that never joins the program)."""
        if self._program.funcs.get(fdef.name) is fdef:
            return self.function(fdef.name)
        return FunctionAnalysis(fdef)
