"""Tests for the cached data-flow analysis layer
(``repro.core.analysis``): memoized ``uses`` with telemetry and the
``for_function`` escape hatch for synthetic (REPL) definitions.
"""

import pytest

from repro import telemetry
from repro.core.analysis import FunctionAnalysis, ProgramAnalysis
from repro.lang import ast, parse_program

BRANCHY = """
def f(x : int) : int {
  let y = 0;
  if (x > 0) { y = x } else { y = 0 - x };
  y
}
"""

LOOPY = """
def f(n : int) : int {
  let acc = 0;
  while (n > 0) {
    acc = acc + n;
    n = n - 1
  };
  acc
}
"""

CALLS = """
def leaf(x : int) : int { x }
def mid(x : int) : int { leaf(x) + leaf(x) }
def top(x : int) : int { mid(leaf(x)) }
def lone(x : int) : int { x * x }
"""


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    telemetry.disable()


def analysis_for(source, name="f"):
    program = parse_program(source)
    return ProgramAnalysis(program).function(name), program


class TestUsesMemo:
    def test_memoized_and_counted(self):
        analysis, program = analysis_for(BRANCHY)
        body = program.func("f").body
        reg = telemetry.enable()
        first = analysis.uses(body)
        second = analysis.uses(body)
        telemetry.disable()
        assert first == second
        assert reg.counters["analysis.uses.misses"].value == 1
        assert reg.counters["analysis.uses.hits"].value == 1

    def test_matches_uncached_oracle(self):
        from repro.core.liveness import uses as raw_uses

        analysis, program = analysis_for(LOOPY)
        for node in ast.walk(program.func("f").body):
            assert analysis.uses(node) == frozenset(raw_uses(node))


class TestProgramAnalysisCache:
    def test_function_is_memoized(self):
        program = parse_program(CALLS)
        analysis = ProgramAnalysis(program)
        assert analysis.function("mid") is analysis.function("mid")

    def test_for_function_returns_cached_for_program_defs(self):
        program = parse_program(CALLS)
        analysis = ProgramAnalysis(program)
        fdef = program.funcs["mid"]
        assert analysis.for_function(fdef) is analysis.function("mid")

    def test_for_function_synthetic_def_is_fresh_and_uncached(self):
        program = parse_program(CALLS)
        analysis = ProgramAnalysis(program)
        synthetic = parse_program("def mid(x : int) : int { x }").funcs["mid"]
        fresh = analysis.for_function(synthetic)
        assert isinstance(fresh, FunctionAnalysis)
        assert fresh is not analysis.function("mid")
        assert fresh.fdef is synthetic
        # And it did not pollute the program cache.
        assert analysis.function("mid").fdef is program.funcs["mid"]

    def test_functions_counter(self):
        program = parse_program(CALLS)
        reg = telemetry.enable()
        analysis = ProgramAnalysis(program)
        for name in program.funcs:
            analysis.function(name)
        telemetry.disable()
        assert reg.counters["analysis.functions"].value == len(program.funcs)
