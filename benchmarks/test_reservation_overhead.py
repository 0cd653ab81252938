"""E5 — erasability of dynamic reservation checks (§3.2).

The paper proves that well-typed programs never fail a reservation check,
"hence, a real implementation has no need to track the reservation or to
perform such checks at run time".  We measure the bytecode engine with
and without the checks on the same workloads: identical results, with the
checked tier paying the guards (the erased tier also runs the full
optimizer; see EXPERIMENTS.md E5).
"""

import pytest

from repro.corpus import load_program
from repro.runtime.heap import Heap
from repro.runtime.machine import run_function

WORKLOADS = {
    "sll-traverse": ("sll", "sum", 200),
    "dll-walk": ("dll", "dll_length", 200),
}


def _run(name, checks):
    corpus, fn, n = WORKLOADS[name]
    program = load_program(corpus)
    heap = Heap()
    maker = "make_list" if corpus == "sll" else "make_dll"
    lst, _ = run_function(
        program, maker, [n], heap=heap, check_reservations=checks
    )
    result, _ = run_function(
        program, fn, [lst], heap=heap, check_reservations=checks
    )
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("checks", [True, False], ids=["checked", "erased"])
def test_interpreter_overhead(benchmark, name, checks):
    result = benchmark(lambda: _run(name, checks))
    assert result == _run(name, not checks)  # erasure preserves semantics


def test_erasure_preserves_all_corpus_results():
    """Functional equivalence across the corpus drivers."""
    cases = [
        ("sll", "make_list", "sum", 50),
        ("dll", "make_dll", "dll_sum", 50),
    ]
    for corpus, maker, fn, n in cases:
        results = []
        for checks in (True, False):
            program = load_program(corpus)
            heap = Heap()
            lst, _ = run_function(
                program, maker, [n], heap=heap, check_reservations=checks
            )
            value, _ = run_function(
                program, fn, [lst], heap=heap, check_reservations=checks
            )
            results.append(value)
        assert results[0] == results[1]
