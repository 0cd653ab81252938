"""Implementation comparison: the compiled bytecode engine vs the fig 7
small-step reference machine, plus step-throughput of the small-step
semantics.

Not a paper experiment per se; an engineering ablation showing both
runtimes agree while trading speed (compiled bytecode) against fidelity
to the paper's presentation (one transition per step, constant Python
stack).
"""

import pytest

from repro.corpus import load_program
from repro.runtime.heap import Heap
from repro.runtime.machine import run_function
from repro.runtime.smallstep import run_function_smallstep

WORKLOADS = {
    "sll-sum": ("sll", "make_list", "sum", 120),
    "rbtree-build": ("rbtree", None, None, 0),
}


@pytest.mark.parametrize("semantics", ["ir", "smallstep"])
def test_list_traversal(benchmark, semantics):
    program = load_program("sll")
    runner = run_function if semantics == "ir" else run_function_smallstep

    def run():
        heap = Heap()
        lst, _ = runner(program, "make_list", [100], heap=heap)
        return runner(program, "sum", [lst], heap=heap)[0]

    assert benchmark(run) == 100 * 101 // 2


@pytest.mark.parametrize("semantics", ["ir", "smallstep"])
def test_rbtree_build(benchmark, semantics):
    program = load_program("rbtree")
    runner = run_function if semantics == "ir" else run_function_smallstep

    def run():
        heap = Heap()
        tree, _ = runner(program, "build_tree", [80, 5], heap=heap)
        return runner(program, "tree_size", [tree], heap=heap)[0]

    assert benchmark(run) > 0


def test_step_throughput(benchmark):
    """Raw small-step transitions per second (fib workload)."""
    from repro.lang import parse_program
    from repro.runtime.smallstep import Config

    program = parse_program(
        "def fib(n : int) : int { if (n < 2) { n } else { fib(n-1) + fib(n-2) } }"
    )

    def run():
        config = Config(program, Heap(), set(), "fib", [15])
        result = config.run()
        return result, config.steps

    result, steps = benchmark(run)
    assert result == 610
    assert steps > 10_000
