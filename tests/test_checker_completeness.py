"""Completeness-flavoured property tests.

Hypothesis composes random FCL programs from statement templates that are
well-typed *by construction* (they never consume a value that is reused,
never leak a parameter, and keep branch effects symmetric).  The checker
must accept every one, the verifier must validate every derivation, and
the runtime must run them with zero reservation faults and exact
refcounts.

This guards against the checker rejecting reasonable programs (the paper's
whole pitch is *flexibility*) and against unification regressions: every
`if` inserts a join, every loop an invariant search.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import check_iso_domination, check_refcounts
from repro.core.checker import Checker
from repro.lang import parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import run_function
from repro.verifier import Verifier

HEADER = """
struct data { v : int; }
struct box { iso inner : data?; tag : int; }
struct cell { other : cell; tag : int; }
"""


class _Gen:
    """Stateful program builder; every emitted statement is well-typed."""

    def __init__(self):
        self.lines = []
        self.counter = 0
        self.boxes = []
        self.cells = []
        self.ints = []

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def emit(self, line, depth):
        self.lines.append("  " * (depth + 1) + line)


def _statement(draw, gen: _Gen, depth: int) -> None:
    choices = ["new_box", "new_cell", "new_int", "fill_box", "read_box",
               "bump_tag", "link_cells", "if_stmt", "loop"]
    kind = draw(st.sampled_from(choices))
    if kind == "new_box":
        name = gen.fresh("b")
        gen.emit(f"let {name} = new box();", depth)
        gen.boxes.append(name)
    elif kind == "new_cell":
        name = gen.fresh("c")
        gen.emit(f"let {name} = new cell();", depth)
        gen.cells.append(name)
    elif kind == "new_int":
        name = gen.fresh("k")
        value = draw(st.integers(min_value=0, max_value=9))
        gen.emit(f"let {name} = {value};", depth)
        gen.ints.append(name)
    elif kind == "fill_box" and gen.boxes:
        box = draw(st.sampled_from(gen.boxes))
        value = draw(st.integers(min_value=0, max_value=9))
        gen.emit(f"{box}.inner = some(new data(v = {value}));", depth)
    elif kind == "read_box" and gen.boxes:
        box = draw(st.sampled_from(gen.boxes))
        name = gen.fresh("r")
        gen.emit(
            f"let {name} = let some(d) = {box}.inner in {{ d.v }} "
            f"else {{ 0 }};",
            depth,
        )
        gen.ints.append(name)
    elif kind == "bump_tag" and gen.boxes:
        box = draw(st.sampled_from(gen.boxes))
        gen.emit(f"{box}.tag = {box}.tag + 1;", depth)
    elif kind == "link_cells" and len(gen.cells) >= 2:
        a = draw(st.sampled_from(gen.cells))
        b = draw(st.sampled_from(gen.cells))
        gen.emit(f"{a}.other = {b};", depth)
    elif kind == "if_stmt" and depth < 2 and gen.ints:
        cond = draw(st.sampled_from(gen.ints))
        gen.emit(f"if ({cond} > 3) {{", depth)
        # Branch bodies only touch existing state symmetrically: prim
        # updates and box fills are join-safe.
        inner = draw(st.integers(min_value=1, max_value=2))
        for _ in range(inner):
            _branch_safe_statement(draw, gen, depth + 1)
        gen.emit("} else {", depth)
        for _ in range(inner):
            _branch_safe_statement(draw, gen, depth + 1)
        gen.emit("};", depth)
    elif kind == "loop" and depth < 2:
        var = gen.fresh("i")
        count = draw(st.integers(min_value=0, max_value=3))
        gen.emit(f"let {var} = {count};", depth)
        gen.emit(f"while ({var} > 0) {{", depth)
        _branch_safe_statement(draw, gen, depth + 1)
        gen.emit(f"{var} = {var} - 1", depth + 1)
        gen.emit("};", depth)


def _branch_safe_statement(draw, gen: _Gen, depth: int) -> None:
    kind = draw(st.sampled_from(["fill_box", "bump_tag", "link_cells", "noop"]))
    if kind == "fill_box" and gen.boxes:
        box = draw(st.sampled_from(gen.boxes))
        value = draw(st.integers(min_value=0, max_value=9))
        gen.emit(f"{box}.inner = some(new data(v = {value}));", depth)
    elif kind == "bump_tag" and gen.boxes:
        box = draw(st.sampled_from(gen.boxes))
        gen.emit(f"{box}.tag = {box}.tag + 7;", depth)
    elif kind == "link_cells" and len(gen.cells) >= 2:
        a = draw(st.sampled_from(gen.cells))
        b = draw(st.sampled_from(gen.cells))
        gen.emit(f"{a}.other = {b};", depth)
    else:
        gen.emit("();", depth)


@st.composite
def programs(draw):
    gen = _Gen()
    count = draw(st.integers(min_value=1, max_value=14))
    for _ in range(count):
        _statement(draw, gen, 0)
    total = " + ".join(gen.ints) if gen.ints else "0"
    body = "\n".join(gen.lines)
    return HEADER + "def main() : int {\n" + body + f"\n  {total}\n}}\n"


@given(programs())
@settings(max_examples=120, deadline=None)
def test_generated_programs_accepted_verified_and_run(source):
    program = parse_program(source)
    derivation = Checker(program).check_program()  # must accept
    Verifier(program).verify_program(derivation)  # must verify
    heap = Heap()
    result, _ = run_function(program, "main", heap=heap)  # must not get stuck
    assert isinstance(result, int)
    check_refcounts(heap)
    # I2 roots are the stack-reachable entry points; approximate them as
    # source objects (no incoming heap references at all).
    from repro.runtime.values import is_loc

    incoming = set()
    for loc in heap.locations():
        for value in heap.obj(loc).fields.values():
            if is_loc(value):
                incoming.add(value)
    roots = [loc for loc in heap.locations() if loc not in incoming]
    check_iso_domination(heap, roots)


@given(programs())
@settings(max_examples=60, deadline=None)
def test_generated_programs_agree_across_semantics(source):
    """Both runtimes (the bytecode engine, the fig 7 small-step machine)
    produce identical results and identical heap traffic on arbitrary
    generated programs."""
    from repro.runtime.smallstep import run_function_smallstep

    program = parse_program(source)
    Checker(program).check_program()
    heap_big = Heap()
    big, _ = run_function(program, "main", heap=heap_big)
    heap_small = Heap()
    small, _ = run_function_smallstep(program, "main", heap=heap_small)
    assert big == small
    assert (heap_big.reads, heap_big.writes) == (
        heap_small.reads,
        heap_small.writes,
    )
    assert len(heap_big) == len(heap_small)
