"""Small-step machine tests: agreement with the bytecode engine,
step-granular invariants, constant Python stack, fig 7 dynamic checks."""

import pytest

from repro.analysis import check_refcounts
from repro.corpus import load_program
from repro.lang import parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import (
    DeadlockError,
    Machine,
    MachineError,
    ReservationViolation,
    run_function,
)
from repro.runtime.smallstep import (
    BLOCKED_RECV,
    DONE,
    RUNNING,
    Config,
    SmallStepMachine,
    run_function_smallstep,
)
from repro.runtime.values import NONE, UNIT

STRUCTS = """
struct data { v : int; }
struct box { iso inner : data?; tag : int; }
struct cell { other : cell; tag : int; }
"""


def both(body, params="", args=(), ret="int"):
    """Run under both semantics; assert identical results and identical
    heap traffic; return the value."""
    program = parse_program(STRUCTS + f"def fn({params}) : {ret} {{ {body} }}")
    heap_big = Heap()
    big, _ = run_function(program, "fn", args, heap=heap_big)
    heap_small = Heap()
    small, _config = run_function_smallstep(program, "fn", args, heap=heap_small)
    assert big == small
    assert (heap_big.reads, heap_big.writes) == (heap_small.reads, heap_small.writes)
    return small


class TestAgreement:
    def test_arithmetic(self):
        assert both("1 + 2 * 3 - 4") == 3

    def test_logic_and_compare(self):
        assert both("(1 < 2) && !(3 == 4)", ret="bool") is True

    def test_let_blocks_assign(self):
        assert both("let x = 1; { let y = x + 1; x = y * 10 }; x") == 20

    def test_if(self):
        assert both("if (2 > 1) { 10 } else { 20 }") == 10

    def test_while(self):
        assert (
            both("let i = 6; let a = 0; while (i > 0) { a = a + i; i = i - 1 }; a")
            == 21
        )

    def test_heap_ops(self):
        assert (
            both(
                "let b = new box(); b.tag = 4; "
                "b.inner = some(new data(v = 5)); "
                "let some(d) = b.inner in { d.v + b.tag } else { 0 }"
            )
            == 9
        )

    def test_calls(self):
        program = parse_program(
            STRUCTS
            + """
def fib(n : int) : int {
  if (n < 2) { n } else { fib(n - 1) + fib(n - 2) }
}
"""
        )
        big, _ = run_function(program, "fib", [12])
        small, _ = run_function_smallstep(program, "fib", [12])
        assert big == small == 144

    def test_let_some_paths(self):
        assert (
            both(
                "let b = new box(); "
                "let a = let some(d) = b.inner in { 1 } else { 2 }; "
                "b.inner = some(new data(v = 0)); "
                "let c = let some(d) = b.inner in { 3 } else { 4 }; "
                "a * 10 + c"
            )
            == 23
        )

    def test_reference_equality(self):
        assert (
            both(
                "let a = new cell(); let b = a; "
                "if (a == b) { 1 } else { 0 }"
            )
            == 1
        )

    def test_if_disconnected_agreement(self):
        program = load_program("dll")
        for semantics in ("big", "small"):
            heap = Heap()
            runner = run_function if semantics == "big" else run_function_smallstep
            lst, _ = runner(program, "make_dll", [4], heap=heap)
            values = []
            for _ in range(4):
                payload, _ = runner(program, "remove_tail", [lst], heap=heap)
                values.append(heap.obj(payload).fields["v"])
            assert values == [4, 3, 2, 1]
            assert heap.obj(lst).fields["hd"] is NONE


class TestCorpusAgreement:
    def test_rbtree(self):
        program = load_program("rbtree")
        heap = Heap()
        tree, _ = run_function_smallstep(program, "build_tree", [60, 9], heap=heap)
        valid, _ = run_function_smallstep(
            program, "rb_valid", [tree, -1, 1 << 30], heap=heap
        )
        assert valid
        check_refcounts(heap)

    def test_mergesort(self):
        program = load_program("algorithms")
        heap = Heap()
        lst, _ = run_function_smallstep(
            program, "make_list_lcg", [40, 3], heap=heap
        )
        run_function_smallstep(program, "sort", [lst], heap=heap)
        ok, _ = run_function_smallstep(program, "list_is_sorted", [lst], heap=heap)
        assert ok


class TestConstantStack:
    def test_deep_recursion_without_python_recursion(self):
        # A 20,000-deep FCL recursion runs in constant Python stack: the
        # continuation is an explicit frame list, not Python recursion.
        import sys

        program = parse_program(
            "def count(n : int) : int { if (n == 0) { 0 } else { 1 + count(n - 1) } }"
        )
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(256)
            result, config = run_function_smallstep(program, "count", [20_000])
        finally:
            sys.setrecursionlimit(limit)
        assert result == 20_000
        assert config.steps > 100_000

    def test_long_list_remove_tail(self):
        program = load_program("sll")
        heap = Heap()
        lst, _ = run_function_smallstep(program, "make_list", [5_000], heap=heap)
        head = heap.obj(lst).fields["hd"]
        payload, _ = run_function_smallstep(
            program, "remove_tail", [head], heap=heap
        )
        assert heap.obj(payload).fields["v"] == 5_000

    def test_run_budget_is_optional(self):
        program = parse_program(
            "def count(n : int) : int { if (n == 0) { 0 } else { 1 + count(n - 1) } }"
        )
        with pytest.raises(MachineError, match="step budget exhausted"):
            Config(program, Heap(), set(), "count", [50]).run(max_steps=10)
        config = Config(program, Heap(), set(), "count", [50])
        assert config.run(max_steps=None) == 50
        assert config.steps > 10


class TestReservations:
    def test_out_of_reservation_var_use_sticks(self):
        program = parse_program(STRUCTS + "def f(d : data) : int { d.v }")
        heap = Heap()
        d = heap.alloc(program.structs["data"], {"v": 1})
        config = Config(program, heap, {d}, "f", [d])
        config.reservation.clear()  # simulate loss of the reservation
        with pytest.raises(ReservationViolation):
            config.run()

    def test_checks_erasable(self):
        program = parse_program(STRUCTS + "def f(d : data) : int { d.v }")
        heap = Heap()
        d = heap.alloc(program.structs["data"], {"v": 7})
        config = Config(program, heap, {d}, "f", [d], check_reservations=False)
        config.reservation.clear()
        assert config.run() == 7

    def test_step_statuses(self):
        program = parse_program("def f() : int { 1 + 2 }")
        config = Config(program, Heap(), set(), "f", [])
        statuses = []
        while config.status == RUNNING:
            statuses.append(config.step())
        assert statuses[-1] == DONE
        assert config.result == 3
        assert config.steps == len(statuses)


class TestConcurrent:
    def test_queue_pipeline(self):
        program = load_program("queue")
        machine = SmallStepMachine(program, seed=13)
        machine.spawn("source", [15])
        machine.spawn("relay", [15])
        sink = machine.spawn("sink", [15])
        machine.run()
        assert sink.result == 120
        assert machine.reservations_disjoint()

    def test_agreement_with_generator_machine(self):
        program = load_program("queue")
        results = []
        for make in (Machine, SmallStepMachine):
            machine = make(program, seed=4)
            machine.spawn("source", [9])
            machine.spawn("relay", [9])
            sink = machine.spawn("sink", [9])
            machine.run()
            results.append(sink.result)
        assert results[0] == results[1] == 45

    def test_deadlock_detection(self):
        program = parse_program(
            "struct data { v : int; } def r() : int { let d = recv(data); d.v }"
        )
        machine = SmallStepMachine(program, seed=0)
        machine.spawn("r")
        with pytest.raises(DeadlockError):
            machine.run()

    def test_use_after_send_stuck(self):
        program = parse_program(
            """
            struct data { v : int; }
            def bad() : int { let d = new data(v = 1); send(d); d.v }
            def ok() : int { let d = recv(data); d.v }
            """
        )
        machine = SmallStepMachine(program, seed=0)
        machine.spawn("bad")
        machine.spawn("ok")
        with pytest.raises(ReservationViolation):
            machine.run()

    def test_step_granular_disjointness(self):
        # I1 audited after *every* scheduler step.
        program = load_program("queue")
        machine = SmallStepMachine(program, seed=21)
        machine.spawn("source", [5])
        machine.spawn("relay", [5])
        sink = machine.spawn("sink", [5])
        for _ in range(2_000_000):
            machine._match_rendezvous()
            runnable = [c for c in machine.configs if c.status == RUNNING]
            if not runnable:
                blocked = [
                    c
                    for c in machine.configs
                    if c.status in ("blocked_send", "blocked_recv")
                ]
                if not blocked:
                    break
                continue
            machine.rng.choice(runnable).step()
            assert machine.reservations_disjoint()
        assert sink.result == 15


class TestAuditedRuns:
    def test_preservation_audits_pass(self):
        # The executable preservation theorem: invariants re-checked every
        # scheduler step across a whole concurrent run.
        program = load_program("queue")
        machine = SmallStepMachine(program, seed=17, audit_every=1)
        machine.spawn("source", [6])
        machine.spawn("relay", [6])
        sink = machine.spawn("sink", [6])
        machine.run()
        assert sink.result == 21
        assert machine.audits > 1_000

    def test_audits_catch_manufactured_overlap(self):
        from repro.analysis.invariants import InvariantViolation
        from repro.runtime.values import Loc

        program = load_program("queue")
        machine = SmallStepMachine(program, seed=17, audit_every=1)
        machine.spawn("source", [3])
        machine.spawn("relay", [3])
        machine.spawn("sink", [3])
        # Corrupt: force the same location into two reservations.
        bogus = Loc(999_999)
        machine.configs[0].reservation.add(bogus)
        machine.configs[1].reservation.add(bogus)
        with pytest.raises(InvariantViolation):
            machine.run()
