"""Evaluation and heap semantics tests."""

import pytest

from repro.lang import parse_program
from repro.runtime.heap import Heap, HeapError
from repro.runtime.machine import (
    MachineError,
    ReservationViolation,
    run_function,
)
from repro.runtime.smallstep import run_function_smallstep
from repro.runtime.values import NONE, UNIT, Loc

STRUCTS = """
struct data { v : int; }
struct box { iso inner : data?; flag : bool; }
struct cell { other : cell; tag : int; }
"""


def run(body, params="", args=(), ret="int", heap=None, **kwargs):
    program = parse_program(STRUCTS + f"def fn({params}) : {ret} {{ {body} }}")
    return run_function(program, "fn", args, heap=heap, **kwargs)


class TestEvaluation:
    def test_arithmetic(self):
        assert run("2 + 3 * 4")[0] == 14

    def test_division_truncates(self):
        assert run("7 / 2")[0] == 3

    @staticmethod
    def _raises_everywhere(body, message):
        """The small-step reference, guarded IR and erased IR raise the
        same MachineError message."""
        program = parse_program(STRUCTS + f"def fn() : int {{ {body} }}")
        executors = (
            lambda: run_function_smallstep(program, "fn"),
            lambda: run_function(program, "fn"),
            lambda: run_function(program, "fn", check_reservations=False),
        )
        for execute in executors:
            with pytest.raises(MachineError, match=f"^{message}$"):
                execute()

    def test_division_by_zero(self):
        self._raises_everywhere("1 / 0", "division by zero")

    def test_modulo_by_zero(self):
        self._raises_everywhere("1 % 0", "modulo by zero")

    def test_comparisons(self):
        assert run("(1 < 2) && (2 <= 2) && (3 > 2) && (3 >= 3)", ret="bool")[0]

    def test_equality(self):
        assert run("1 == 1", ret="bool")[0] is True
        assert run("1 != 1", ret="bool")[0] is False

    def test_unops(self):
        assert run("-5")[0] == -5
        assert run("!false", ret="bool")[0] is True

    def test_unit(self):
        assert run("()", ret="unit")[0] is UNIT

    def test_let_and_blocks(self):
        assert run("let x = 1; { let y = 2; x + y }")[0] == 3

    def test_block_value_is_last_expr(self):
        assert run("{ 1; 2; 3 }")[0] == 3

    def test_block_ending_in_let_is_unit(self):
        assert run("{ let x = 1 }", ret="unit")[0] is UNIT

    def test_assignment(self):
        assert run("let x = 1; x = x + 10; x")[0] == 11

    def test_if_branches(self):
        assert run("if (true) { 1 } else { 2 }")[0] == 1
        assert run("if (false) { 1 } else { 2 }")[0] == 2

    def test_while_computes(self):
        assert run(
            "let i = 5; let acc = 0; while (i > 0) { acc = acc + i; i = i - 1 }; acc"
        )[0] == 15

    def test_let_some_paths(self):
        body = (
            "let b = new box(); "
            "let first = let some(d) = b.inner in { 1 } else { 2 }; "
            "let d2 = new data(v = 1); b.inner = some(d2); "
            "let second = let some(d) = b.inner in { 10 } else { 20 }; "
            "first * 100 + second"
        )
        assert run(body)[0] == 210

    def test_reference_equality(self):
        body = (
            "let a = new cell(); let b = a; let c = new cell(); "
            "if (a == b) { if (a != c) { 1 } else { 2 } } else { 3 }"
        )
        assert run(body)[0] == 1


class TestHeap:
    def test_alloc_defaults(self):
        program = parse_program(STRUCTS)
        heap = Heap()
        loc = heap.alloc(program.structs["box"], {})
        assert heap.obj(loc).fields["inner"] is NONE
        assert heap.obj(loc).fields["flag"] is False

    def test_self_reference_default(self):
        program = parse_program(STRUCTS)
        heap = Heap()
        loc = heap.alloc(program.structs["cell"], {})
        assert heap.obj(loc).fields["other"] == loc
        # And the self-reference is counted.
        assert heap.obj(loc).stored_refcount == 1

    def test_missing_default_raises(self):
        program = parse_program(
            "struct a { x : int; } struct h { item : a; }"
        )
        heap = Heap()
        with pytest.raises(HeapError):
            heap.alloc(program.structs["h"], {})

    def test_dangling_location(self):
        heap = Heap()
        with pytest.raises(HeapError):
            heap.obj(Loc(99))

    def test_refcount_maintenance_on_writes(self):
        program = parse_program(STRUCTS)
        heap = Heap()
        a = heap.alloc(program.structs["cell"], {})
        b = heap.alloc(program.structs["cell"], {})
        heap.write_field(a, "other", b)
        assert heap.obj(b).stored_refcount == 2  # self + a.other
        assert heap.obj(a).stored_refcount == 0
        heap.write_field(a, "other", a)
        assert heap.obj(b).stored_refcount == 1
        assert heap.obj(a).stored_refcount == 1

    def test_iso_fields_not_counted(self):
        program = parse_program(STRUCTS)
        heap = Heap()
        b = heap.alloc(program.structs["box"], {})
        d = heap.alloc(program.structs["data"], {"v": 1})
        heap.write_field(b, "inner", d)
        assert heap.obj(d).stored_refcount == 0  # §5.2: non-iso refs only

    def test_live_set_crosses_everything(self):
        program = parse_program(STRUCTS)
        heap = Heap()
        b = heap.alloc(program.structs["box"], {})
        d = heap.alloc(program.structs["data"], {"v": 1})
        heap.write_field(b, "inner", d)
        assert heap.live_set(b) == {b, d}

    def test_read_write_counters(self):
        heap = Heap()
        _, interp = run(
            "let c = new cell(); c.tag = 5; c.tag + c.tag", heap=heap
        )
        assert heap.writes == 1
        assert heap.reads == 2


class TestReservations:
    def test_accesses_inside_reservation_ok(self):
        result, interp = run("let d = new data(v = 3); d.v")
        assert result == 3

    def test_access_outside_reservation_violates(self):
        program = parse_program(STRUCTS + "def f(d : data) : int { d.v }")
        heap = Heap()
        d = heap.alloc(program.structs["data"], {"v": 1})
        # Empty reservation: even the parameter use must get stuck.
        with pytest.raises(ReservationViolation):
            run_function(program, "f", [d], heap=heap, reservation=set())

    def test_checks_erasable(self):
        program = parse_program(STRUCTS + "def f(d : data) : int { d.v }")
        heap = Heap()
        d = heap.alloc(program.structs["data"], {"v": 9})
        result, _ = run_function(
            program, "f", [d], heap=heap, reservation=set(), check_reservations=False
        )
        assert result == 9

    def test_alloc_joins_reservation(self):
        _, interp = run("let d = new data(v = 1); d.v")
        assert len(interp.reservation) == 1


class TestErrors:
    def test_none_in_non_nullable_position(self):
        # Field read through a none: a dynamic error (MachineError), only
        # reachable by bypassing the checker.
        program = parse_program(
            STRUCTS + "def f(b : box) : unit { b.inner.v; () }"
        )
        heap = Heap()
        b = heap.alloc(program.structs["box"], {})
        with pytest.raises(MachineError):
            run_function(program, "f", [b], heap=heap)

    def test_send_needs_machine(self):
        program = parse_program(
            STRUCTS + "def f() : unit { let d = new data(v = 1); send(d) }"
        )
        with pytest.raises(MachineError):
            run_function(program, "f")

    def test_unbound_runtime_variable(self):
        # Only constructible by running an unchecked program.
        program = parse_program(STRUCTS + "def f() : int { ghost }")
        with pytest.raises(MachineError):
            run_function(program, "f")
