"""REPL tests: the incremental checking session."""

import io

import pytest

from repro.core.errors import TypeError_
from repro.lang.parser import ParseError
from repro.repl import ReplError, Session, run_repl


@pytest.fixture()
def session():
    return Session()


class TestExpressions:
    def test_arithmetic(self, session):
        value, ty, shown = session.eval_expression("2 + 3")
        assert value == 5 and ty == "int" and shown == "5"

    def test_bindings_persist(self, session):
        session.eval_expression("let x = 10")
        value, _, _ = session.eval_expression("x * x")
        assert value == 100

    def test_heap_bindings_persist(self, session):
        session.eval_expression("let d = new data(v = 3)")
        value, ty, _ = session.eval_expression("d.v")
        assert value == 3 and ty == "int"

    def test_assignment_persists(self, session):
        session.eval_expression("let x = 1")
        session.eval_expression("x = 7")
        assert session.eval_expression("x")[0] == 7

    def test_type_errors_do_not_corrupt_session(self, session):
        session.eval_expression("let d = new data(v = 1)")
        with pytest.raises(TypeError_):
            session.eval_expression("d.v + true")
        # Session still intact.
        assert session.eval_expression("d.v")[0] == 1

    def test_shadowing_rejected(self, session):
        session.eval_expression("let x = 1")
        with pytest.raises(TypeError_):
            session.eval_expression("let x = 2")

    def test_parse_error(self, session):
        with pytest.raises(ParseError):
            session.eval_expression("1 +")


class TestDeclarations:
    def test_define_and_call(self, session):
        session.add_declarations("def double(n : int) : int { n * 2 }")
        assert session.eval_expression("double(21)")[0] == 42

    def test_define_struct_and_allocate(self, session):
        session.add_declarations("struct box { iso inner : data?; }")
        session.eval_expression("let b = new box()")
        session.eval_expression("b.inner = some(new data(v = 9))")
        value, _, _ = session.eval_expression(
            "let some(d) = b.inner in { d.v } else { 0 }"
        )
        assert value == 9

    def test_bad_declaration_rejected_atomically(self, session):
        with pytest.raises(TypeError_):
            session.add_declarations("def bad(d : data) : unit { send(d) }")
        # Program unchanged; follow-ups still work.
        session.add_declarations("def ok() : int { 1 }")
        assert session.eval_expression("ok()")[0] == 1


class TestTrackingAcrossInputs:
    def test_iso_tracking_persists(self, session):
        session.add_declarations("struct box { iso inner : data?; }")
        session.eval_expression("let b = new box()")
        session.eval_expression("let m = b.inner")
        # b is focused with inner tracked in the session context.
        tracked = session.ctx.tracked_var("b")
        assert tracked is not None and "inner" in tracked.fields

    def test_send_consumes_binding(self, session):
        session.eval_expression("let d = new data(v = 1)")
        session.eval_expression("send(d)")
        assert not session.ctx.has_var("d")
        assert "d" not in session.env
        with pytest.raises(TypeError_):
            session.eval_expression("d.v")

    def test_send_removes_objects_from_reservation(self, session):
        session.eval_expression("let d = new data(v = 1)")
        before = len(session.reservation)
        session.eval_expression("send(d)")
        assert len(session.reservation) == before - 1

    def test_recv_rejected(self, session):
        with pytest.raises(ReplError):
            session.eval_expression("let d = recv(data)")


class TestRenderings:
    def test_struct_rendering(self, session):
        _, _, shown = session.eval_expression("new data(v = 4)")
        assert shown.startswith("data{v = 4}")

    def test_show_context(self, session):
        session.eval_expression("let d = new data(v = 1)")
        assert "d: r" in session.show_context()

    def test_show_heap(self, session):
        session.eval_expression("let d = new data(v = 1)")
        assert "data{v = 1}" in session.show_heap()

    def test_show_regions(self, session):
        session.eval_expression("let d = new data(v = 1)")
        assert "dynamic region" in session.show_regions()


class TestDriver:
    def test_scripted_session(self):
        stdin = io.StringIO(
            "let d = new data(v = 20)\n"
            "d.v * 2 + 2\n"
            ":ctx\n"
            "bogus +\n"
            ":help\n"
            ":quit\n"
        )
        stdout = io.StringIO()
        assert run_repl(stdin=stdin, stdout=stdout) == 0
        out = stdout.getvalue()
        assert "42 : int" in out
        assert "Γ" in out
        assert "error:" in out
        assert ":regions" in out  # help text

    def test_multiline_declaration(self):
        stdin = io.StringIO(
            "def trip(n : int) : int {\n"
            "  n * 3\n"
            "}\n"
            "trip(5)\n"
            ":quit\n"
        )
        stdout = io.StringIO()
        run_repl(stdin=stdin, stdout=stdout)
        assert "15 : int" in stdout.getvalue()

    def test_eof_exits(self):
        stdout = io.StringIO()
        assert run_repl(stdin=io.StringIO(""), stdout=stdout) == 0
