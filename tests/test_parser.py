"""Parser unit tests."""

import pytest

from repro.lang import ast, parse_expr, parse_program
from repro.lang.parser import ParseError


class TestStructs:
    def test_empty_struct(self):
        p = parse_program("struct s { }")
        assert p.structs["s"].fields == []

    def test_fields_and_iso(self):
        p = parse_program("struct s { iso a : data; b : int; c : s?; }")
        s = p.structs["s"]
        assert [f.name for f in s.fields] == ["a", "b", "c"]
        assert s.field_decl("a").is_iso
        assert not s.field_decl("b").is_iso
        assert s.field_decl("b").ty == ast.INT
        assert isinstance(s.field_decl("c").ty, ast.MaybeType)

    def test_duplicate_struct_rejected(self):
        with pytest.raises(ParseError):
            parse_program("struct s { } struct s { }")

    def test_duplicate_field_rejected(self):
        with pytest.raises(ParseError):
            parse_program("struct s { a : int; a : int; }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("struct s { a : int }")


class TestTypes:
    def test_maybe_of_struct(self):
        p = parse_program("struct s { x : foo?; }")
        ty = p.structs["s"].field_decl("x").ty
        assert isinstance(ty, ast.MaybeType)
        assert ty.inner == ast.StructType("foo")

    def test_nested_maybe_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            ast.MaybeType(ast.MaybeType(ast.INT))


class TestFunctions:
    def test_simple(self):
        p = parse_program("def f() : int { 1 }")
        f = p.funcs["f"]
        assert f.params == []
        assert f.return_type == ast.INT

    def test_default_return_type_is_unit(self):
        p = parse_program("def f() { 1 }")
        assert p.funcs["f"].return_type == ast.UNIT

    def test_grouped_params(self):
        # "l1, l2 : sll_node" declares two parameters of one type (fig 14).
        p = parse_program("def f(l1, l2 : node, k : int) : unit { () }")
        f = p.funcs["f"]
        assert [(q.name, str(q.ty)) for q in f.params] == [
            ("l1", "node"),
            ("l2", "node"),
            ("k", "int"),
        ]

    def test_consumes(self):
        p = parse_program("def f(a, b : node) : unit consumes b { () }")
        assert p.funcs["f"].consumes == ["b"]

    def test_consumes_multiple(self):
        p = parse_program("def f(a, b : node) : unit consumes a, b { () }")
        assert p.funcs["f"].consumes == ["a", "b"]

    def test_after_relation(self):
        p = parse_program(
            "def f(l : dll) : node? after: l.hd ~ result { none }"
        )
        assert p.funcs["f"].after == [(("l", "hd"), ("result",))]

    def test_before_relation(self):
        p = parse_program("def f(a, b : node) : unit before: a ~ b { () }")
        assert p.funcs["f"].before == [(("a",), ("b",))]

    def test_duplicate_function_rejected(self):
        with pytest.raises(ParseError):
            parse_program("def f() { () } def f() { () }")


class TestExpressions:
    def test_precedence_arith(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, ast.Binop) and e.op == "+"
        assert isinstance(e.right, ast.Binop) and e.right.op == "*"

    def test_precedence_comparison_binds_looser(self):
        e = parse_expr("1 + 2 < 3 * 4")
        assert isinstance(e, ast.Binop) and e.op == "<"

    def test_logic_precedence(self):
        e = parse_expr("a && b || c")
        assert isinstance(e, ast.Binop) and e.op == "||"
        assert isinstance(e.left, ast.Binop) and e.left.op == "&&"

    def test_unary(self):
        e = parse_expr("!x")
        assert isinstance(e, ast.Unop) and e.op == "!"
        e = parse_expr("-5")
        assert isinstance(e, ast.Unop) and e.op == "-"

    def test_field_chain(self):
        e = parse_expr("a.b.c")
        assert isinstance(e, ast.FieldRef) and e.fieldname == "c"
        assert isinstance(e.base, ast.FieldRef) and e.base.fieldname == "b"

    def test_assignment_to_field_path(self):
        e = parse_expr("tail.prev.next = hd")
        assert isinstance(e, ast.Assign)
        assert isinstance(e.target, ast.FieldRef)
        assert e.target.fieldname == "next"

    def test_assignment_target_must_be_lvalue(self):
        with pytest.raises(ParseError):
            parse_expr("f() = 3")

    def test_some_with_and_without_parens(self):
        # The paper writes both `some(e)` and `some e` (fig 14).
        for text in ("some(x)", "some x"):
            e = parse_expr(text)
            assert isinstance(e, ast.SomeExpr)
            assert isinstance(e.inner, ast.VarRef)

    def test_some_without_parens_takes_postfix(self):
        e = parse_expr("some l2.next")
        assert isinstance(e, ast.SomeExpr)
        assert isinstance(e.inner, ast.FieldRef)

    def test_new_with_inits(self):
        e = parse_expr("new sll_node(payload = d, next = none)")
        assert isinstance(e, ast.New)
        assert set(e.inits) == {"payload", "next"}

    def test_new_duplicate_init_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("new t(a = 1, a = 2)")

    def test_duplicate_init_blames_the_repeated_field(self):
        with pytest.raises(ParseError) as err:
            parse_expr("new t(a = 1,\n      a = 2)")
        assert str(err.value) == "2:7: duplicate initializer 'a'"
        assert (err.value.span.start, err.value.span.end) == (19, 20)

    def test_call(self):
        e = parse_expr("f(x, 1 + 2)")
        assert isinstance(e, ast.Call) and len(e.args) == 2

    def test_unit_literal(self):
        assert isinstance(parse_expr("()"), ast.UnitLit)

    def test_parenthesized(self):
        e = parse_expr("(1 + 2) * 3")
        assert isinstance(e, ast.Binop) and e.op == "*"

    def test_send_recv(self):
        s = parse_expr("send(x)")
        assert isinstance(s, ast.Send)
        r = parse_expr("recv(data)")
        assert isinstance(r, ast.Recv)
        assert r.ty == ast.StructType("data")

    def test_recv_maybe_type(self):
        r = parse_expr("recv(data?)")
        assert isinstance(r.ty, ast.MaybeType)


class TestStatements:
    def test_let_binding(self):
        e = parse_expr("{ let x = 1; x }")
        assert isinstance(e, ast.Block)
        assert isinstance(e.body[0], ast.LetBind)

    def test_let_some(self):
        e = parse_expr("let some(x) = e in { x } else { y }")
        assert isinstance(e, ast.LetSome)
        assert e.name == "x"
        assert e.else_block is not None

    def test_let_some_without_else(self):
        e = parse_expr("let some(x) = e in { x }")
        assert isinstance(e, ast.LetSome)
        assert e.else_block is None

    def test_if_else(self):
        e = parse_expr("if (c) { 1 } else { 2 }")
        assert isinstance(e, ast.If)

    def test_if_disconnected(self):
        e = parse_expr("if disconnected(a, b) { 1 } else { 2 }")
        assert isinstance(e, ast.IfDisconnected)
        assert isinstance(e.left, ast.VarRef)

    def test_while(self):
        e = parse_expr("while (x > 0) { x = x - 1 }")
        assert isinstance(e, ast.While)

    def test_trailing_semicolon_allowed(self):
        e = parse_expr("{ 1; 2; }")
        assert isinstance(e, ast.Block) and len(e.body) == 2

    def test_empty_block(self):
        e = parse_expr("{ }")
        assert isinstance(e, ast.Block) and e.body == []


class TestProgramErrors:
    def test_garbage_toplevel(self):
        with pytest.raises(ParseError):
            parse_program("banana")

    def test_trailing_tokens_in_expr(self):
        with pytest.raises(ParseError):
            parse_expr("1 2")

    def test_figure_sources_parse(self):
        # Every corpus file parses (full-figure coverage lives in
        # test_figures / test_corpus).
        from repro.corpus import corpus_names, load_program

        for name in corpus_names():
            program = load_program(name)
            assert program.funcs
