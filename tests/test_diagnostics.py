"""Diagnostic rendering tests."""

from repro.lang.diagnostics import render_diagnostic, strip_location_prefix
from repro.lang.tokens import SourceSpan


SOURCE = "struct s { }\ndef f() : int {\n  send(3)\n}\n"


class TestRender:
    def test_excerpt_with_caret(self):
        span = SourceSpan(start=31, end=35, line=3, column=3)
        out = render_diagnostic(SOURCE, span, "bad send", filename="x.fcl")
        lines = out.splitlines()
        assert lines[0] == "x.fcl:3:3: error: bad send"
        assert lines[2] == "3 |   send(3)"
        assert lines[3].endswith("^^^^")

    def test_no_span(self):
        out = render_diagnostic(SOURCE, None, "oops", filename="x.fcl")
        assert out == "x.fcl: error: oops"

    def test_synthetic_span(self):
        span = SourceSpan(0, 0, 0, 0)
        out = render_diagnostic(SOURCE, span, "oops")
        assert "oops" in out and "|" not in out

    def test_out_of_range_line(self):
        span = SourceSpan(0, 1, 99, 1)
        out = render_diagnostic(SOURCE, span, "oops", filename="x.fcl")
        assert out == "x.fcl:99:1: error: oops"

    def test_caret_clamped_to_line(self):
        span = SourceSpan(start=0, end=500, line=1, column=1)
        out = render_diagnostic(SOURCE, span, "wide", filename="x.fcl")
        caret_line = out.splitlines()[-1]
        assert len(caret_line) <= len("1 | ") + len("struct s { }") + 2

    def test_kind_label(self):
        span = SourceSpan(0, 6, 1, 1)
        out = render_diagnostic(SOURCE, span, "m", kind="type error")
        assert "type error: m" in out


class TestCaretGolden:
    """Exact renderings for the caret edge cases: a column at/past the end
    of its line, spans that run into the next line, and tab indentation.
    (The past-EOL caret used to float far right of the excerpt.)"""

    def test_column_past_end_of_line(self):
        # "struct s { }" is 12 chars; column 25 points past its end.
        span = SourceSpan(start=24, end=25, line=1, column=25)
        out = render_diagnostic(SOURCE, span, "eol", filename="x.fcl")
        assert out == (
            "x.fcl:1:25: error: eol\n"
            "  |\n"
            "1 | struct s { }\n"
            "  |             ^"
        )

    def test_span_running_onto_next_line(self):
        # A span whose width crosses the newline is clamped to the
        # remainder of its own line.
        span = SourceSpan(start=7, end=40, line=1, column=8)
        out = render_diagnostic(SOURCE, span, "wide", filename="x.fcl")
        assert out == (
            "x.fcl:1:8: error: wide\n"
            "  |\n"
            "1 | struct s { }\n"
            "  |        ^^^^^"
        )

    def test_end_of_input_after_final_newline(self):
        # The end of an input that ends with a newline is line 3, column
        # 1 here, an empty line past the last: the excerpt shows the last
        # line with the caret just past its end.
        source = "def f() : int {\n  1 /* never\n"
        end = len(source)
        span = SourceSpan(start=end, end=end, line=3, column=1)
        out = render_diagnostic(source, span, "eof", filename="x.fcl")
        assert out == (
            "x.fcl:3:1: error: eof\n"
            "  |\n"
            "2 |   1 /* never\n"
            "  |             ^"
        )

    def test_tab_indented_line(self):
        # Tabs before the caret are mirrored into the caret gutter so the
        # marker lines up however wide the terminal renders the tab.
        source = "def f() : int {\n\tsend(3)\n}\n"
        span = SourceSpan(start=17, end=21, line=2, column=2)
        out = render_diagnostic(source, span, "bad send", filename="x.fcl")
        assert out == (
            "x.fcl:2:2: error: bad send\n"
            "  |\n"
            "2 | \tsend(3)\n"
            "  | \t^^^^"
        )


class TestStripPrefix:
    def test_strips_line_col(self):
        assert strip_location_prefix("3:7: message here") == "message here"

    def test_leaves_plain(self):
        assert strip_location_prefix("message: with colon") == "message: with colon"


class TestCliIntegration:
    def test_check_renders_excerpt(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.fcl"
        path.write_text(
            "struct data { v : int; }\n"
            "def f() : int {\n"
            "  let d = new data(v = 1);\n"
            "  send(d);\n"
            "  d.v\n"
            "}\n"
        )
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "send(d)" in err  # the excerpt line
        assert "^" in err


class TestErrorSpans:
    def test_checker_errors_carry_spans(self):
        # Most checker rejections point at real source positions.
        from repro.core.checker import check_source
        from repro.core.errors import TypeError_

        src = (
            "struct data { v : int; }\n"
            "def f() : int {\n"
            "  let d = new data(v = 1);\n"
            "  send(d);\n"
            "  d.v\n"
            "}\n"
        )
        try:
            check_source(src)
            raise AssertionError("must reject")
        except TypeError_ as exc:
            assert exc.span is not None
            assert exc.span.line == 4  # the send

    def test_parse_errors_carry_spans(self):
        from repro.lang import parse_program
        from repro.lang.parser import ParseError

        try:
            parse_program("struct s {\n  x :\n}")
            raise AssertionError("must reject")
        except ParseError as exc:
            assert exc.span is not None and exc.span.line >= 2
