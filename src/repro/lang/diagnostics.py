"""Human-friendly diagnostics: source excerpts with caret markers.

Renders checker/parser errors the way a production compiler would::

    prog.fcl:6:3: type error: cannot send: variable 'd' is still used afterwards
      |
    6 |   send(d);
      |   ^^^^
"""

from __future__ import annotations

from typing import Optional

from .tokens import SourceSpan


def render_diagnostic(
    source: str,
    span: Optional[SourceSpan],
    message: str,
    filename: str = "<input>",
    kind: str = "error",
) -> str:
    """Format a message with a source excerpt when a span is available."""
    if span is None or span.line == 0:
        return f"{filename}: {kind}: {message}"
    lines = source.splitlines()
    header = f"{filename}:{span.line}:{span.column}: {kind}: {message}"
    line, column = span.line, span.column
    if lines and (line, column) == (len(lines) + 1, 1) and source.endswith("\n"):
        # The end of an input that ends with a newline is the start of an
        # empty line past the last one: show the last line instead, with
        # the caret just past its end.
        line, column = len(lines), len(lines[-1]) + 1
    if not (1 <= line <= len(lines)):
        return header
    text = lines[line - 1]
    gutter = str(line)
    pad = " " * len(gutter)
    width = max(span.end - span.start, 1)
    # Clamp the caret run to the visible line.  A span's column can land
    # past the end of its line (an error at EOL, or one whose token ends
    # at the newline); without the clamp the caret floats in space far
    # to the right of the excerpt.
    start_col = min(max(column - 1, 0), len(text))
    width = min(width, max(len(text) - start_col, 1))
    # Tabs in the excerpt expand to an unknowable width; align the caret
    # by mirroring the line's own whitespace into the caret gutter.
    lead = "".join(ch if ch == "\t" else " " for ch in text[:start_col])
    caret = lead + "^" * width
    return "\n".join(
        [
            header,
            f"{pad} |",
            f"{gutter} | {text}",
            f"{pad} | {caret}",
        ]
    )


def strip_location_prefix(message: str) -> str:
    """Error classes embed "line:col: " in str(); drop it when the span is
    rendered separately."""
    parts = message.split(": ", 1)
    if len(parts) == 2 and ":" in parts[0]:
        head = parts[0].split(":")
        if len(head) == 2 and all(p.isdigit() for p in head):
            return parts[1]
    return message
