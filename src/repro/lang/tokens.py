"""Token definitions for the Fearless Concurrency Language (FCL).

The surface syntax follows the paper's figures: ``struct`` declarations with
``iso`` fields, ``def`` functions with ``consumes``/``after`` annotations,
``let some(x) = e in { ... } else { ... }`` pattern binding, ``if
disconnected(a, b)``, and blocking ``send``/``recv`` primitives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple


class TokenKind(enum.Enum):
    """All lexical token categories of FCL."""

    # Literals and names
    IDENT = "IDENT"
    INT = "INT"

    # Keywords
    STRUCT = "struct"
    DEF = "def"
    ISO = "iso"
    LET = "let"
    VAR = "var"
    IN = "in"
    IF = "if"
    ELSE = "else"
    WHILE = "while"
    DISCONNECTED = "disconnected"
    SOME = "some"
    NONE = "none"
    IS_NONE = "is_none"
    IS_SOME = "is_some"
    NEW = "new"
    SEND = "send"
    RECV = "recv"
    RETURN = "return"
    TRUE = "true"
    FALSE = "false"
    CONSUMES = "consumes"
    AFTER = "after"
    BEFORE = "before"
    PINNED = "pinned"
    RESULT = "result"
    UNIT_KW = "unit"
    INT_KW = "int"
    BOOL_KW = "bool"

    # Punctuation / operators
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    SEMI = ";"
    COLON = ":"
    COMMA = ","
    DOT = "."
    QUESTION = "?"
    TILDE = "~"
    ASSIGN = "="
    EQ = "=="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "EOF"


#: Keywords and operators mapped from their source spelling to the token
#: kind: every kind but the two literal classes and EOF is spelled by its
#: value.
SPELLINGS = {
    kind.value: kind
    for kind in TokenKind
    if kind not in (TokenKind.IDENT, TokenKind.INT, TokenKind.EOF)
}


@dataclass(frozen=True)
class SourceSpan:
    """Half-open character span with 1-based line/column of its start."""

    start: int
    end: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    @staticmethod
    def merge(first: "SourceSpan", last: "SourceSpan") -> "SourceSpan":
        """Span covering everything from ``first`` through ``last``."""
        return SourceSpan(first.start, last.end, first.line, first.column)


#: Span used for synthesized AST nodes that have no source position.
SYNTHETIC_SPAN = SourceSpan(0, 0, 0, 0)


class Token(NamedTuple):
    """A single lexical token: its kind, its text, and where it starts
    (character offset and 1-based line/column).  The :class:`SourceSpan`
    is built only when read, so tokens that never become an AST span or
    a diagnostic never pay for one."""

    kind: TokenKind
    text: str
    start: int
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.start + len(self.text), self.line, self.column)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"
