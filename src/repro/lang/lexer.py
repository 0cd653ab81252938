"""Regex lexer for FCL source text.

One compiled pattern matches a token together with the trivia before it
(whitespace, ``//`` line comments, ``/* ... */`` block comments); one
``findall`` pass yields every match, and a loop turns them into tokens,
counting newlines in the trivia only (tokens never span lines).  A block
comment that never closes matches the rest of the input, so the scan
ends there: the comment pattern is tried at most once on an unclosed
``/*`` and lexing stays linear in the input.
"""

from __future__ import annotations

import re
from typing import List

from .tokens import SPELLINGS, SourceSpan, Token, TokenKind

_SCAN = re.compile(
    r"([ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*)"  # trivia
    r"(?:(/\*.*)"  # a block comment that never closes: the rest of the input
    r"|([0-9]+)"  # integer literal: ASCII digits only
    r"|([A-Za-z_]\w*|[=!<>]=|&&|\|\||[{}();:,.?~=<>+\-*/%!])"  # ASCII word or operator
    r"|(\w+))?",  # a word that starts outside ASCII: an identifier if a letter
    re.DOTALL,
)


class LexError(Exception):
    """Raised on malformed input characters."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.line = span.line
        self.column = span.column


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list (including trailing EOF)."""
    tokens: List[Token] = []
    append = tokens.append
    spelled = SPELLINGS.get
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__
    ident, integer = TokenKind.IDENT, TokenKind.INT
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    # The loop ends at the first match without a token: the empty match
    # at the end of the input, or a lexical error at ``pos``.
    for trivia, unclosed, number, word, other in _SCAN.findall(source):
        if trivia:
            if "\n" in trivia:
                line += trivia.count("\n")
                line_start = pos + trivia.rindex("\n") + 1
            pos += len(trivia)
        if word:
            kind, text = spelled(word, ident), word
        elif number:
            kind, text = integer, number
        elif other[:1].isalpha():
            kind, text = ident, other
        else:
            break
        append(new(Token, (kind, text, pos, line, pos - line_start + 1)))
        pos += len(text)
    if pos == len(source):
        append(Token(TokenKind.EOF, "", pos, line, pos - line_start + 1))
        return tokens
    if unclosed:
        # Reported where the input ends, as the comment runs to there.
        end = len(source)
        newline = source.rfind("\n", pos)
        if newline >= 0:
            line += source.count("\n", pos)
            line_start = newline + 1
        raise LexError(
            "unterminated block comment",
            SourceSpan(end, end, line, end - line_start + 1),
        )
    raise LexError(
        f"unexpected character {source[pos]!r}",
        SourceSpan(pos, pos + 1, line, pos - line_start + 1),
    )
