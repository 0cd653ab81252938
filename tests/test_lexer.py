"""Lexer unit tests."""

import hashlib
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.corpus import corpus_names, load_source
from repro.corpus.negative import NEGATIVE_CASES
from repro.lang.lexer import LexError, tokenize
from repro.lang.tokens import SPELLINGS, SourceSpan, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only(self):
        assert kinds(" \t\n\r ") == [TokenKind.EOF]

    def test_integer(self):
        toks = tokenize("42")
        assert toks[0].kind is TokenKind.INT
        assert toks[0].text == "42"

    def test_identifier(self):
        toks = tokenize("foo_bar2")
        assert toks[0].kind is TokenKind.IDENT
        assert toks[0].text == "foo_bar2"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].kind is TokenKind.IDENT

    def test_keywords(self):
        source = "struct def iso let in if else while some none send recv"
        expected = [
            TokenKind.STRUCT,
            TokenKind.DEF,
            TokenKind.ISO,
            TokenKind.LET,
            TokenKind.IN,
            TokenKind.IF,
            TokenKind.ELSE,
            TokenKind.WHILE,
            TokenKind.SOME,
            TokenKind.NONE,
            TokenKind.SEND,
            TokenKind.RECV,
            TokenKind.EOF,
        ]
        assert kinds(source) == expected

    def test_disconnected_keyword(self):
        assert kinds("if disconnected")[:2] == [
            TokenKind.IF,
            TokenKind.DISCONNECTED,
        ]

    def test_annotation_keywords(self):
        assert kinds("consumes after before result")[:-1] == [
            TokenKind.CONSUMES,
            TokenKind.AFTER,
            TokenKind.BEFORE,
            TokenKind.RESULT,
        ]

    def test_type_keywords(self):
        assert kinds("int bool unit")[:-1] == [
            TokenKind.INT_KW,
            TokenKind.BOOL_KW,
            TokenKind.UNIT_KW,
        ]

    def test_keyword_prefix_is_identifier(self):
        # "iso1" and "letx" are identifiers, not keywords.
        toks = tokenize("iso1 letx")
        assert all(t.kind is TokenKind.IDENT for t in toks[:-1])


class TestOperators:
    def test_single_char_operators(self):
        assert kinds("{ } ( ) ; : , . ? ~ =")[:-1] == [
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.SEMI,
            TokenKind.COLON,
            TokenKind.COMMA,
            TokenKind.DOT,
            TokenKind.QUESTION,
            TokenKind.TILDE,
            TokenKind.ASSIGN,
        ]

    def test_two_char_operators(self):
        assert kinds("== != <= >= && ||")[:-1] == [
            TokenKind.EQ,
            TokenKind.NEQ,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.AND,
            TokenKind.OR,
        ]

    def test_maximal_munch(self):
        # "==" is one token; "= =" is two.
        assert kinds("==")[:-1] == [TokenKind.EQ]
        assert kinds("= =")[:-1] == [TokenKind.ASSIGN, TokenKind.ASSIGN]

    def test_arithmetic(self):
        assert kinds("+ - * / %")[:-1] == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
        ]

    def test_comparison_vs_shift_like(self):
        assert kinds("< > <= >=")[:-1] == [
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.LE,
            TokenKind.GE,
        ]


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert texts("a // no newline") == ["a"]

    def test_block_comment(self):
        assert texts("a /* stuff \n more */ b") == ["a", "b"]

    def test_nested_looking_block_comment(self):
        # Not nested: closes at the first */.
        assert texts("a /* x /* y */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestPositions:
    def test_line_tracking(self):
        toks = tokenize("a\nbb\n  c")
        assert toks[0].span.line == 1
        assert toks[1].span.line == 2
        assert toks[2].span.line == 3
        assert toks[2].span.column == 3

    def test_error_position(self):
        with pytest.raises(LexError) as err:
            tokenize("ok\n  @")
        assert err.value.line == 2

    def test_error_carries_span(self):
        with pytest.raises(LexError) as err:
            tokenize("ok\n  @")
        assert err.value.span == SourceSpan(5, 6, 2, 3)
        assert str(err.value) == "2:3: unexpected character '@'"

    def test_unterminated_comment_reported_at_end_of_input(self):
        with pytest.raises(LexError) as err:
            tokenize("a /* x\n yz")
        assert err.value.span == SourceSpan(10, 10, 2, 4)
        assert str(err.value) == "2:4: unterminated block comment"

    def test_unterminated_comment_is_linear(self):
        # Every "/*" below opens a comment that never closes.  The scan
        # must stop at the first one: trying the comment pattern again at
        # each later "/*" rescans to the end of the input each time, which
        # is quadratic.  Compared with a valid input of the same size
        # whose one comment spans it all, that would be thousands of times
        # slower; a linear scan is within a small factor.
        n = 5_000
        unclosed, closed = "/* " * n, "/* " * n + "*/"

        def best(source):
            times = []
            for _ in range(3):
                began = time.perf_counter()
                try:
                    tokenize(source)
                except LexError:
                    pass
                times.append(time.perf_counter() - began)
            return min(times)

        assert best(unclosed) < 50 * best(closed) + 0.005
        with pytest.raises(LexError) as err:
            tokenize(unclosed)
        end = len(unclosed)
        assert err.value.span == SourceSpan(end, end, 1, end + 1)

    def test_span_built_on_demand(self):
        tok = tokenize("\n  foo")[0]
        assert (tok.start, tok.line, tok.column) == (3, 2, 3)
        assert tok.span == SourceSpan(3, 6, 2, 3)

    def test_eof_position(self):
        (eof,) = tokenize("// c\n ")
        assert eof.kind is TokenKind.EOF
        assert eof.span == SourceSpan(6, 6, 2, 2)


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("#")

    def test_unicode_rejected(self):
        with pytest.raises(LexError):
            tokenize("§")

    @pytest.mark.parametrize("digit", ["²", "٣", "½"])
    def test_non_ascii_digit_rejected(self, digit):
        # Integer literals are ASCII digits: str.isdigit() would accept
        # "²", which int() then refuses.
        with pytest.raises(LexError) as err:
            tokenize(f"x = {digit}")
        assert str(err.value) == f"1:5: unexpected character {digit!r}"

    def test_ascii_digits_stop_at_non_ascii_digit(self):
        with pytest.raises(LexError) as err:
            tokenize("12²")
        assert err.value.column == 3


class TestIdentifiers:
    def test_non_ascii_letter_starts_identifier(self):
        assert [(t.kind, t.text) for t in tokenize("é1 _é")[:-1]] == [
            (TokenKind.IDENT, "é1"),
            (TokenKind.IDENT, "_é"),
        ]

    def test_identifier_continues_with_any_digit(self):
        # After the first character, letters, digits or "_" continue it.
        assert texts("x² a٣") == ["x²", "a٣"]


#: sha256 over ``repr((kind name, text, line, column))`` of every token,
#: recorded with the character-at-a-time lexer this one replaced.
CORPUS_DIGEST = (5368, "9bf25dabc11f2b02210a6cb8684ec1989becca7cf04744924b466980d7a0619e")
NEGATIVE_DIGEST = (2258, "8097c97f22eb6732332d132a1a6a6638bc16b049b9638edb555b36f1f5909e56")


def digest(sources):
    h = hashlib.sha256()
    count = 0
    for source in sources:
        for tok in tokenize(source):
            h.update(repr((tok.kind.name, tok.text, tok.line, tok.column)).encode())
            count += 1
    return count, h.hexdigest()


class TestPinnedTokenStreams:
    def test_corpus(self):
        assert len(corpus_names()) == 8
        assert digest(load_source(name) for name in corpus_names()) == CORPUS_DIGEST

    def test_negative_corpus(self):
        assert len(NEGATIVE_CASES) == 22
        assert digest(case.source for case in NEGATIVE_CASES) == NEGATIVE_DIGEST


# -- property: tokens tile the source ------------------------------------

_TRIVIA = [" ", "\t", "\r", "\n", "// note\n", "//", "/* a */", "/*\n*\n*/", "/**/"]
_STRAY = ["#", "@", "$", "§", "²", "½", "٣", "\x0b", "`", "/*", "\u00a0"]
_PIECES = (
    sorted(SPELLINGS)
    + ["x", "foo_1", "_", "é", "x²", "0", "42", "007"]
    + _TRIVIA
)


def naive_position(source, offset):
    line = source.count("\n", 0, offset) + 1
    return line, offset - (source.rfind("\n", 0, offset) + 1) + 1


def only_trivia(gap):
    """Whether ``gap`` is whitespace and comments, read a character at a time."""
    i = 0
    while i < len(gap):
        if gap[i] in " \t\r\n":
            i += 1
        elif gap.startswith("//", i):
            end = gap.find("\n", i)
            i = len(gap) if end < 0 else end
        elif gap.startswith("/*", i):
            end = gap.find("*/", i + 2)
            if end < 0:
                return False
            i = end + 2
        else:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_PIECES),
            st.sampled_from(_STRAY),
            st.text(alphabet="ab_1 \n/*=<&|!", max_size=6),
        ),
        max_size=40,
    )
)
def test_tokens_tile_the_source(pieces):
    source = "".join(pieces)
    try:
        tokens = tokenize(source)
    except LexError as err:
        start = err.span.start
        assert (err.line, err.column) == naive_position(source, start)
        if start == len(source):
            assert str(err).endswith("unterminated block comment")
        else:
            # Everything before the stray character lexes.
            assert str(err).endswith(f"unexpected character {source[start]!r}")
            tokenize(source[:start])
        return
    assert tokens[-1].kind is TokenKind.EOF and tokens[-1].start == len(source)
    covered = 0
    for tok in tokens:
        span = tok.span
        assert source[span.start : span.end] == tok.text
        assert (tok.line, tok.column) == naive_position(source, tok.start)
        assert only_trivia(source[covered : tok.start])
        covered = span.end
        if tok.kind is TokenKind.INT:
            assert tok.text.isascii() and tok.text.isdigit()
        elif tok.kind is TokenKind.IDENT:
            assert tok.text[0].isalpha() or tok.text[0] == "_"
            assert tok.text not in SPELLINGS
        elif tok.kind is not TokenKind.EOF:
            assert SPELLINGS[tok.text] is tok.kind
