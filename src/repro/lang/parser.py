"""Recursive-descent parser for FCL.

Grammar sketch (see DESIGN.md §3 and the paper's fig 6 / §4.9)::

    program     := (struct_def | func_def)*
    struct_def  := "struct" IDENT "{" field_decl* "}"
    field_decl  := ["iso"] IDENT ":" type ";"
    type        := ("int" | "bool" | "unit" | IDENT) ["?"]
    func_def    := "def" IDENT "(" [params] ")" [":" type] annots block
    params      := param_group ("," param_group)*           # "l1, l2 : T"
    annots      := ["consumes" IDENT ("," IDENT)*]
                   ["before" ":" rel ("," rel)*]
                   ["after" ":" rel ("," rel)*]
    rel         := path "~" path
    path        := ("result" | IDENT) ("." IDENT)*
    block       := "{" [expr (";" expr)* [";"]] "}"
    expr        := let | assignment-or-operator expression
    let         := "let" "some" "(" IDENT ")" "=" expr "in" block ["else" block]
                 | "let" IDENT "=" expr
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..telemetry import registry as _telemetry
from . import ast
from .lexer import tokenize
from .tokens import SourceSpan, Token, TokenKind


class ParseError(Exception):
    """Raised on syntactically invalid input."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        location = f"{span}: " if span is not None else ""
        super().__init__(f"{location}{message}")
        self.span = span


class Parser:
    def __init__(self, source: str):
        self._tokens = tokenize(source)
        # Kinds by index; both lists end with the EOF token, which the
        # cursor never moves past (``_accept``/``_expect`` never take EOF).
        self._kinds = [tok.kind for tok in self._tokens]
        self._pos = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _at(self, kind: TokenKind) -> bool:
        return self._kinds[self._pos] is kind

    def _advance(self) -> Token:
        pos = self._pos
        if self._kinds[pos] is not TokenKind.EOF:
            self._pos = pos + 1
        return self._tokens[pos]

    def _expect(self, kind: TokenKind) -> Token:
        pos = self._pos
        tok = self._tokens[pos]
        if self._kinds[pos] is not kind:
            raise ParseError(f"expected {kind.value!r} but found {tok.text!r}", tok.span)
        self._pos = pos + 1
        return tok

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        pos = self._pos
        if self._kinds[pos] is kind:
            self._pos = pos + 1
            return self._tokens[pos]
        return None

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        structs: Dict[str, ast.StructDef] = {}
        funcs: Dict[str, ast.FuncDef] = {}
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.STRUCT):
                sdef = self.parse_struct()
                if sdef.name in structs:
                    raise ParseError(f"duplicate struct {sdef.name!r}", sdef.span)
                structs[sdef.name] = sdef
            elif self._at(TokenKind.DEF):
                fdef = self.parse_func()
                if fdef.name in funcs:
                    raise ParseError(f"duplicate function {fdef.name!r}", fdef.span)
                funcs[fdef.name] = fdef
            else:
                tok = self._peek()
                raise ParseError(
                    f"expected 'struct' or 'def' but found {tok.text!r}", tok.span
                )
        return ast.Program(structs=structs, funcs=funcs)

    # -- declarations ------------------------------------------------------

    def parse_struct(self) -> ast.StructDef:
        start = self._expect(TokenKind.STRUCT)
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LBRACE)
        fields: List[ast.FieldDecl] = []
        seen = set()
        while not self._accept(TokenKind.RBRACE):
            is_iso = self._accept(TokenKind.ISO) is not None
            fname_tok = self._expect(TokenKind.IDENT)
            self._expect(TokenKind.COLON)
            fty = self.parse_type()
            self._expect(TokenKind.SEMI)
            if fname_tok.text in seen:
                raise ParseError(
                    f"duplicate field {fname_tok.text!r} in struct {name!r}",
                    fname_tok.span,
                )
            seen.add(fname_tok.text)
            fields.append(
                ast.FieldDecl(fname_tok.text, fty, is_iso, span=fname_tok.span)
            )
        return ast.StructDef(name, fields, span=start.span)

    def parse_type(self) -> ast.Type:
        tok = self._peek()
        base: ast.Type
        if self._accept(TokenKind.INT_KW):
            base = ast.INT
        elif self._accept(TokenKind.BOOL_KW):
            base = ast.BOOL
        elif self._accept(TokenKind.UNIT_KW):
            base = ast.UNIT
        elif self._at(TokenKind.IDENT):
            base = ast.StructType(self._advance().text)
        else:
            raise ParseError(f"expected a type but found {tok.text!r}", tok.span)
        if self._accept(TokenKind.QUESTION):
            if isinstance(base, ast.MaybeType):
                raise ParseError("nested maybe types are not allowed", tok.span)
            return ast.MaybeType(base)
        return base

    def parse_func(self) -> ast.FuncDef:
        start = self._expect(TokenKind.DEF)
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LPAREN)
        params = self._parse_params()
        self._expect(TokenKind.RPAREN)
        ret: ast.Type = ast.UNIT
        if self._accept(TokenKind.COLON):
            ret = self.parse_type()
        consumes: List[str] = []
        before: List[Tuple[ast.AnnotPath, ast.AnnotPath]] = []
        after: List[Tuple[ast.AnnotPath, ast.AnnotPath]] = []
        while True:
            if self._accept(TokenKind.CONSUMES):
                consumes.append(self._expect(TokenKind.IDENT).text)
                while self._accept(TokenKind.COMMA):
                    consumes.append(self._expect(TokenKind.IDENT).text)
            elif self._at(TokenKind.BEFORE):
                self._advance()
                self._expect(TokenKind.COLON)
                before.extend(self._parse_relations())
            elif self._at(TokenKind.AFTER):
                self._advance()
                self._expect(TokenKind.COLON)
                after.extend(self._parse_relations())
            else:
                break
        body = self.parse_block()
        return ast.FuncDef(
            name=name,
            params=params,
            return_type=ret,
            body=body,
            consumes=consumes,
            after=after,
            before=before,
            span=start.span,
        )

    def _parse_params(self) -> List[ast.Param]:
        params: List[ast.Param] = []
        if self._at(TokenKind.RPAREN):
            return params
        while True:
            pinned = self._accept(TokenKind.PINNED) is not None
            names = [self._expect(TokenKind.IDENT)]
            while self._accept(TokenKind.COMMA):
                if self._at(TokenKind.PINNED):
                    # Start of the next group; rewind the comma's effect by
                    # finishing this group first.
                    raise ParseError(
                        "'pinned' must start its own parameter group "
                        "(write `pinned x : T, pinned y : T`)",
                        self._peek().span,
                    )
                # Either another name in this group or the start of the next
                # group; decide by looking for a following ":" after the name
                # run.  We parse greedily: collect names until ":".
                names.append(self._expect(TokenKind.IDENT))
            self._expect(TokenKind.COLON)
            ty = self.parse_type()
            params.extend(
                ast.Param(n.text, ty, pinned=pinned, span=n.span) for n in names
            )
            if not self._accept(TokenKind.COMMA):
                break
        return params

    def _parse_relations(self) -> List[Tuple[ast.AnnotPath, ast.AnnotPath]]:
        rels = [self._parse_relation()]
        while self._accept(TokenKind.COMMA):
            rels.append(self._parse_relation())
        return rels

    def _parse_relation(self) -> Tuple[ast.AnnotPath, ast.AnnotPath]:
        left = self._parse_annot_path()
        self._expect(TokenKind.TILDE)
        right = self._parse_annot_path()
        return (left, right)

    def _parse_annot_path(self) -> ast.AnnotPath:
        head = self._accept(TokenKind.RESULT)
        if head is not None:
            segments = ["result"]
        else:
            segments = [self._expect(TokenKind.IDENT).text]
        while self._accept(TokenKind.DOT):
            segments.append(self._expect(TokenKind.IDENT).text)
        return tuple(segments)

    # -- statements / expressions ------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE)
        body: List[ast.Expr] = []
        while not self._at(TokenKind.RBRACE):
            body.append(self.parse_expr())
            if not self._accept(TokenKind.SEMI):
                break
        end = self._expect(TokenKind.RBRACE)
        return ast.Block(body, span=SourceSpan.merge(start.span, end.span))

    def parse_expr(self) -> ast.Expr:
        kind = self._peek().kind
        if kind is TokenKind.LET:
            return self._parse_let()
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.WHILE:
            return self._parse_while()
        return self._parse_assignment()

    def _parse_let(self) -> ast.Expr:
        start = self._expect(TokenKind.LET)
        if self._accept(TokenKind.SOME):
            self._expect(TokenKind.LPAREN)
            name = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.RPAREN)
            self._expect(TokenKind.ASSIGN)
            scrutinee = self.parse_expr()
            self._expect(TokenKind.IN)
            then_block = self.parse_block()
            else_block = None
            if self._accept(TokenKind.ELSE):
                else_block = self.parse_block()
            return ast.LetSome(
                name, scrutinee, then_block, else_block, span=start.span
            )
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.ASSIGN)
        init = self.parse_expr()
        return ast.LetBind(name, init, span=start.span)

    def _parse_if(self) -> ast.Expr:
        start = self._expect(TokenKind.IF)
        if self._accept(TokenKind.DISCONNECTED):
            self._expect(TokenKind.LPAREN)
            left = self.parse_expr()
            self._expect(TokenKind.COMMA)
            right = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            then_block = self.parse_block()
            else_block = None
            if self._accept(TokenKind.ELSE):
                else_block = self.parse_block()
            return ast.IfDisconnected(
                left, right, then_block, else_block, span=start.span
            )
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        then_block = self.parse_block()
        else_block = None
        if self._accept(TokenKind.ELSE):
            else_block = self.parse_block()
        return ast.If(cond, then_block, else_block, span=start.span)

    def _parse_while(self) -> ast.Expr:
        start = self._expect(TokenKind.WHILE)
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self.parse_block()
        return ast.While(cond, body, span=start.span)

    def _parse_assignment(self) -> ast.Expr:
        target = self._parse_or()
        if self._at(TokenKind.ASSIGN):
            if not isinstance(target, (ast.VarRef, ast.FieldRef)):
                raise ParseError(
                    "assignment target must be a variable or field path",
                    self._peek().span,
                )
            eq = self._advance()
            value = self.parse_expr()
            return ast.Assign(target, value, span=eq.span)
        return target

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at(TokenKind.OR):
            op = self._advance()
            right = self._parse_and()
            left = ast.Binop("||", left, right, span=op.span)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self._at(TokenKind.AND):
            op = self._advance()
            right = self._parse_comparison()
            left = ast.Binop("&&", left, right, span=op.span)
        return left

    _COMPARISON = {
        TokenKind.EQ: "==",
        TokenKind.NEQ: "!=",
        TokenKind.LT: "<",
        TokenKind.GT: ">",
        TokenKind.LE: "<=",
        TokenKind.GE: ">=",
    }

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while self._peek().kind in self._COMPARISON:
            op = self._advance()
            right = self._parse_additive()
            left = ast.Binop(self._COMPARISON[op.kind], left, right, span=op.span)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binop(op.text, left, right, span=op.span)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in (TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT):
            op = self._advance()
            right = self._parse_unary()
            left = ast.Binop(op.text, left, right, span=op.span)
        return left

    def _parse_unary(self) -> ast.Expr:
        kind = self._peek().kind
        if kind is TokenKind.NOT or kind is TokenKind.MINUS:
            op = self._advance()
            return ast.Unop(op.text, self._parse_unary(), span=op.span)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._accept(TokenKind.DOT):
            fname = self._expect(TokenKind.IDENT)
            expr = ast.FieldRef(expr, fname.text, span=fname.span)
        return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        kind = tok.kind
        if kind is TokenKind.LBRACE:
            return self.parse_block()
        self._advance()
        if kind is TokenKind.IDENT:
            if self._accept(TokenKind.LPAREN):
                args: List[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self.parse_expr())
                    while self._accept(TokenKind.COMMA):
                        args.append(self.parse_expr())
                self._expect(TokenKind.RPAREN)
                return ast.Call(tok.text, args, span=tok.span)
            return ast.VarRef(tok.text, span=tok.span)
        if kind is TokenKind.INT:
            return ast.IntLit(int(tok.text), span=tok.span)
        if kind is TokenKind.TRUE:
            return ast.BoolLit(True, span=tok.span)
        if kind is TokenKind.FALSE:
            return ast.BoolLit(False, span=tok.span)
        if kind is TokenKind.NONE:
            return ast.NoneLit(span=tok.span)
        if kind is TokenKind.SOME:
            # some e or some(e)
            if self._accept(TokenKind.LPAREN):
                inner = self.parse_expr()
                self._expect(TokenKind.RPAREN)
            else:
                inner = self._parse_postfix()
            return ast.SomeExpr(inner, span=tok.span)
        if kind is TokenKind.IS_NONE:
            self._expect(TokenKind.LPAREN)
            inner = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return ast.IsNone(inner, span=tok.span)
        if kind is TokenKind.IS_SOME:
            self._expect(TokenKind.LPAREN)
            inner = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return ast.IsSome(inner, span=tok.span)
        if kind is TokenKind.NEW:
            struct = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.LPAREN)
            inits: Dict[str, ast.Expr] = {}
            if not self._at(TokenKind.RPAREN):
                while True:
                    fname = self._expect(TokenKind.IDENT)
                    self._expect(TokenKind.ASSIGN)
                    if fname.text in inits:
                        raise ParseError(
                            f"duplicate initializer {fname.text!r}", fname.span
                        )
                    inits[fname.text] = self.parse_expr()
                    if not self._accept(TokenKind.COMMA):
                        break
            self._expect(TokenKind.RPAREN)
            return ast.New(struct, inits, span=tok.span)
        if kind is TokenKind.SEND:
            self._expect(TokenKind.LPAREN)
            value = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return ast.Send(value, span=tok.span)
        if kind is TokenKind.RECV:
            self._expect(TokenKind.LPAREN)
            ty = self.parse_type()
            self._expect(TokenKind.RPAREN)
            return ast.Recv(ty, span=tok.span)
        if kind is TokenKind.LPAREN:
            if self._accept(TokenKind.RPAREN):
                return ast.UnitLit(span=tok.span)
            inner = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.span)


def parse_program(source: str) -> ast.Program:
    """Parse a complete FCL program (structs + functions)."""
    tel = _telemetry()
    if not tel.enabled:
        return Parser(source).parse_program()
    with tel.span("lang.parse"):
        parser = Parser(source)
        tel.inc("lang.tokens", len(parser._tokens))
        return parser.parse_program()


@lru_cache(maxsize=4096)
def parse_type_text(text: str) -> ast.Type:
    """Parse the printed form of a type, as derivation snapshots and
    recorded steps carry it.  Memoized: type texts repeat across every
    context of a program, and the :class:`ast.Type` values are frozen, so
    one parse can be shared by every caller."""
    return Parser(text).parse_type()


def parse_expr(source: str) -> ast.Expr:
    """Parse a single FCL expression (used by tests)."""
    parser = Parser(source)
    expr = parser.parse_expr()
    tok = parser._peek()
    if tok.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input {tok.text!r}", tok.span)
    return expr
