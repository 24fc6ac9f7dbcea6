"""Lexer, recursive-descent parser and printer for construction scripts.

Grammar (one statement per line of interest, comments run # to end of line):

    script  := stmt*
    stmt    := "let" IDENT "=" expr ";"
             | "assert_close" "(" mexpr "," mexpr "," "tol" "=" TOL ")" ";"
    TOL     := NUMBER with 0 < TOL < inf
    expr    := IDENT | IDENT "(" [arg ("," arg)*] ")"
    arg     := [IDENT "="] (NUMBER | tuple | expr)
    tuple   := "(" NUMBER ("," NUMBER)+ ")"
    mexpr   := arithmetic over +, -, *, /, parentheses, NUMBER, "pi",
               and MEASURE "(" expr ")" with MEASURE one of
               area volume surface lateral_area perimeter centroid_rho

The parser stops at the first error; positions are 1-based.  An expression
nested deeper than the interpreter's recursion limit allows is a parse error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MEASURE_KINDS = ("area", "volume", "surface", "lateral_area", "perimeter", "centroid_rho")
KEYWORDS = ("let", "assert_close", "tol", "pi")
PUNCT = "(),=;+-*/"


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: str, found: str):
        super().__init__(f"line {line}, column {column}: expected {expected}, found {found}")
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | keyword | punct | eof
    lexeme: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            lexeme = source[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(line, start_col, "a number", lexeme) from None
            tokens.append(Token("number", lexeme, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            kind = "keyword" if lexeme in KEYWORDS else "ident"
            tokens.append(Token(kind, lexeme, line, start_col))
            col += j - i
            i = j
            continue
        if ch in PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(line, start_col, "a token", repr(ch))
    tokens.append(Token("eof", "end of input", line, col))
    return tokens


# --- abstract syntax ------------------------------------------------------


@dataclass(frozen=True)
class Span:
    line: int = field(default=0)
    column: int = field(default=0)

    @staticmethod
    def of(tok: Token) -> "Span":
        return Span(tok.line, tok.column)


@dataclass(frozen=True)
class Reference:
    name: str
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Call:
    """Constructor or transform call; args are (name-or-None, value) pairs.

    Values are floats, tuples of floats (point or number list) or nested
    expressions.
    """

    name: str
    args: tuple
    span: Span = field(default=Span(), compare=False)


Expr = Reference | Call


@dataclass(frozen=True)
class Number:
    value: float
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class PiConst:
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Measure:
    kind: str
    target: Expr
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "MExpr"
    right: "MExpr"
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "MExpr"
    span: Span = field(default=Span(), compare=False)


MExpr = Number | PiConst | Measure | BinOp | Neg


@dataclass(frozen=True)
class LetBinding:
    name: str
    expr: Expr
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Assertion:
    left: MExpr
    right: MExpr
    tolerance: float
    span: Span = field(default=Span(), compare=False)


Statement = LetBinding | Assertion


@dataclass(frozen=True)
class Script:
    statements: tuple[Statement, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        raise ParseError(tok.line, tok.column, expected, tok.lexeme)

    def expect(self, kind: str, lexeme: str | None = None, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (lexeme is not None and tok.lexeme != lexeme):
            self.fail(expected or (f"'{lexeme}'" if lexeme else kind))
        return self.advance()

    # statements

    def script(self) -> Script:
        stmts = []
        try:
            while self.peek().kind != "eof":
                stmts.append(self.statement())
        except RecursionError:
            self.fail("an expression nested less deeply")
        return Script(tuple(stmts))

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "keyword" and tok.lexeme == "let":
            self.advance()
            name = self.expect("ident", expected="a name").lexeme
            self.expect("punct", "=")
            expr = self.expression()
            self.expect("punct", ";")
            return LetBinding(name, expr, Span.of(tok))
        if tok.kind == "keyword" and tok.lexeme == "assert_close":
            self.advance()
            self.expect("punct", "(")
            left = self.mexpr()
            self.expect("punct", ",")
            right = self.mexpr()
            self.expect("punct", ",")
            self.expect("keyword", "tol", expected="'tol'")
            self.expect("punct", "=")
            tol_tok = self.expect("number", expected="a number")
            tol = float(tol_tok.lexeme)
            if not 0.0 < tol < math.inf:
                raise ParseError(tol_tok.line, tol_tok.column, "a positive finite tolerance", tol_tok.lexeme)
            self.expect("punct", ")")
            self.expect("punct", ";")
            return Assertion(left, right, tol, Span.of(tok))
        self.fail("'let' or 'assert_close'")

    # construction expressions

    def expression(self) -> Expr:
        tok = self.expect("ident", expected="a constructor, transform or name")
        if self.peek().kind == "punct" and self.peek().lexeme == "(":
            self.advance()
            args = []
            if not (self.peek().kind == "punct" and self.peek().lexeme == ")"):
                args.append(self.argument())
                while self.peek().kind == "punct" and self.peek().lexeme == ",":
                    self.advance()
                    args.append(self.argument())
            self.expect("punct", ")")
            return Call(tok.lexeme, tuple(args), Span.of(tok))
        return Reference(tok.lexeme, Span.of(tok))

    def argument(self):
        tok = self.peek()
        if tok.kind == "ident" and self._next_is("=", offset=1):
            self.advance()
            self.advance()  # '='
            return (tok.lexeme, self.arg_value())
        return (None, self.arg_value())

    def _next_is(self, lexeme: str, offset: int) -> bool:
        idx = self.pos + offset
        if idx >= len(self.tokens):
            return False
        t = self.tokens[idx]
        return t.kind == "punct" and t.lexeme == lexeme

    def arg_value(self):
        tok = self.peek()
        if tok.kind == "number" or (tok.kind == "punct" and tok.lexeme == "-"):
            return self.signed_number()
        if tok.kind == "punct" and tok.lexeme == "(":
            return self.number_tuple()
        if tok.kind == "ident":
            return self.expression()
        self.fail("a number, a tuple or an expression")

    def signed_number(self) -> float:
        if self.peek().kind == "punct" and self.peek().lexeme == "-":
            self.advance()
            return -float(self.expect("number", expected="a number").lexeme)
        return float(self.expect("number", expected="a number").lexeme)

    def number_tuple(self) -> tuple:
        self.expect("punct", "(")
        values = [self.signed_number()]
        self.expect("punct", ",")
        values.append(self.signed_number())
        while self.peek().kind == "punct" and self.peek().lexeme == ",":
            self.advance()
            values.append(self.signed_number())
        self.expect("punct", ")")
        return tuple(values)

    # measure expressions

    def mexpr(self) -> MExpr:
        node = self.term()
        while self.peek().kind == "punct" and self.peek().lexeme in "+-":
            op = self.advance()
            node = BinOp(op.lexeme, node, self.term(), Span.of(op))
        return node

    def term(self) -> MExpr:
        node = self.factor()
        while self.peek().kind == "punct" and self.peek().lexeme in "*/":
            op = self.advance()
            node = BinOp(op.lexeme, node, self.factor(), Span.of(op))
        return node

    def factor(self) -> MExpr:
        tok = self.peek()
        if tok.kind == "punct" and tok.lexeme == "-":
            self.advance()
            return Neg(self.factor(), Span.of(tok))
        if tok.kind == "number":
            self.advance()
            return Number(float(tok.lexeme), Span.of(tok))
        if tok.kind == "keyword" and tok.lexeme == "pi":
            self.advance()
            return PiConst(Span.of(tok))
        if tok.kind == "punct" and tok.lexeme == "(":
            self.advance()
            node = self.mexpr()
            self.expect("punct", ")")
            return node
        if tok.kind == "ident" and tok.lexeme in MEASURE_KINDS:
            self.advance()
            self.expect("punct", "(")
            target = self.expression()
            self.expect("punct", ")")
            return Measure(tok.lexeme, target, Span.of(tok))
        self.fail("a number, 'pi', '(', '-' or a measure function")


def parse(source: str) -> Script:
    """Parse a script; raises ParseError at the first problem (no recovery)."""
    return _Parser(tokenize(source)).script()


# --- printing (round-trips through parse) ----------------------------------


def _fmt_number(x: float) -> str:
    return repr(float(x))


def _fmt_value(value) -> str:
    if isinstance(value, (Reference, Call)):
        return format_expr(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt_number(v) for v in value) + ")"
    return _fmt_number(value)


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Reference):
        return expr.name
    parts = [(f"{name}={_fmt_value(v)}" if name else _fmt_value(v)) for name, v in expr.args]
    return f"{expr.name}({', '.join(parts)})"


def format_mexpr(node: MExpr) -> str:
    if isinstance(node, Number):
        return _fmt_number(node.value)
    if isinstance(node, PiConst):
        return "pi"
    if isinstance(node, Measure):
        return f"{node.kind}({format_expr(node.target)})"
    if isinstance(node, Neg):
        return f"(-{format_mexpr(node.operand)})"
    if isinstance(node, BinOp):
        # a left-deep chain of + and - (or of * and /), such as 1 + 1 + ... + 1,
        # folds in a loop, not by recursion, into one run that parses back left to right
        chain, additive = [], node.op in "+-"
        while isinstance(node, BinOp) and (node.op in "+-") == additive:
            chain.append(node)
            node = node.left
        tail = "".join(f" {op.op} {format_mexpr(op.right)}" for op in reversed(chain))
        return f"({format_mexpr(node)}{tail})"
    raise TypeError(f"unknown measure node {type(node).__name__}")


def format_script(script: Script) -> str:
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, LetBinding):
            lines.append(f"let {stmt.name} = {format_expr(stmt.expr)};")
        else:
            lines.append(
                f"assert_close({format_mexpr(stmt.left)}, {format_mexpr(stmt.right)}, "
                f"tol={_fmt_number(stmt.tolerance)});"
            )
    return "\n".join(lines) + ("\n" if lines else "")
