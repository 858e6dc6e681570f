"""Tiny expression grammar for profile/directrix functions.

Grammar: real literals, one variable symbol, + - * / ^, parentheses, and the
function set {sin, cos, tan, sec, sinh, cosh, exp, log, sqrt}. Parsed to an
AST evaluated over third-order jets. Floats pass through as values: a
compiled expression called on a float gives a float, equal bit for bit to
the value of its jet, with the same DomainError outside its domain.
"""

import re
from typing import Callable

from . import jets
from .errors import ExpressionError
from .jets import Jet

__all__ = ["compile_expression", "parse", "Expr"]

_FUNCTIONS = {
    "sin": jets.jsin,
    "cos": jets.jcos,
    "tan": jets.jtan,
    "sec": jets.jsec,
    "sinh": jets.jsinh,
    "cosh": jets.jcosh,
    "exp": jets.jexp,
    "log": jets.jlog,
    "sqrt": jets.jsqrt,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            bad = text[pos:].lstrip()
            if not bad:
                break
            raise ExpressionError(f"unexpected character {bad[0]!r}", token=bad[0])
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class Expr:
    """AST node: ('num', x) | ('var',) | ('call', name, arg) | (op, lhs, rhs) | ('neg', e)."""

    __slots__ = ("kind", "args")

    def __init__(self, kind, *args):
        self.kind = kind
        self.args = args

    def eval(self, x):
        """The expression at x, a jet or a float; a literal is a float."""
        k = self.kind
        if k == "num":
            return self.args[0]
        if k == "var":
            return x
        if k == "neg":
            return -self.args[0].eval(x)
        if k == "call":
            return _FUNCTIONS[self.args[0]](self.args[1].eval(x))
        a = self.args[0].eval(x)
        b = self.args[1].eval(x)
        if k == "+":
            return a + b
        if k == "-":
            return a - b
        if k == "*":
            return a * b
        if k == "/":
            return jets.jdiv(a, b)
        if k == "^":
            return jets.jpow(a, b)
        raise AssertionError(k)


class _Parser:
    def __init__(self, tokens, var):
        self.tokens = tokens
        self.pos = 0
        self.var = var

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, found {val!r}", token=val)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            node = Expr(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            node = Expr(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek() == ("op", "-"):
            self.next()
            return Expr("neg", self.parse_unary())
        if self.peek() == ("op", "+"):
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.next()
            return Expr("^", base, self.parse_unary())  # right-associative
        return base

    def parse_atom(self) -> Expr:
        kind, val = self.next()
        if kind == "num":
            return Expr("num", val)
        if kind == "ident":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Expr("call", val, arg)
            if val == self.var:
                return Expr("var")
            raise ExpressionError(
                f"unknown symbol {val!r} (variable is {self.var!r})", token=val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}", token=val)


def parse(text: str, var: str = "u") -> Expr:
    parser = _Parser(_tokenize(text), var)
    node = parser.parse_expr()
    kind, val = parser.peek()
    if kind != "end":
        raise ExpressionError(f"trailing input at {val!r}", token=val)
    return node


def compile_expression(text: str, var: str = "u") -> Callable[[Jet], Jet]:
    """Compile expression text to a jet-capable callable of one variable: a
    jet gives a jet (a constant one for a constant expression), a float
    gives the float value."""
    node = parse(text, var)

    def fn(x):
        out = node.eval(x)
        if isinstance(x, Jet) and not isinstance(out, Jet):
            return jets.constant(out)
        return out
    return fn
