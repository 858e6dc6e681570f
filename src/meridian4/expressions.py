"""Tiny expression grammar for profile/directrix functions.

Grammar: decimal literals (digits with an optional point and exponent; as in
Python, an integer literal such as 01 has no leading zero), one variable
symbol, + - * / ^ (right-associative), parentheses, and the function set {sin,
cos, tan, sec, sinh, cosh, exp, log, sqrt} called with one argument, nested at
most MAX_DEPTH levels deep; whitespace may separate tokens. Python's parser
reads the text, with ^ for **, and one checked walk of its tree compiles the
expression to closures over third-order jets; any other construct is an
ExpressionError. Floats pass through as values: a compiled expression called
on a float gives a float, equal bit for bit to the value of its jet, with the
same DomainError outside its domain.
"""

import ast
import operator
import re
import warnings
from collections.abc import Callable

from . import jets
from .errors import ExpressionError
from .jets import Jet

__all__ = ["compile_expression"]

MAX_DEPTH = 100  # levels of operations and calls an expression may nest

_FUNCTIONS = {name: getattr(jets, "j" + name) for name in
              ("sin", "cos", "tan", "sec", "sinh", "cosh", "exp", "log", "sqrt")}

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: jets.jdiv, ast.Pow: jets.jpow}

# a character no token or space contains (a comment, comma or quote), or **
_BAD_TEXT = re.compile(r"[^\w .+\-*/^()]|\*\*")
_NUMBER = re.compile(r"[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?")
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


def compile_expression(text: str, var: str = "u") -> Callable[[Jet], Jet]:
    """Compile expression text to a jet-capable callable of one variable: a
    jet gives a jet (a constant one for a constant expression), a float
    gives the float value."""
    text = " ".join(text.split())
    bad = _BAD_TEXT.search(text)
    if bad:
        raise ExpressionError(f"unexpected {bad.group()!r}", token=bad.group())
    source = text.replace("^", "**")
    try:
        with warnings.catch_warnings():  # "1if" would print a SyntaxWarning
            warnings.simplefilter("ignore")
            tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"invalid expression: {exc.msg}") from None
    except (RecursionError, MemoryError):
        # how Python's parser reports nesting past its own stack limits
        raise ExpressionError(_TOO_DEEP) from None
    data = source.encode()  # one line, whose column offsets count UTF-8 bytes

    def segment(node):
        return data[node.col_offset:node.end_col_offset].decode()

    def build(node, depth):
        """The closure computing the subtree `node`, from left to right."""
        if depth > MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP)
        match node:
            case ast.Constant() if _NUMBER.fullmatch(segment(node)):
                value = float(segment(node))
                return lambda x: value
            case ast.Name() if segment(node) == var:
                return lambda x: x
            case ast.Name():
                name = segment(node)
                raise ExpressionError(
                    f"unknown symbol {name!r} (variable is {var!r})", token=name)
            case ast.UnaryOp(op=ast.UAdd()):
                return build(node.operand, depth + 1)  # Jet has no __pos__
            case ast.UnaryOp(op=ast.USub()):
                operand = build(node.operand, depth + 1)
                return lambda x: -operand(x)
            case ast.BinOp() if type(node.op) in _BINARY:
                op = _BINARY[type(node.op)]
                lhs, rhs = build(node.left, depth + 1), build(node.right, depth + 1)
                return lambda x: op(lhs(x), rhs(x))
            case ast.Call(func=ast.Name(), args=[arg], keywords=[]):
                name = segment(node.func)
                if name not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {name!r}", token=name)
                func, inner = _FUNCTIONS[name], build(arg, depth + 1)
                return lambda x: func(inner(x))
        bad = segment(node)
        raise ExpressionError(f"unsupported syntax {bad!r}", token=bad)

    body = build(tree.body, 1)

    def fn(x):
        out = body(x)
        if isinstance(x, Jet) and not isinstance(out, Jet):
            return jets.constant(out)
        return out
    return fn
