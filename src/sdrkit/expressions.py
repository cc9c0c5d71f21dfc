"""Distance expressions: the whitelist that a config's expression must pass,
and `ExpressionDistance`, which compiles it once into a function of one pair
and an exact numpy form for every pair of a sample list.
"""

from __future__ import annotations

import ast
import math
import operator
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ConfigError

# --- the whitelist ------------------------------------------------------------
#
# Exponents along any path multiply to at most MAX_EXPONENT_PRODUCT, each
# counted as at least 1, so that `(a ** 1000000) ** 0` cannot hide a huge power.

MAX_EXPRESSION_NODES = 256
MAX_EXPONENT_PRODUCT = 64
_VARIABLES = ("a", "b")
_FUNCTIONS = ("abs", "min", "max")
_MATH_NAMES = frozenset(
    "fabs sqrt exp log log2 log10 sin cos tan asin acos atan atan2 hypot "
    "floor ceil trunc copysign fmod pi e tau inf".split()
)
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
              ast.UAdd, ast.USub, ast.Not, ast.And, ast.Or)
_COMPARISONS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _invalid_expression(reason: str) -> ConfigError:
    return ConfigError(f"config.distance: invalid expression: {reason}")


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _is_math_name(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr in _MATH_NAMES)


def _check_expression(node: ast.AST, power: float = 1) -> None:
    """Raise unless ``node`` and everything under it is on the whitelist;
    ``power`` is the product of the exponents above it."""
    children = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)]
    bad = node
    if isinstance(node, ast.Name):
        ok = node.id in _VARIABLES
    elif isinstance(node, ast.Constant):
        ok = _is_number(node)
    elif isinstance(node, ast.Subscript):  # a[k], or a[k][j] for a (cell, speed) pair
        ok = (isinstance(node.value, (ast.Name, ast.Subscript))
              and isinstance(node.slice, ast.Constant) and type(node.slice.value) is int
              and node.slice.value >= 0)
        children = [node.value]
    elif isinstance(node, ast.Attribute):
        ok, children = _is_math_name(node), []
    elif isinstance(node, ast.Call):
        if node.keywords:
            raise _invalid_expression("keyword arguments are not allowed")
        ok = _is_math_name(node.func) or (isinstance(node.func, ast.Name)
                                          and node.func.id in _FUNCTIONS)
        bad, children = node.func, node.args
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exponent = node.right
        if isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, (ast.UAdd, ast.USub)):
            exponent = exponent.operand
        ok = _is_number(exponent)
        if ok:
            power *= max(abs(exponent.value), 1)
            if power > MAX_EXPONENT_PRODUCT:
                raise _invalid_expression(
                    f"the exponents of {ast.unparse(node)!r} multiply to more than "
                    f"{MAX_EXPONENT_PRODUCT}")
        children = [node.left]
    elif isinstance(node, (ast.BinOp, ast.UnaryOp, ast.BoolOp)):
        ok = isinstance(node.op, _OPERATORS)
    elif isinstance(node, ast.Compare):
        ok = all(isinstance(op, _COMPARISONS) for op in node.ops)
    else:
        ok = isinstance(node, ast.IfExp)
    if not ok:
        raise _invalid_expression(f"{ast.unparse(bad)!r} is not allowed")
    for child in children:
        _check_expression(child, power)


def _checked_body(expr: str) -> ast.expr:
    try:
        tree = ast.parse(expr, "<distance expression>", "eval")
    except (SyntaxError, ValueError) as exc:  # ValueError: a null byte, on 3.10
        raise _invalid_expression(str(exc)) from exc
    except (RecursionError, MemoryError):  # the parser's depth limits
        raise _invalid_expression("nested too deeply to parse") from None
    if sum(isinstance(n, ast.expr) for n in ast.walk(tree)) > MAX_EXPRESSION_NODES:
        raise _invalid_expression(f"more than {MAX_EXPRESSION_NODES} nodes")
    _check_expression(tree.body)
    return tree.body


# --- the matrix form, exact by construction ----------------------------------
# A node is int64 when its values are all Python ints, else float64 (floats,
# or a mix), and carries a bound on its ints' magnitude (None without ints).
# Up to 2**53 float64 holds each int exactly, so int/float operations convert
# as Python does, and int arithmetic in float64 differs only in making -0.0:
# a float64 node with ints declines negation, and products and remainders
# with ints.  numpy's float remainder is Python's: fmod, then the divisor's
# sign.  `np.where` keeps min's and max's running value unless a later one
# compares strictly below/above, as Python does, NaN included.

_BLOCK_CELLS = 1 << 13  # per numpy pass: 64 kB temporaries stay in cache, off mmap
_EXACT_INT = 1 << 53
_ARITHMETIC = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide,
               ast.Mod: np.remainder}


class _Inexact(Exception):
    """numpy might not give Python's value here, or Python would raise."""


def _numbers(values: list) -> tuple[np.ndarray, int | None]:
    """Python ints and floats as a node; `_Inexact` for other types or ints past 2**53."""
    ints = [abs(v) for v in values if type(v) is int]
    if any(type(v) not in (int, float) for v in values) or max(ints, default=0) > _EXACT_INT:
        raise _Inexact
    dtype = np.int64 if len(ints) == len(values) else np.float64
    return np.array(values, dtype=dtype), max(ints, default=None)


def _vectorise(node: ast.expr, samples: Sequence, columns: dict,
               rows: slice) -> tuple[np.ndarray, int | None]:
    """``node`` over the pairs (i in rows, any j) and its int bound, None for
    floats; `_Inexact` outside the subset.  ``columns`` caches leaf values."""
    if isinstance(node, ast.Constant):
        return _numbers([node.value])
    if isinstance(node, (ast.Name, ast.Subscript)):
        keys: tuple[int, ...] = ()
        while isinstance(node, ast.Subscript):
            keys, node = (node.slice.value, *keys), node.value
        if keys not in columns:
            try:  # on a failed item, the per-pair path names the pair
                columns[keys] = _numbers([reduce(operator.getitem, keys, x) for x in samples])
            except Exception:
                raise _Inexact from None
        values, bound = columns[keys]
        return (values[rows, None] if node.id == "a" else values[None, :]), bound
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        x, bound = _vectorise(node.operand, samples, columns, rows)
        if isinstance(node.op, ast.USub) and bound is not None and x.dtype != np.int64:
            raise _Inexact  # Python's -0 is 0, not -0.0
        return (x if isinstance(node.op, ast.UAdd) else -x), bound
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        (x, bx), (y, by) = (_vectorise(n, samples, columns, rows) for n in (node.left, node.right))
        op = type(node.op)
        ints = op is not ast.Div and bx is not None and by is not None
        bound = (bx * by if op is ast.Mult else bx + by) if ints else None
        z = _ARITHMETIC[op](x, y)
        if ((bound or 0) > _EXACT_INT
                or (op in (ast.Div, ast.Mod) and not np.all(y))  # 1/0 and 1 % 0 raise
                or (op in (ast.Mult, ast.Mod) and ints and z.dtype != np.int64)):  # 4 % -2 is 0
            raise _Inexact
        return z, bound
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name, args = node.func.id, [_vectorise(n, samples, columns, rows) for n in node.args]
        if name == "abs" and len(args) == 1:
            return np.abs(args[0][0]), args[0][1]
        if name in ("min", "max") and len(args) > 1:
            pick = np.less if name == "min" else np.greater
            best = reduce(lambda best, x: np.where(pick(x, best), x, best), [x for x, _ in args])
            return best, max((bound for _, bound in args if bound is not None), default=None)
    raise _Inexact


class ExpressionDistance:
    """A whitelisted distance expression, compiled once.  Calling it runs
    the expression on one pair; `matrix` evaluates it on every pair."""

    def __init__(self, expr: str):
        self._expr = expr
        self._body = _checked_body(expr)
        params = ast.arguments(posonlyargs=[], args=[ast.arg("a"), ast.arg("b")],
                               kwonlyargs=[], kw_defaults=[], defaults=[])
        tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, self._body)))
        namespace = {"__builtins__": {}, "abs": abs, "min": min, "max": max, "math": math}
        self._pair = eval(compile(tree, "<distance expression>", "eval"), namespace)

    def __call__(self, a, b):
        return self._pair(a, b)

    def __reduce__(self):  # the compiled lambda does not pickle; the source does
        return ExpressionDistance, (self._expr,)

    def __repr__(self) -> str:
        return f"ExpressionDistance({self._expr!r})"

    def matrix(self, samples: Sequence) -> np.ndarray | None:
        """``D[i, j] = float(self(samples[i], samples[j]))`` for every ordered
        pair, or None unless numpy gives exactly that and no pair raises."""
        m, columns = len(samples), {}
        D = np.empty((m, m))
        block = max(1, _BLOCK_CELLS // max(m, 1))
        try:
            with np.errstate(all="ignore"):  # inf - inf is nan, 1e308 * 10 is inf, as in Python
                for start in range(0, m, block):
                    rows = slice(start, start + block)
                    D[rows] = _vectorise(self._body, samples, columns, rows)[0]
        except _Inexact:
            return None
        return D
