"""Expression trees and their symbolic derivatives.

Every derivative in the package flows through this module: gradients and
Hessians are evaluated from the partial-derivative trees that `derivative`
builds, with a central finite-difference path for callables that have no
tree. `_fd_gradient` is the package's one first-order difference rule: it
also differentiates the tensor fields of closure-defined charts and the
constraint fields of the constraint algorithm.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EvalDomainError, UnboundVariableError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Pow",
    "derivative",
    "evaluate",
    "grad",
    "hessian",
    "substitute",
    "variables_of",
    "format_expr",
    "ScalarFunction",
]

UNARY_OPS = ("neg", "sin", "cos", "exp", "ln", "sqrt")
BINARY_OPS = ("+", "-", "*", "/")


class Expr:
    """Immutable expression node; subclasses carry the actual payload."""

    def __add__(self, other: "Expr | float") -> "Expr":
        return Binary("+", self, _as_expr(other))

    def __radd__(self, other: "Expr | float") -> "Expr":
        return Binary("+", _as_expr(other), self)

    def __sub__(self, other: "Expr | float") -> "Expr":
        return Binary("-", self, _as_expr(other))

    def __rsub__(self, other: "Expr | float") -> "Expr":
        return Binary("-", _as_expr(other), self)

    def __mul__(self, other: "Expr | float") -> "Expr":
        return Binary("*", self, _as_expr(other))

    def __rmul__(self, other: "Expr | float") -> "Expr":
        return Binary("*", _as_expr(other), self)

    def __truediv__(self, other: "Expr | float") -> "Expr":
        return Binary("/", self, _as_expr(other))

    def __rtruediv__(self, other: "Expr | float") -> "Expr":
        return Binary("/", _as_expr(other), self)

    def __pow__(self, exponent: int) -> "Expr":
        return Pow(self, exponent)

    def __neg__(self) -> "Expr":
        return Unary("neg", self)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    arg: Expr

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ValueError("exponent must be a constant integer")


def _as_expr(v: "Expr | float") -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(float(v))


# ---------------------------------------------------------------------------
# Evaluation

_UNARY_FN = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
             "sqrt": math.sqrt}
_BINARY_FN = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


def _eval_node(node: Expr, env: Mapping[str, float], path: tuple) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariableError(node.name, _format_path(path)) from None
    if isinstance(node, Unary):
        v = _eval_node(node.arg, env, path + (node.op,))
        if node.op == "neg":
            return -v
        if node.op == "ln" and v <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {v}", _format_path(path + ("ln",)))
        if node.op == "sqrt" and v < 0.0:
            raise EvalDomainError(f"sqrt of negative value {v}", _format_path(path + ("sqrt",)))
        return _UNARY_FN[node.op](v)
    if isinstance(node, Binary):
        left = _eval_node(node.left, env, path + (node.op, "left"))
        right = _eval_node(node.right, env, path + (node.op, "right"))
        if node.op == "/" and right == 0.0:
            raise EvalDomainError("division by zero", _format_path(path + ("/",)))
        return _BINARY_FN[node.op](left, right)
    if isinstance(node, Pow):
        base = _eval_node(node.base, env, path + ("^", "base"))
        if node.exponent < 0 and base == 0.0:
            raise EvalDomainError("zero base with negative exponent", _format_path(path + ("^",)))
        return base ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def _format_path(path: tuple) -> str:
    return "/".join(path) if path else "<root>"


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate the tree under the given bindings.

    Plain floats in, plain float out. Association is fixed by the tree shape,
    so the result is bit-identical across calls.
    """
    return _eval_node(expr, bindings, ())


# ---------------------------------------------------------------------------
# Symbolic differentiation

_ZERO, _ONE, _TWO = Const(0.0), Const(1.0), Const(2.0)


def _is(node: Expr, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    """The node a op b, with constant arithmetic, zeros and ones folded away."""
    if isinstance(a, Const) and isinstance(b, Const) and not (op == "/" and b.value == 0.0):
        return Const(_BINARY_FN[op](a.value, b.value))
    if (_is(a, 0.0) and op in "*/") or (_is(b, 0.0) and op == "*"):
        return _ZERO
    if (_is(b, 0.0) and op in "+-") or (_is(b, 1.0) and op in "*/"):
        return a
    if (_is(a, 0.0) and op == "+") or (_is(a, 1.0) and op == "*"):
        return b
    if _is(a, 0.0) and op == "-":
        return Unary("neg", b)
    return Binary(op, a, b)


def derivative(node: Expr, var: str) -> Expr:
    """Partial derivative of the tree with respect to one variable, as a tree.

    The result reuses the subtrees of node, so it applies a unary op or a
    power only to values that evaluating node also produces; its new
    divisions are by such values, or by 2 sqrt(a) for a sqrt(a) in node.
    Folding while building drops every branch that does not depend on var.
    """
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Unary):
        op, a, da = node.op, node.arg, derivative(node.arg, var)
        if op == "neg":
            return _fold("-", _ZERO, da)
        if op == "ln":
            return _fold("/", da, a)
        if op == "sqrt":
            return _fold("/", da, _fold("*", _TWO, node))
        if op == "exp":
            return _fold("*", node, da)
        if op == "sin":
            return _fold("*", Unary("cos", a), da)
        return _fold("*", Unary("neg", Unary("sin", a)), da)
    if isinstance(node, Binary):
        op, left, right = node.op, node.left, node.right
        dl, dr = derivative(left, var), derivative(right, var)
        if op in "+-":
            return _fold(op, dl, dr)
        if op == "*":
            return _fold("+", _fold("*", dl, right), _fold("*", left, dr))
        # (l/r)' = (l' - (l/r) r') / r divides by r only, never by r^2
        return _fold("/", _fold("-", dl, _fold("*", node, dr)), right)
    if isinstance(node, Pow):
        n, base = node.exponent, node.base
        power = _ONE if n == 1 else base if n == 2 else Pow(base, n - 1)
        return _fold("*", _fold("*", Const(float(n)), power), derivative(base, var))
    raise TypeError(f"not an expression node: {node!r}")


def _partials(expr: Expr, wrt: tuple, order: int) -> list:
    """(names, tree) of every first partial, or of every upper-triangle second
    partial row by row.

    Built on the first request and kept on the root node, so the trees go
    when the expression goes. The memo is not a dataclass field, so equality
    and hashing of the node are unchanged.
    """
    memo = vars(expr).setdefault("_partials", {})
    if (order, wrt) not in memo:
        if order == 1:
            memo[1, wrt] = [((name,), derivative(expr, name)) for name in wrt]
        else:
            memo[2, wrt] = [((a, b), derivative(tree, b))
                            for k, ((a,), tree) in enumerate(_partials(expr, wrt, 1))
                            for b in wrt[k:]]
    return memo[order, wrt]


def _eval_partials(expr: Expr, wrt: Sequence[str], order: int,
                   bindings: Mapping[str, float]) -> list[float]:
    if not wrt:
        raise ValueError("wrt must name at least one variable")
    _eval_node(expr, bindings, ())
    values = []
    for names, tree in _partials(expr, tuple(wrt), order):
        try:
            values.append(_eval_node(tree, bindings, ()))
        except EvalDomainError as exc:
            # the failing node lies in a generated tree; name the derivative
            label = " and ".join(f"'{name}'" for name in names)
            raise EvalDomainError(f"derivative with respect to {label} is undefined",
                                  _format_path(())) from exc
    return values


def grad(expr: Expr, wrt: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
    """First derivatives of expr with respect to the listed variables.

    expr is evaluated first, so its own domain errors surface unchanged; a
    derivative that is undefined where expr is defined (sqrt at zero) raises
    EvalDomainError naming its variables.
    """
    return np.array(_eval_partials(expr, wrt, 1, bindings))


def hessian(expr: Expr, wrt: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
    """Second-derivative matrix of expr; errors as in grad.

    The upper triangle is evaluated and mirrored, so the result is exactly
    symmetric.
    """
    values = iter(_eval_partials(expr, wrt, 2, bindings))
    h = np.empty((len(wrt), len(wrt)))
    for i in range(len(wrt)):
        for j in range(i, len(wrt)):
            h[i, j] = h[j, i] = next(values)
    return h


# ---------------------------------------------------------------------------
# Structural helpers


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, leaving everything else untouched."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Unary):
        return Unary(expr.op, substitute(expr.arg, mapping))
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Pow):
        return Pow(substitute(expr.base, mapping), expr.exponent)
    raise TypeError(f"not an expression node: {expr!r}")


def variables_of(expr: Expr) -> frozenset[str]:
    """All variable names referenced anywhere in the tree."""
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Unary):
        return variables_of(expr.arg)
    if isinstance(expr, Binary):
        return variables_of(expr.left) | variables_of(expr.right)
    if isinstance(expr, Pow):
        return variables_of(expr.base)
    raise TypeError(f"not an expression node: {expr!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(expr: Expr) -> str:
    """Render the tree in DSL syntax; parsing the result rebuilds the tree."""
    return _fmt(expr, 0)


def _prec_of(expr: Expr) -> int:
    if isinstance(expr, Const):
        return 3 if expr.value < 0 else 5
    if isinstance(expr, Var):
        return 5
    if isinstance(expr, Unary):
        return 3 if expr.op == "neg" else 5
    if isinstance(expr, Binary):
        return _PREC[expr.op]
    if isinstance(expr, Pow):
        return 4
    raise TypeError(f"not an expression node: {expr!r}")


def _fmt(expr: Expr, context: int) -> str:
    if isinstance(expr, Const):
        text = repr(expr.value)
    elif isinstance(expr, Var):
        text = expr.name
    elif isinstance(expr, Unary):
        if expr.op == "neg":
            text = "-" + _fmt(expr.arg, 3)
        else:
            text = f"{expr.op}({_fmt(expr.arg, 0)})"
    elif isinstance(expr, Binary):
        prec = _PREC[expr.op]
        # the right operand needs a strictly higher context: +,-,*,/ associate left
        text = f"{_fmt(expr.left, prec)} {expr.op} {_fmt(expr.right, prec + 1)}"
    elif isinstance(expr, Pow):
        text = f"{_fmt(expr.base, 5)}^{expr.exponent}"
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if _prec_of(expr) < context:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Uniform differentiable scalar functions

FD_STEP = 1e-6


class ScalarFunction:
    """Scalar function of an ordered tuple of named real variables.

    Wraps either an expression tree (exact derivatives from symbolic partial
    trees) or a plain callable (derivatives by central finite differences with
    step 1e-6 * max(1, |x|)). The `source` attribute reports which path is
    active so validators can say where their numbers came from.
    """

    def __init__(self, names: Sequence[str], *, expr: Expr | None = None,
                 fn: Callable[[np.ndarray], float] | None = None,
                 params: Mapping[str, float] | None = None):
        if (expr is None) == (fn is None):
            raise ValueError("provide exactly one of expr or fn")
        self.names = tuple(names)
        self.expr = expr
        self.fn = fn
        self.params = dict(params) if params else {}
        self.source = "ad" if expr is not None else "fd"

    def _env(self, v: Sequence[float]) -> dict[str, float]:
        env = dict(self.params)
        env.update(zip(self.names, (float(c) for c in v)))
        return env

    def value(self, v: Sequence[float]) -> float:
        if self.expr is not None:
            return float(evaluate(self.expr, self._env(v)))
        return float(self.fn(np.asarray(v, dtype=float)))

    def gradient(self, v: Sequence[float]) -> np.ndarray:
        if self.expr is not None:
            if not self.names:
                return np.zeros(0)
            return grad(self.expr, self.names, self._env(v))
        return _fd_gradient(self.fn, np.asarray(v, dtype=float))

    def hessian(self, v: Sequence[float]) -> np.ndarray:
        if self.expr is not None:
            if not self.names:
                return np.zeros((0, 0))
            return hessian(self.expr, self.names, self._env(v))
        return _fd_hessian(self.fn, np.asarray(v, dtype=float))

    def value_and_gradient(self, v: Sequence[float]) -> tuple[float, np.ndarray]:
        return self.value(v), self.gradient(v)


def _fd_step(x: float) -> float:
    return FD_STEP * max(1.0, abs(x))


def _fd_gradient(fn: Callable[[np.ndarray], "float | np.ndarray"],
                 x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a scalar- or array-valued function.

    The result has shape fn(x).shape + (x.size,); fn is called at x only when
    x is empty, to learn that shape.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = _fd_step(x[j])
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append(np.subtract(fn(xp), fn(xm)) / (2.0 * h))
    if not cols:
        return np.zeros(np.shape(fn(x)) + (0,))
    return np.stack(cols, axis=-1)


def _fd_hessian(fn: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    n = x.size
    # second differences need a larger step than gradients: h ~ eps**(1/4)
    h = np.array([1e-4 * max(1.0, abs(c)) for c in x])
    out = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        out[i, i] = (fn(xp) - 2.0 * f0 + fn(xm)) / (h[i] * h[i])
        for j in range(i + 1, n):
            xpp = x.copy(); xpp[i] += h[i]; xpp[j] += h[j]
            xpm = x.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
            xmp = x.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
            xmm = x.copy(); xmm[i] -= h[i]; xmm[j] -= h[j]
            out[i, j] = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * h[i] * h[j])
            out[j, i] = out[i, j]
    return out
