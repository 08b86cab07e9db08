"""Expression trees and forward-mode differentiation.

Every derivative in the package flows through this module: gradients and
Hessians are computed by evaluating the tree on dual numbers (nested duals for
second order), with a central finite-difference path for callables that have
no tree. `_fd_gradient` is the package's one first-order difference rule: it
also differentiates the tensor fields of closure-defined charts and the
constraint fields of the constraint algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import EvalDomainError, UnboundVariableError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Pow",
    "Dual",
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

Scalar = Union[float, "Dual"]


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
# Dual numbers


@dataclass(frozen=True)
class Dual:
    """Value plus a vector of derivatives, one slot per seeded variable.

    Arithmetic applies the exact chain rule. The slots may themselves hold
    Dual numbers, which is how second derivatives are obtained.
    """

    value: Scalar
    derivs: tuple

    @staticmethod
    def seed(value: Scalar, index: int, width: int) -> "Dual":
        slots = tuple(1.0 if j == index else 0.0 for j in range(width))
        return Dual(value, slots)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value,
                        tuple(a + b for a, b in zip(self.derivs, other.derivs)))
        return Dual(self.value + other, self.derivs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value,
                        tuple(a - b for a, b in zip(self.derivs, other.derivs)))
        return Dual(self.value - other, self.derivs)

    def __rsub__(self, other):
        return Dual(other - self.value, tuple(-d for d in self.derivs))

    def __neg__(self):
        return Dual(-self.value, tuple(-d for d in self.derivs))

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        tuple(a * other.value + self.value * b
                              for a, b in zip(self.derivs, other.derivs)))
        return Dual(self.value * other, tuple(d * other for d in self.derivs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.value / other.value
            return Dual(q, tuple((a - q * b) / other.value
                                 for a, b in zip(self.derivs, other.derivs)))
        return Dual(self.value / other, tuple(d / other for d in self.derivs))

    def __rtruediv__(self, other):
        q = other / self.value
        return Dual(q, tuple(-q * d / self.value for d in self.derivs))

    def __pow__(self, exponent: int):
        if exponent == 0:
            return Dual(_one_like(self.value), tuple(_zero_like(d) for d in self.derivs))
        v = self.value ** exponent
        factor = exponent * self.value ** (exponent - 1)
        return Dual(v, tuple(factor * d for d in self.derivs))

    def sin(self):
        c = _cos(self.value)
        return Dual(_sin(self.value), tuple(c * d for d in self.derivs))

    def cos(self):
        s = _sin(self.value)
        return Dual(_cos(self.value), tuple(-s * d for d in self.derivs))

    def exp(self):
        e = _exp(self.value)
        return Dual(e, tuple(e * d for d in self.derivs))

    def ln(self):
        return Dual(_ln(self.value), tuple(d / self.value for d in self.derivs))

    def sqrt(self):
        r = _sqrt(self.value)
        return Dual(r, tuple(d / (2.0 * r) for d in self.derivs))


def _one_like(v: Scalar) -> Scalar:
    if isinstance(v, Dual):
        return Dual(_one_like(v.value), tuple(_zero_like(d) for d in v.derivs))
    return 1.0


def _zero_like(v: Scalar) -> Scalar:
    if isinstance(v, Dual):
        return Dual(_zero_like(v.value), tuple(_zero_like(d) for d in v.derivs))
    return 0.0


def _sin(v: Scalar) -> Scalar:
    return v.sin() if isinstance(v, Dual) else math.sin(v)


def _cos(v: Scalar) -> Scalar:
    return v.cos() if isinstance(v, Dual) else math.cos(v)


def _exp(v: Scalar) -> Scalar:
    return v.exp() if isinstance(v, Dual) else math.exp(v)


def _ln(v: Scalar) -> Scalar:
    return v.ln() if isinstance(v, Dual) else math.log(v)


def _sqrt(v: Scalar) -> Scalar:
    return v.sqrt() if isinstance(v, Dual) else math.sqrt(v)


def primal(v: Scalar) -> float:
    """Strip all derivative structure and return the underlying float."""
    while isinstance(v, Dual):
        v = v.value
    return v


# ---------------------------------------------------------------------------
# Evaluation

_UNARY_FN = {"sin": _sin, "cos": _cos, "exp": _exp, "ln": _ln, "sqrt": _sqrt}


def _eval_node(node: Expr, env: Mapping[str, Scalar], path: tuple) -> Scalar:
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
        p = primal(v)
        if node.op == "ln" and p <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {p}", _format_path(path + ("ln",)))
        if node.op == "sqrt" and p < 0.0:
            raise EvalDomainError(f"sqrt of negative value {p}", _format_path(path + ("sqrt",)))
        return _UNARY_FN[node.op](v)
    if isinstance(node, Binary):
        left = _eval_node(node.left, env, path + (node.op, "left"))
        right = _eval_node(node.right, env, path + (node.op, "right"))
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if primal(right) == 0.0:
            raise EvalDomainError("division by zero", _format_path(path + ("/",)))
        return left / right
    if isinstance(node, Pow):
        base = _eval_node(node.base, env, path + ("^", "base"))
        if node.exponent < 0 and primal(base) == 0.0:
            raise EvalDomainError("zero base with negative exponent", _format_path(path + ("^",)))
        return base ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def _format_path(path: tuple) -> str:
    return "/".join(path) if path else "<root>"


def evaluate(expr: Expr, bindings: Mapping[str, Scalar]) -> Scalar:
    """Evaluate the tree under the given bindings.

    Plain floats in, plain float out; seeding Dual numbers in the bindings
    propagates derivatives. Association is fixed by the tree shape, so the
    result is bit-identical across calls.
    """
    return _eval_node(expr, bindings, ())


def grad(expr: Expr, wrt: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
    """First derivatives of expr with respect to the listed variables.

    One forward pass with one dual slot per entry of wrt.
    """
    if not wrt:
        raise ValueError("wrt must name at least one variable")
    width = len(wrt)
    env: dict[str, Scalar] = dict(bindings)
    for i, name in enumerate(wrt):
        if name in bindings:
            env[name] = Dual.seed(bindings[name], i, width)
    out = evaluate(expr, env)
    if isinstance(out, Dual):
        return np.array(out.derivs, dtype=float)
    return np.zeros(width)


def hessian(expr: Expr, wrt: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
    """Second-derivative matrix via forward-over-forward duals.

    The upper triangle is computed and mirrored, so the result is exactly
    symmetric.
    """
    if not wrt:
        raise ValueError("wrt must name at least one variable")
    width = len(wrt)
    env: dict[str, Scalar] = dict(bindings)
    for i, name in enumerate(wrt):
        if name not in bindings:
            continue
        inner = Dual.seed(bindings[name], i, width)
        env[name] = Dual.seed(inner, i, width)
    out = evaluate(expr, env)
    h = np.zeros((width, width))
    if isinstance(out, Dual):
        for i in range(width):
            slot = out.derivs[i]
            if isinstance(slot, Dual):
                row = slot.derivs
                for j in range(i, width):
                    h[i, j] = row[j]
    for i in range(width):
        for j in range(i):
            h[i, j] = h[j, i]
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

    Wraps either an expression tree (derivatives by dual numbers, exact) or a
    plain callable (derivatives by central finite differences with step
    1e-6 * max(1, |x|)). The `source` attribute reports which path is active
    so validators can say where their numbers came from.
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
