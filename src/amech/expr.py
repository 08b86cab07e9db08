"""Expression trees and their symbolic derivatives.

Every derivative in the package flows through this module. A model is
given only as expression trees, and its gradients and Hessians come from
the partial-derivative trees that `derivative` builds. The central
difference rules `_fd_gradient` and `_fd_hessian` are cross-checks of that
route; `_fd_gradient` also differentiates the one function that has no
tree, the SODE defect that `cli` projects an off-locus start onto.

Two routes evaluate the trees. The tree walk (`evaluate`, `grad`, `hessian`)
is the reference: memoised, so a node that trees share is evaluated once, it
checks every primitive's domain and reports a failure with its path. The hot
paths (`ScalarFunction`, the chart tensors, the vakonomic point) run generated
code instead: `generate` emits one straight-line Python function per layout of
trees and variable order, one operation per line in the tree's own order, with
repeated subexpressions computed once, so every number is bit-identical to the
walk; a layout of constants only gets no code, just its values.
`lazy_generated` builds that code at the first call, reuses compiled
code with the same source text and keeps its last result, floats and read-only
arrays of them, for a repeated point, through `keep_last`, the package's one
last-point memo. Generated code and derived trees are kept on the spec or
expression node they come from, by `kept`, the package's one place for them.
Where the code raises ArithmeticError or ValueError, or the trees name a
variable outside the names and params, `_walk` walks the same layout, so the
caller sees the walk's own error or the unbound name.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence, TypeVar

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
    "partials",
    "evaluate",
    "grad",
    "hessian",
    "substitute",
    "variables_of",
    "format_expr",
    "generate",
    "lazy_generated",
    "keep_last",
    "kept",
    "ScalarFunction",
]

UNARY_OPS = ("neg", "sin", "cos", "exp", "ln", "sqrt")
BINARY_OPS = ("+", "-", "*", "/")


class Expr:
    """Immutable expression node; subclasses carry the actual payload."""

    def __getstate__(self) -> dict:
        # the payload only: what `kept` holds on a node (partial trees,
        # generated code) is rebuilt on demand
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

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


def _eval_node(node: Expr, env: Mapping[str, float], path: tuple, memo: dict) -> float:
    # each computed node's value is kept in memo by id
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariableError(node.name, _format_path(path)) from None
    if isinstance(node, Unary):
        v = _eval_node(node.arg, env, path + (node.op,), memo)
        if node.op == "ln" and v <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {v}", _format_path(path + ("ln",)))
        if node.op == "sqrt" and v < 0.0:
            raise EvalDomainError(f"sqrt of negative value {v}", _format_path(path + ("sqrt",)))
        v = -v if node.op == "neg" else _UNARY_FN[node.op](v)
    elif isinstance(node, Binary):
        left = _eval_node(node.left, env, path + (node.op, "left"), memo)
        right = _eval_node(node.right, env, path + (node.op, "right"), memo)
        if node.op == "/" and right == 0.0:
            raise EvalDomainError("division by zero", _format_path(path + ("/",)))
        v = _BINARY_FN[node.op](left, right)
    elif isinstance(node, Pow):
        base = _eval_node(node.base, env, path + ("^", "base"), memo)
        if node.exponent < 0 and base == 0.0:
            raise EvalDomainError("zero base with negative exponent", _format_path(path + ("^",)))
        v = base ** node.exponent
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[id(node)] = v
    return v


def _format_path(path: tuple) -> str:
    return "/".join(path) if path else "<root>"


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate the tree under the given bindings.

    Plain floats in, plain float out. Association is fixed by the tree shape,
    so the result is bit-identical across calls.
    """
    return _eval_node(expr, bindings, (), {})


def _bindings(names: Sequence[str], params: Mapping[str, float],
              v: Sequence[float]) -> dict[str, float]:
    env = dict(params)
    env.update(zip(names, (float(c) for c in v)))
    return env


# ---------------------------------------------------------------------------
# Symbolic differentiation

_ZERO, _ONE, _TWO = Const(0.0), Const(1.0), Const(2.0)


def _is(node: Expr, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    """The node a op b, with constant arithmetic, zeros, ones and double
    negations folded away."""
    if isinstance(a, Const) and isinstance(b, Const) and not (op == "/" and b.value == 0.0):
        return Const(_BINARY_FN[op](a.value, b.value))
    if (_is(a, 0.0) and op in "*/") or (_is(b, 0.0) and op == "*"):
        return _ZERO
    if (_is(b, 0.0) and op in "+-") or (_is(b, 1.0) and op in "*/"):
        return a
    if (_is(a, 0.0) and op == "+") or (_is(a, 1.0) and op == "*"):
        return b
    if _is(a, 0.0) and op == "-":
        # -(-x) is x, bit for bit
        return b.arg if isinstance(b, Unary) and b.op == "neg" else Unary("neg", b)
    return Binary(op, a, b)


def _dot(pairs) -> Expr:
    """sum of a*b over the pairs, left to right, zeros and ones folded."""
    total = _ZERO
    for a, b in pairs:
        total = _fold("+", total, _fold("*", a, b))
    return total


def derivative(node: Expr, var: str, memo: dict | None = None) -> Expr:
    """Partial derivative of the tree with respect to one variable, as a tree.

    The result reuses the subtrees of node, so it applies a unary op or a
    power only to values that evaluating node also produces; its new
    divisions are by such values, or by 2 sqrt(a) for a sqrt(a) in node.
    A branch in which var does not occur is 0 without a visit, and folding
    while building drops every other branch that cancels.

    memo, if given, keeps each visited node's variables and each (node, var)
    result by node identity, for later calls over the same trees; it holds
    the nodes, so no identity it keys is reused while it lives.
    """
    return _derive(node, var, {} if memo is None else memo)


def _free(node: Expr, memo: dict) -> frozenset[str]:
    hit = memo.get(id(node))
    if hit is None:
        if isinstance(node, Const):
            names = frozenset()
        elif isinstance(node, Var):
            names = frozenset((node.name,))
        elif isinstance(node, Unary):
            names = _free(node.arg, memo)
        elif isinstance(node, Binary):
            names = _free(node.left, memo) | _free(node.right, memo)
        elif isinstance(node, Pow):
            names = _free(node.base, memo)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        hit = memo[id(node)] = (node, names)
    return hit[1]


def _derive(node: Expr, var: str, memo: dict) -> Expr:
    if var not in _free(node, memo):
        return _ZERO
    hit = memo.get((id(node), var))
    if hit is not None:
        return hit[1]
    if isinstance(node, Var):
        d = _ONE
    elif isinstance(node, Unary):
        op, a, da = node.op, node.arg, _derive(node.arg, var, memo)
        if op == "neg":
            d = _fold("-", _ZERO, da)
        elif op == "ln":
            d = _fold("/", da, a)
        elif op == "sqrt":
            d = _fold("/", da, _fold("*", _TWO, node))
        elif op == "exp":
            d = _fold("*", node, da)
        elif op == "sin":
            d = _fold("*", Unary("cos", a), da)
        else:
            d = _fold("*", Unary("neg", Unary("sin", a)), da)
    elif isinstance(node, Binary):
        op, left, right = node.op, node.left, node.right
        dl, dr = _derive(left, var, memo), _derive(right, var, memo)
        if op in "+-":
            d = _fold(op, dl, dr)
        elif op == "*":
            d = _fold("+", _fold("*", dl, right), _fold("*", left, dr))
        else:
            # (l/r)' = (l' - (l/r) r') / r divides by r only, never by r^2
            d = _fold("/", _fold("-", dl, _fold("*", node, dr)), right)
    else:
        n, base = node.exponent, node.base
        power = _ONE if n == 1 else base if n == 2 else Pow(base, n - 1)
        d = _fold("*", _fold("*", Const(float(n)), power), _derive(base, var, memo))
    memo[id(node), var] = (node, d)
    return d


def _partials(expr: Expr, wrt: tuple, order: int) -> list:
    """(names, tree) of every first partial, or of every upper-triangle second
    partial row by row.

    Built on the first request and kept on the root node, so the trees go
    when the expression goes. The partials of one order share one
    `derivative` memo, so each node's variables are found once and a subtree
    met in several partials is derived once per variable; the memo goes
    when they are built.
    """
    def build() -> list:
        memo: dict = {}
        if order == 1:
            return [((name,), derivative(expr, name, memo)) for name in wrt]
        return [((a, b), derivative(tree, b, memo))
                for k, ((a,), tree) in enumerate(_partials(expr, wrt, 1))
                for b in wrt[k:]]

    return kept(expr, ("partials", order, wrt), build)


def partials(expr: Expr, wrt: Sequence[str]) -> list[Expr]:
    """The first partial trees of expr, one per name in wrt (built once)."""
    return [tree for _, tree in _partials(expr, tuple(wrt), 1)]


def _evaluated(groups: Sequence[tuple], env: Mapping[str, float],
               names: Sequence[str]) -> list[float]:
    """The values of the trees of groups, (trees, shape, order) as in
    `generate`, in order, from one walk with one memo: a node that trees
    share is evaluated once. A tree of an order-k group is the partial with
    respect to the names indexed by its position on the group's last k axes,
    and a domain error in it says so."""
    memo, values = {}, []
    for trees, shape, order in groups:
        for k, tree in enumerate(trees):
            try:
                values.append(_eval_node(tree, env, (), memo))
            except EvalDomainError as exc:
                if not order:
                    raise
                index = np.unravel_index(k, shape)[len(shape) - order:]
                label = " and ".join(f"'{names[i]}'" for i in index)
                raise EvalDomainError(f"derivative with respect to {label} is undefined",
                                      _format_path(())) from exc
    return values


def grad(expr: Expr, wrt: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
    """First derivatives of expr with respect to the listed variables.

    expr is evaluated first, so its own domain errors surface unchanged; a
    derivative that is undefined where expr is defined (sqrt at zero) raises
    EvalDomainError naming its variables.
    """
    if not wrt:
        raise ValueError("wrt must name at least one variable")
    value, gradient = _jet_layout(expr, tuple(wrt), 1)[0]
    return np.array(_evaluated([value, gradient], bindings, wrt)[1:])


def hessian(expr: Expr, wrt: Sequence[str], bindings: Mapping[str, float]) -> np.ndarray:
    """Second-derivative matrix of expr; errors as in grad.

    The lower triangle holds the upper triangle's own trees, each evaluated
    once, so the result is exactly symmetric.
    """
    if not wrt:
        raise ValueError("wrt must name at least one variable")
    value, _, h = _jet_layout(expr, tuple(wrt), 2)[0]
    return np.array(_evaluated([value, h], bindings, wrt)[1:]).reshape(len(wrt), len(wrt))


# ---------------------------------------------------------------------------
# Generated straight-line code

# compiled functions kept for reuse, keyed by their source text
GENERATED_CACHE_SIZE = 64

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
              "sqrt": math.sqrt, "_inf": math.inf, "_nan": math.nan}


def _literal(value: float) -> str:
    if math.isfinite(value):
        return f"({value!r})"
    if math.isnan(value):
        return "_nan"
    return "_inf" if value > 0 else "(-_inf)"


def _statement(key: tuple) -> str:
    op, *args = key
    if op == "neg":
        return f"-{args[0]}"
    if op in _UNARY_FN:
        return f"{op}({args[0]})"
    if op == "^":
        return f"{args[0]} ** ({args[1]})"
    return f"{args[0]} {op} {args[1]}"


def _folded(key: tuple) -> str | None:
    """The literal of a statement whose operands are all literals: the
    statement's own text run once here, so the value has the same bits.
    None when an operand is a variable or a temporary, or the statement
    raises: it then stays, and raises where the walk reports its error."""
    if any(str(arg)[0] in "tv" for arg in key[1:]):
        return None
    try:
        return _literal(eval(_statement(key), dict(_NAMESPACE)))
    except (ArithmeticError, ValueError):
        return None


def _straight_line(trees: Sequence[Expr],
                   slots: Mapping[str, str]) -> tuple[list[str], list[str]]:
    """Statements that compute every tree, and the operand holding each value.

    One operation per statement, applied to the same operands as in the tree,
    so each value is rounded exactly as the walk rounds it; one whose
    operands are all literals (constants and params) is computed here and
    becomes a literal itself. A node met before, by identity or as the same
    operation on the same operands, reuses its temporary: linear in the
    number of distinct nodes. A Var outside slots raises KeyError.
    """
    lines: list[str] = []
    seen: dict[int, str] = {}
    temps: dict[tuple, str] = {}

    def visit(node: Expr) -> str:
        operand = seen.get(id(node))
        if operand is not None:
            return operand
        if isinstance(node, Const):
            operand = _literal(node.value)
        elif isinstance(node, Var):
            operand = slots[node.name]
        else:
            if isinstance(node, Unary):
                key = (node.op, visit(node.arg))
            elif isinstance(node, Binary):
                key = (node.op, visit(node.left), visit(node.right))
            elif isinstance(node, Pow):
                key = ("^", visit(node.base), node.exponent)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            operand = temps.get(key) or _folded(key)
            if operand is None:
                operand = temps[key] = f"t{len(temps)}"
                lines.append(f"{operand} = {_statement(key)}")
        seen[id(node)] = operand
        return operand

    return lines, [visit(tree) for tree in trees]


@functools.lru_cache(maxsize=GENERATED_CACHE_SIZE)
def _compile(source: str) -> Callable:
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<amech generated>", "exec"), namespace)
    return namespace["_generated"]


def generate(names: Sequence[str], params: Mapping[str, float],
             groups: Sequence[tuple],
             checks: Sequence[tuple] = ()) -> Callable[[list[float]], object] | None:
    """One function of a list of floats, bound to names in order, that
    evaluates every tree of groups and of checks.

    A group is (trees, shape, order); the order is for `_walk` only and may
    be left out. The function returns one value per group, or a tuple of
    them: the group's single float for shape None, else the tuple of its
    floats in row-major order (`_arrays` makes arrays of them). checks are
    groups too, whose trees are evaluated for their domain errors only.
    Variables take the names first, then params, as in the walk. The
    function checks nothing: a domain failure surfaces as ArithmeticError or
    ValueError. None when a tree names anything else.

    When every tree is a Const (the anchor and structure functions of a Lie
    algebra or a tangent bundle, and their Jacobians) no code is built: the
    function returns the same values, each Const's own float, which is what
    the compiled literal reads back, and refuses a point of the wrong length
    with ValueError as the compiled unpacking does.
    """
    trees = [tree for group, *_ in [*checks, *groups] for tree in group]
    if all(type(tree) is Const for tree in trees):
        values = [group[0].value if shape is None else tuple([t.value for t in group])
                  for group, shape, *_ in groups]
        return _constant_code(len(names), values[0] if len(values) == 1 else tuple(values))
    slots = {name: _literal(float(value)) for name, value in params.items()}
    slots.update((name, f"v{i}") for i, name in enumerate(names))
    try:
        lines, operands = _straight_line(trees, slots)
    except KeyError:
        return None
    parts, k = [], sum(len(group) for group, *_ in checks)
    for group, shape, *_ in groups:
        ops = operands[k:k + len(group)]
        k += len(group)
        parts.append(ops[0] if shape is None else f"({''.join(f'{op}, ' for op in ops)})")
    unpack = "".join(f"v{i}, " for i in range(len(names)))
    source = ("def _generated(v):\n"
              + (f"    {unpack}= v\n" if names else "")
              + "".join(f"    {line}\n" for line in lines)
              + f"    return {', '.join(parts)}\n")
    return _compile(source)


def _constant_code(width: int, values: object) -> Callable[[list[float]], object]:
    """`generate`'s function of trees that are all constants."""
    def constant(v: list[float]) -> object:
        if width and len(v) != width:
            raise ValueError(f"expected {width} values to unpack, got {len(v)}")
        return values

    return constant


def _array_plan(shapes: list) -> tuple:
    """For `_arrays`: each shaped group's index and packer, and each group's
    buffer slice (None for a float) and shape (None for a vector: the slice)."""
    packs, items, at = [], [], 0
    for i, shape in enumerate(shapes):
        size = 0 if shape is None else math.prod(shape)
        if shape is not None:
            packs.append((i, struct.Struct(f"{size}d").pack))
        items.append((shape and slice(at, at + size), shape if len(shape or ()) > 1 else None))
        at += size
    return packs, items


def _arrays(values: object, plan: tuple) -> object:
    """A generated call's values with each group of a shape as a read-only
    array: views of one buffer of the groups' floats, packed as doubles."""
    packs, items = plan
    groups = (values,) if len(items) == 1 else values
    buf = np.frombuffer(b"".join([pack(*groups[i]) for i, pack in packs]))
    arrays = tuple([group if part is None else buf[part] if shape is None
                    else buf[part].reshape(shape) for group, (part, shape) in zip(groups, items)])
    return arrays[0] if len(items) == 1 else arrays


def _walk(names: Sequence[str], params: Mapping[str, float], layout: tuple,
          x: Sequence[float]) -> None:
    """`_evaluated` of a (groups, checks) layout at x, the check groups
    first, run for its first error."""
    groups, checks = layout
    _evaluated([*checks, *groups], _bindings(names, params, x), names)


T = TypeVar("T")


def kept(owner: object, key: Hashable, build: Callable[[], T]) -> T:
    """build(), made at the first request for key and kept on owner.

    The package's one place for generated code and derived trees: owner is
    a spec or an expression node, which never changes, and its values live
    in one `_kept` dict on it, so they go when the owner goes. The dict is
    not a dataclass field, so equality and hashing of the owner are
    unchanged, and its `__getstate__` leaves it out of a copy. A key that
    holds an id() is the id of a tree the value itself holds.
    """
    store = vars(owner).setdefault("_kept", {})
    if key not in store:
        store[key] = build()
    return store[key]


def keep_last(fn: Callable[[np.ndarray], T]) -> Callable[[np.ndarray], T]:
    """g(x) = fn(x) for x as a float array, or a list of floats that fn gets
    as it is; kept for the last x by the bytes of its doubles.

    The package's one last-point memo: consecutive calls at one point (a
    right-hand side's first stage at the row its monitors just read, the
    value, gradients and Hessian of H at one point) run fn once. The bytes
    tell -0.0 from +0.0. A call that raises keeps nothing.
    """
    last: list = [None, None]

    def g(x: np.ndarray) -> T:
        x = x if type(x) is list else np.asarray(x, dtype=float)
        key = struct.pack(f"{len(x)}d", *x) if type(x) is list else x.tobytes()
        if last[0] != key:
            last[:] = key, fn(x)
        return last[1]

    return g


def lazy_generated(names: Sequence[str], params: Mapping[str, float],
                   layout: Callable[[], tuple]) -> Callable[[np.ndarray], object]:
    """f(x): the code `generate` makes of layout() run at x through
    `keep_last`, so a repeated point runs it once, its groups of a shape as
    read-only arrays built once per point; f.values(x): the call's floats.

    layout() returns (groups, checks); it runs, with the code generation, at
    the first call, never before. Where the trees cannot be compiled, or the
    generated code raises ArithmeticError or ValueError, layout() runs again
    and `_walk` evaluates it, so the caller sees the walk's own error,
    message and path.
    """
    code: list = []  # the compiled function, or None, and its `_array_plan`

    def run(x: np.ndarray) -> object:
        if not code:
            groups, checks = layout()
            code[:] = generate(names, params, groups, checks), _array_plan([g[1] for g in groups])
        if code[0] is not None:
            try:
                return code[0](x if type(x) is list else x.tolist())
            except (ArithmeticError, ValueError):
                _walk(names, params, layout(), x)
                raise  # the walk found no error: the code's own stands
        # a tree names a variable outside names and params: the walk reports it
        _walk(names, params, layout(), x)

    values = keep_last(run)
    last: list = [None, None]  # the values the arrays were built from, and they

    def f(x: np.ndarray) -> object:
        got = values(x)
        if last[0] is not got:
            last[:] = got, _arrays(got, code[1])
        return last[1]

    f.values = values
    return f


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
    return _free(expr, {})


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


def _jet_layout(expr: Expr, names: tuple, order: int) -> tuple:
    """The groups of ScalarFunction's generated jet of this order: the value,
    then the gradient, then the Hessian with its upper triangle mirrored."""
    n = len(names)
    groups = [([expr], None, 0)]
    if order >= 1:
        groups.append((partials(expr, names), (n,), 1))
    if order == 2:
        upper = iter([tree for _, tree in _partials(expr, names, 2)])
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(upper)
        groups.append(([tree for row in rows for tree in row], (n, n), 2))
    return groups, ()


class ScalarFunction:
    """Scalar function of an ordered tuple of named real variables, given as
    an expression tree: exact derivatives from symbolic partial trees, run
    as generated code with the tree walk as fallback.
    """

    def __init__(self, names: Sequence[str], *, expr: Expr,
                 params: Mapping[str, float] | None = None):
        if not isinstance(expr, Expr):
            raise TypeError(f"a model function must be an expression tree, "
                            f"got {type(expr).__name__}")
        self.names = tuple(names)
        self.expr = expr
        self.params = dict(params) if params else {}
        # value; value and gradient; value, gradient and Hessian, kept on the
        # root node for every function of the same names and params
        self._jets = kept(expr, ("jets", self.names, tuple(sorted(self.params.items()))),
                          lambda: [lazy_generated(
                              self.names, self.params,
                              functools.partial(_jet_layout, expr, self.names, order))
                              for order in range(3)])

    def _env(self, v: Sequence[float]) -> dict[str, float]:
        return _bindings(self.names, self.params, v)

    def value(self, v: Sequence[float]) -> float:
        return float(self._jets[0].values(np.asarray(v, dtype=float)))

    def gradient(self, v: Sequence[float]) -> np.ndarray:
        return self._jets[1](v)[1]

    def hessian(self, v: Sequence[float]) -> np.ndarray:
        return self._jets[2](v)[2]

    def derivatives(self, v: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray]:
        """(value, gradient, Hessian) at v, from one call of the generated code."""
        value, g, h = self._jets[2](v)
        return float(value), g, h


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
