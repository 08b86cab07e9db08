"""Parser and printer for the system-description language.

A document declares one coordinate chart of a Lie algebroid (base coordinates,
fiber basis, anchor table, bracket table), a Lagrangian, optional parameters
and an optional constraint block. Inside the Lagrangian and the constraint
expressions, a fiber name denotes the velocity coordinate of that basis
element.

Example::

    system plate_ball
    base [x1, x2]
    fiber [e1, e2, e3, e4, e5]
    anchor { e1 -> (1, 0); e2 -> (0, 1); e3 -> (0, 0); e4 -> (0, 0); e5 -> (0, 0) }
    bracket { [e3,e4] = e5; [e4,e5] = e3; [e5,e3] = e4 }
    params { Omega = 0.5, c = 0.0 }
    lagrangian = 0.5*(e1^2 + e2^2)
    vakonomic { e3 = -e2 + Omega*x1; e4 = e1 + Omega*x2; e5 = c }
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

from .errors import (
    DimensionMismatchError,
    DslSyntaxError,
    DuplicateIndexError,
    UndeclaredNameError,
)
from .expr import Binary, Const, Expr, Pow, Unary, Var, _is, format_expr, variables_of

__all__ = [
    "SystemSpec",
    "VakonomicBlock",
    "parse_system",
    "parse_expression",
    "format_system",
    "with_params",
]

FUNCTION_NAMES = ("sin", "cos", "exp", "ln", "sqrt")
KEYWORDS = ("system", "base", "fiber", "anchor", "bracket", "params",
            "lagrangian", "vakonomic", "zero")
# the CSV columns every `simulate` run writes besides the state: the time
# and the energy monitor
COLUMN_NAMES = ("t", "energy")
# parentheses, function calls and unary minuses one expression may nest:
# the parser and every tree walk recurse once per level, so a bound keeps
# them inside Python's recursion limit
MAX_NESTING = 64
# nodes on the longest root-to-leaf path of one expression tree: each link of
# a chain a + b + ... or a * b * ... adds one, as does each nesting level, and
# the tree walks recurse once per node on the path
MAX_DEPTH = 256


@dataclass(frozen=True)
class VakonomicBlock:
    """Constraint block: velocities of the listed fiber elements are given
    functions of the base point and the remaining (free) velocities.

    An empty block is legal and means the constraint submanifold is the whole
    bundle, which reduces the constrained dynamics to the unconstrained one.
    """

    constrained: tuple[int, ...]
    psi: tuple[Expr, ...]


@dataclass(frozen=True)
class SystemSpec:
    """Parsed, name-checked system document.

    anchor[A] holds the m expressions of the anchor image of fiber element A;
    bracket maps ordered index pairs (A, B) with A < B to n coefficient
    expressions. Pairs that are absent are zero. A spec never changes, so
    code built from it is kept on it, under underscore names.
    """

    name: str
    base: tuple[str, ...]
    fiber: tuple[str, ...]
    anchor: tuple[tuple[Expr, ...], ...]
    bracket: Mapping[tuple[int, int], tuple[Expr, ...]]
    params: Mapping[str, float]
    lagrangian: Expr
    vakonomic: VakonomicBlock | None = None

    def __getstate__(self) -> dict:
        # the fields only: the code kept on a spec is rebuilt on demand
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    @property
    def m(self) -> int:
        return len(self.base)

    @property
    def n(self) -> int:
        return len(self.fiber)

    @property
    def free_indices(self) -> tuple[int, ...]:
        if self.vakonomic is None:
            return tuple(range(self.n))
        constrained = set(self.vakonomic.constrained)
        return tuple(a for a in range(self.n) if a not in constrained)


def with_params(spec: SystemSpec, **overrides: float) -> SystemSpec:
    """Copy of the spec with some parameter values replaced."""
    unknown = set(overrides) - set(spec.params)
    if unknown:
        raise KeyError(f"unknown parameters: {sorted(unknown)}")
    params = dict(spec.params)
    params.update({k: float(v) for k, v in overrides.items()})
    return replace(spec, params=params)


# ---------------------------------------------------------------------------
# Lexer

# One match per token, with the blanks before it; a comment runs to the end
# of its line. Matches follow each other with no gap, so the first `bad`
# one is the first character that starts no token, and `eof` ends the text.
_TOKEN_RE = re.compile(
    r"""
    [ \t]*
    (?: (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>->|[\[\]{}(),;=^+\-*/])
      | (?P<newline>\n)
      | (?P<comment>\#[^\n]*)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_EOF = "end of input"


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        start = match.start(kind)
        if kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "number" or kind == "name":
            tokens.append(Token(kind, match[kind], line, start - line_start + 1))
        elif kind == "punct":
            tokens.append(Token(match[kind], match[kind], line, start - line_start + 1))
        elif kind == "eof":
            # blanks ending the text make eof a non-empty match, after which
            # finditer would also find an empty one
            tokens.append(Token("eof", _EOF, line, start - line_start + 1))
            break
        elif kind == "bad":
            raise DslSyntaxError(f"unexpected character {match[kind]!r}",
                                 line, start - line_start + 1)
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or f"'{kind}'"
            raise DslSyntaxError(f"expected {expected}, found {tok.text!r}",
                                 tok.line, tok.column)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text != word:
            raise DslSyntaxError(f"expected '{word}', found {tok.text!r}",
                                 tok.line, tok.column)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    # -- expression grammar -------------------------------------------------

    # Each method below returns (node, depth): the tree's depth in nodes, a
    # leaf being 1. parse_expr drops the depth.
    def nested(self, opener: Token, parse: Callable[[], tuple]) -> tuple[Expr, int]:
        """parse() one nesting level inside opener, a '(' or a unary '-'."""
        if self.depth == MAX_NESTING:
            raise DslSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                                 opener.line, opener.column)
        self.depth += 1
        parsed = parse()
        self.depth -= 1
        return parsed

    @staticmethod
    def grown(node: Expr, depth: int, at: Token) -> tuple[Expr, int]:
        """(node, depth) once depth is within MAX_DEPTH; at is the token that
        built node, where a deeper tree is reported."""
        if depth > MAX_DEPTH:
            raise DslSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels",
                                 at.line, at.column)
        return node, depth

    def parse_expr(self) -> Expr:
        return self.parse_sum()[0]

    def chain(self, operand: Callable[[], tuple], ops: tuple) -> tuple[Expr, int]:
        """operand (op operand)..., left-deep, so each link adds one level."""
        node, depth = operand()
        while self.peek().kind in ops:
            tok = self.advance()
            right, right_depth = operand()
            node, depth = self.grown(Binary(tok.kind, node, right),
                                     1 + max(depth, right_depth), tok)
        return node, depth

    def parse_sum(self) -> tuple[Expr, int]:
        return self.chain(self.parse_term, ("+", "-"))

    def parse_term(self) -> tuple[Expr, int]:
        return self.chain(self.parse_factor, ("*", "/"))

    def parse_factor(self) -> tuple[Expr, int]:
        if self.peek().kind == "-":
            tok = self.advance()
            arg, depth = self.nested(tok, self.parse_factor)
            return self.grown(Unary("neg", arg), depth + 1, tok)
        return self.parse_power()

    def parse_power(self) -> tuple[Expr, int]:
        node, depth = self.parse_atom()
        if self.peek().kind == "^":
            hat = self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("number", "an integer exponent")
            if not re.fullmatch(r"\d+", tok.text):
                raise DslSyntaxError("exponent must be a constant integer",
                                     tok.line, tok.column)
            return self.grown(Pow(node, sign * int(tok.text)), depth + 1, hat)
        return node, depth

    def parse_atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text)), 1
        if tok.kind == "name":
            self.advance()
            if tok.text in FUNCTION_NAMES:
                arg, depth = self.nested(self.expect("("), self.parse_sum)
                self.expect(")")
                return self.grown(Unary(tok.text, arg), depth + 1, tok)
            return Var(tok.text), 1
        if tok.kind == "(":
            parsed = self.nested(self.advance(), self.parse_sum)
            self.expect(")")
            return parsed
        raise DslSyntaxError(f"expected an expression, found {tok.text!r}",
                             tok.line, tok.column)

    # -- document grammar ---------------------------------------------------

    def parse_name_list(self) -> list[Token]:
        self.expect("[")
        names: list[Token] = []
        if self.peek().kind == "]":
            self.advance()
            return names
        names.append(self.expect("name", "an identifier"))
        while self.peek().kind == ",":
            self.advance()
            names.append(self.expect("name", "an identifier"))
        self.expect("]")
        return names

    def parse_signed_number(self) -> float:
        sign = 1.0
        if self.peek().kind == "-":
            self.advance()
            sign = -1.0
        tok = self.expect("number", "a number")
        return sign * float(tok.text)


def parse_expression(text: str) -> Expr:
    """Parse a single expression, for observables and monitors."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node


def momentum_names(n: int) -> tuple[str, ...]:
    """Names of the dual-bundle fiber coordinates, by basis position."""
    return tuple(f"p{A + 1}" for A in range(n))


@functools.lru_cache(maxsize=2)
def parse_system(text: str) -> SystemSpec:
    """Parse and name-check a full system document.

    The last two documents parsed are kept: the same text gives the same
    spec object, so the partial trees and generated code kept on its
    expression nodes serve every later command on that model. Two, because a
    model is often parsed, then its formatted text, and then the first text
    again (a round trip check before a CLI load). Callers must not mutate
    the spec's `bracket` or `params` (`with_params` copies). Errors are not
    kept; a bad document raises on every call.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens)

    parser.expect_keyword("system")
    name = parser.expect("name", "a system name").text

    parser.expect_keyword("base")
    base_tokens = parser.parse_name_list()
    _check_distinct(base_tokens, "base coordinate")
    base = tuple(t.text for t in base_tokens)

    parser.expect_keyword("fiber")
    fiber_tokens = parser.parse_name_list()
    if not fiber_tokens:
        tok = parser.peek()
        raise DimensionMismatchError("fiber basis must not be empty", tok.line, tok.column)
    _check_distinct(fiber_tokens, "fiber element")
    fiber = tuple(t.text for t in fiber_tokens)
    momenta = set(momentum_names(len(fiber)))
    for tok in base_tokens + fiber_tokens:
        if tok.text in FUNCTION_NAMES or tok.text in KEYWORDS:
            raise DslSyntaxError(f"{tok.text!r} is a reserved word", tok.line, tok.column)
        if tok.text in momenta:
            raise DuplicateIndexError(f"{tok.text!r} is a momentum coordinate name",
                                      tok.line, tok.column)
        if tok.text in COLUMN_NAMES:
            raise DuplicateIndexError(f"{tok.text!r} is the name of a simulate column",
                                      tok.line, tok.column)
    overlap = set(base) & set(fiber)
    if overlap:
        tok = fiber_tokens[0]
        raise DuplicateIndexError(f"names used for both base and fiber: {sorted(overlap)}",
                                  tok.line, tok.column)
    fiber_index = {n: i for i, n in enumerate(fiber)}

    anchor = _parse_anchor(parser, base, fiber, fiber_index)

    bracket: dict[tuple[int, int], tuple[Expr, ...]] = {}
    if parser.at_keyword("bracket"):
        bracket = _parse_bracket(parser, fiber, fiber_index)

    params: dict[str, float] = {}
    if parser.at_keyword("params"):
        params = _parse_params(parser, set(base) | set(fiber) | momenta)

    parser.expect_keyword("lagrangian")
    parser.expect("=")
    lagrangian = parser.parse_expr()

    vak: VakonomicBlock | None = None
    if parser.at_keyword("vakonomic"):
        vak = _parse_vakonomic(parser, fiber, fiber_index)

    tok = parser.peek()
    if tok.kind != "eof":
        raise DslSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)

    spec = SystemSpec(name=name, base=base, fiber=fiber, anchor=anchor,
                      bracket=bracket, params=params, lagrangian=lagrangian,
                      vakonomic=vak)
    _check_names(spec, tokens)
    return spec


def _check_distinct(tokens: list[Token], what: str) -> None:
    seen: dict[str, Token] = {}
    for tok in tokens:
        if tok.text in seen:
            raise DuplicateIndexError(f"duplicate {what} {tok.text!r}", tok.line, tok.column)
        seen[tok.text] = tok


def _parse_anchor(parser: _Parser, base, fiber, fiber_index) -> tuple[tuple[Expr, ...], ...]:
    parser.expect_keyword("anchor")
    m, n = len(base), len(fiber)
    if parser.at_keyword("zero"):
        parser.advance()
        return tuple(tuple(Const(0.0) for _ in range(m)) for _ in range(n))
    parser.expect("{")
    rows: dict[int, tuple[Expr, ...]] = {}
    while True:
        tok = parser.expect("name", "a fiber element")
        if tok.text not in fiber_index:
            raise UndeclaredNameError(f"unknown fiber element {tok.text!r}", tok.line, tok.column)
        idx = fiber_index[tok.text]
        if idx in rows:
            raise DuplicateIndexError(f"anchor given twice for {tok.text!r}", tok.line, tok.column)
        parser.expect("->")
        parser.expect("(")
        entries: list[Expr] = []
        if parser.peek().kind != ")":
            entries.append(parser.parse_expr())
            while parser.peek().kind == ",":
                parser.advance()
                entries.append(parser.parse_expr())
        parser.expect(")")
        if len(entries) != m:
            raise DimensionMismatchError(
                f"anchor of {tok.text!r} has {len(entries)} entries, base has {m}",
                tok.line, tok.column)
        rows[idx] = tuple(entries)
        if parser.peek().kind == ";":
            parser.advance()
            if parser.peek().kind == "}":
                break
            continue
        break
    parser.expect("}")
    missing = [fiber[i] for i in range(n) if i not in rows]
    if missing:
        tok = parser.peek()
        raise DimensionMismatchError(f"anchor missing for {missing}", tok.line, tok.column)
    return tuple(rows[i] for i in range(n))


def _parse_bracket(parser: _Parser, fiber, fiber_index) -> dict[tuple[int, int], tuple[Expr, ...]]:
    parser.expect_keyword("bracket")
    parser.expect("{")
    n = len(fiber)
    table: dict[tuple[int, int], tuple[Expr, ...]] = {}
    while parser.peek().kind != "}":
        open_tok = parser.expect("[")
        a_tok = parser.expect("name", "a fiber element")
        parser.expect(",")
        b_tok = parser.expect("name", "a fiber element")
        parser.expect("]")
        for tok in (a_tok, b_tok):
            if tok.text not in fiber_index:
                raise UndeclaredNameError(f"unknown fiber element {tok.text!r}",
                                          tok.line, tok.column)
        a, b = fiber_index[a_tok.text], fiber_index[b_tok.text]
        if a == b:
            raise DuplicateIndexError("bracket of a fiber element with itself is zero "
                                      "and may not be assigned", a_tok.line, a_tok.column)
        parser.expect("=")
        rhs = parser.parse_expr()
        coeffs = _linear_in_fiber(rhs, fiber, open_tok)
        if a > b:
            a, b = b, a
            coeffs = tuple(Unary("neg", c) for c in coeffs)
        if (a, b) in table:
            raise DuplicateIndexError(
                f"bracket [{fiber[a]},{fiber[b]}] assigned twice", open_tok.line, open_tok.column)
        table[(a, b)] = coeffs
        if parser.peek().kind == ";":
            parser.advance()
    parser.expect("}")
    return table


def _linear_in_fiber(expr: Expr, fiber, where: Token) -> tuple[Expr, ...]:
    """Decompose c1*e1 + c2*e2 + ... into per-element coefficient expressions."""
    coeffs: list[Expr | None] = [None] * len(fiber)
    fiber_set = frozenset(fiber)
    index = {n: i for i, n in enumerate(fiber)}

    def add(idx: int, coef: Expr) -> None:
        coeffs[idx] = coef if coeffs[idx] is None else Binary("+", coeffs[idx], coef)

    def walk(node: Expr, negate: bool) -> None:
        if isinstance(node, Binary) and node.op == "+":
            walk(node.left, negate)
            walk(node.right, negate)
            return
        if isinstance(node, Binary) and node.op == "-":
            walk(node.left, negate)
            walk(node.right, not negate)
            return
        if isinstance(node, Unary) and node.op == "neg":
            walk(node.arg, not negate)
            return
        if isinstance(node, Var) and node.name in fiber_set:
            coef: Expr = Const(1.0)
            add(index[node.name], Unary("neg", coef) if negate else coef)
            return
        if isinstance(node, Binary) and node.op == "*":
            left_vars = variables_of(node.left) & fiber_set
            right_vars = variables_of(node.right) & fiber_set
            if isinstance(node.right, Var) and node.right.name in fiber_set and not left_vars:
                coef = node.left
                add(index[node.right.name], Unary("neg", coef) if negate else coef)
                return
            if isinstance(node.left, Var) and node.left.name in fiber_set and not right_vars:
                coef = node.right
                add(index[node.left.name], Unary("neg", coef) if negate else coef)
                return
        raise DslSyntaxError(
            "bracket right-hand side must be a sum of coefficient * fiber-element terms",
            where.line, where.column)

    walk(expr, False)
    return tuple(Const(0.0) if c is None else c for c in coeffs)


def _parse_params(parser: _Parser, taken: set[str]) -> dict[str, float]:
    parser.expect_keyword("params")
    parser.expect("{")
    out: dict[str, float] = {}
    while parser.peek().kind != "}":
        tok = parser.expect("name", "a parameter name")
        if tok.text in out:
            raise DuplicateIndexError(f"parameter {tok.text!r} given twice", tok.line, tok.column)
        if tok.text in taken:
            raise DuplicateIndexError(
                f"parameter {tok.text!r} collides with a coordinate name", tok.line, tok.column)
        if tok.text in FUNCTION_NAMES or tok.text in KEYWORDS:
            raise DslSyntaxError(f"{tok.text!r} is a reserved word", tok.line, tok.column)
        parser.expect("=")
        out[tok.text] = parser.parse_signed_number()
        if parser.peek().kind == ",":
            parser.advance()
    parser.expect("}")
    return out


def _parse_vakonomic(parser: _Parser, fiber, fiber_index) -> VakonomicBlock:
    parser.expect_keyword("vakonomic")
    parser.expect("{")
    constrained: list[int] = []
    psi: list[Expr] = []
    while parser.peek().kind != "}":
        tok = parser.expect("name", "a fiber element")
        if tok.text not in fiber_index:
            raise UndeclaredNameError(f"unknown fiber element {tok.text!r}", tok.line, tok.column)
        idx = fiber_index[tok.text]
        if idx in constrained:
            raise DuplicateIndexError(f"duplicate constrained velocity {tok.text!r}",
                                      tok.line, tok.column)
        parser.expect("=")
        constrained.append(idx)
        psi.append(parser.parse_expr())
        if parser.peek().kind == ";":
            parser.advance()
    parser.expect("}")
    return VakonomicBlock(constrained=tuple(constrained), psi=tuple(psi))


def _check_names(spec: SystemSpec, tokens: list[Token]) -> None:
    base_set = set(spec.base)
    param_set = set(spec.params)
    chart_names = base_set | param_set
    for a, row in enumerate(spec.anchor):
        for entry in row:
            _require_subset(variables_of(entry), chart_names,
                            f"anchor of {spec.fiber[a]!r}", tokens)
    for (a, b), coeffs in spec.bracket.items():
        for entry in coeffs:
            _require_subset(variables_of(entry), chart_names,
                            f"bracket [{spec.fiber[a]},{spec.fiber[b]}]", tokens)
    _require_subset(variables_of(spec.lagrangian),
                    chart_names | set(spec.fiber), "lagrangian", tokens)
    if spec.vakonomic is not None:
        free_names = {spec.fiber[a] for a in spec.free_indices}
        for idx, entry in zip(spec.vakonomic.constrained, spec.vakonomic.psi):
            _require_subset(variables_of(entry), chart_names | free_names,
                            f"constraint for {spec.fiber[idx]!r}", tokens)


def _require_subset(used: frozenset[str], allowed: set[str], where: str,
                    tokens: list[Token]) -> None:
    bad = used - allowed
    if not bad:
        return
    first = sorted(bad)[0]
    line = col = None
    for tok in tokens:
        if tok.kind == "name" and tok.text == first:
            line, col = tok.line, tok.column
            break
    raise UndeclaredNameError(f"{where} references undeclared name(s) {sorted(bad)}",
                              line, col)


# ---------------------------------------------------------------------------
# Printer


def format_system(spec: SystemSpec) -> str:
    """Render a spec back into document text; reparsing gives an equal spec."""
    lines = [f"system {spec.name}"]
    lines.append("base [" + ", ".join(spec.base) + "]")
    lines.append("fiber [" + ", ".join(spec.fiber) + "]")
    if all(_is(e, 0.0) for row in spec.anchor for e in row):
        lines.append("anchor zero")
    else:
        entries = []
        for name, row in zip(spec.fiber, spec.anchor):
            entries.append(f"{name} -> (" + ", ".join(format_expr(e) for e in row) + ")")
        lines.append("anchor { " + "; ".join(entries) + " }")
    if spec.bracket:
        entries = []
        for (a, b) in sorted(spec.bracket):
            coeffs = spec.bracket[(a, b)]
            terms = []
            for c, coef in enumerate(coeffs):
                if _is(coef, 0.0):
                    continue
                terms.append(f"({format_expr(coef)})*{spec.fiber[c]}")
            rhs = " + ".join(terms) if terms else "0*" + spec.fiber[0]
            entries.append(f"[{spec.fiber[a]},{spec.fiber[b]}] = {rhs}")
        lines.append("bracket { " + "; ".join(entries) + " }")
    if spec.params:
        entries = [f"{k} = {repr(v)}" for k, v in spec.params.items()]
        lines.append("params { " + ", ".join(entries) + " }")
    lines.append(f"lagrangian = {format_expr(spec.lagrangian)}")
    if spec.vakonomic is not None:
        entries = [f"{spec.fiber[idx]} = {format_expr(e)}"
                   for idx, e in zip(spec.vakonomic.constrained, spec.vakonomic.psi)]
        lines.append("vakonomic { " + "; ".join(entries) + " }")
    return "\n".join(lines) + "\n"
