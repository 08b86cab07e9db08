"""System-document parsing, name checking, printing, and the round trip."""

import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amech.dsl import (
    MAX_DEPTH,
    MAX_NESTING,
    SystemSpec,
    _tokenize,
    format_system,
    parse_expression,
    parse_system,
    with_params,
)
from amech.errors import (
    DimensionMismatchError,
    DslError,
    DslSyntaxError,
    DuplicateIndexError,
    EvalDomainError,
    UndeclaredNameError,
)
from amech.expr import evaluate, format_expr, variables_of
from amech.presets import ids as preset_ids, load as load_preset
from strategies import NAMES as _NAMES, exprs as _exprs

WELL_FORMED = """\
# planar system with one base coordinate
system demo
base [q]
fiber [v, w]
anchor { v -> (q + 1.0); w -> (0) }
bracket { [v, w] = q * v - w }
params { k = 2.0, mass = 1.5 }
lagrangian = 0.5 * mass * (v^2 + w^2) - k * cos(q)
vakonomic { w = q * v }
"""


def test_parse_well_formed_document():
    spec = parse_system(WELL_FORMED)
    assert spec.name == "demo"
    assert spec.base == ("q",) and spec.fiber == ("v", "w")
    assert spec.m == 1 and spec.n == 2
    assert spec.params == {"k": 2.0, "mass": 1.5}
    assert evaluate(spec.anchor[0][0], {"q": 0.25}) == 1.25
    assert evaluate(spec.anchor[1][0], {"q": 0.25}) == 0.0
    # bracket stores the (v, w) pair with per-fiber coefficients
    coeffs = spec.bracket[(0, 1)]
    assert evaluate(coeffs[0], {"q": 0.3}) == 0.3
    assert evaluate(coeffs[1], {"q": 0.3}) == -1.0
    assert spec.vakonomic.constrained == (1,)
    assert spec.free_indices == (0,)


def test_bracket_orientation_is_normalized():
    flipped = WELL_FORMED.replace("[v, w] = q * v - w", "[w, v] = -(q * v - w)")
    a = parse_system(WELL_FORMED)
    b = parse_system(flipped)
    for c in range(2):
        for env in ({"q": 0.1}, {"q": -1.7}):
            assert evaluate(a.bracket[(0, 1)][c], env) == pytest.approx(
                evaluate(b.bracket[(0, 1)][c], env), abs=1e-15)


def test_anchor_zero_shorthand():
    text = """\
system flat
base []
fiber [e1, e2]
anchor zero
lagrangian = 0.5 * (e1^2 + e2^2)
"""
    spec = parse_system(text)
    assert spec.m == 0
    assert spec.anchor == ((), ())
    assert spec.bracket == {}
    assert spec.vakonomic is None


def test_empty_vakonomic_block_is_legal():
    text = """\
system free
base []
fiber [e1]
anchor zero
lagrangian = 0.5 * e1^2
vakonomic { }
"""
    spec = parse_system(text)
    assert spec.vakonomic is not None
    assert spec.vakonomic.constrained == ()
    assert spec.free_indices == (0,)


def test_syntax_error_carries_position():
    bad = "system s\nbase [q]\nfiber [v]\nanchor { v -> (q }\nlagrangian = v^2\n"
    with pytest.raises(DslSyntaxError) as err:
        parse_system(bad)
    assert err.value.line == 4
    assert err.value.column == 18


def test_unexpected_character_position():
    with pytest.raises(DslSyntaxError) as err:
        parse_system("system s\nbase [q?]\nfiber [v]\nanchor zero\nlagrangian = v^2\n")
    assert err.value.line == 2
    assert err.value.column == 8


def test_undeclared_name_in_lagrangian():
    bad = WELL_FORMED.replace("k * cos(q)", "k * cos(zeta)")
    with pytest.raises(UndeclaredNameError) as err:
        parse_system(bad)
    assert "zeta" in str(err.value)
    assert err.value.line is not None


def test_constraint_may_not_use_constrained_velocity():
    bad = WELL_FORMED.replace("vakonomic { w = q * v }", "vakonomic { w = q * w }")
    with pytest.raises(UndeclaredNameError):
        parse_system(bad)


def test_duplicate_fiber_name_rejected():
    bad = WELL_FORMED.replace("fiber [v, w]", "fiber [v, v]")
    with pytest.raises(DuplicateIndexError):
        parse_system(bad)


def test_base_fiber_overlap_rejected():
    bad = WELL_FORMED.replace("fiber [v, w]", "fiber [q, w]")
    with pytest.raises(DuplicateIndexError):
        parse_system(bad)


def test_reserved_words_rejected_as_coordinates():
    bad = WELL_FORMED.replace("fiber [v, w]", "fiber [sin, w]")
    with pytest.raises(DslSyntaxError):
        parse_system(bad)


def test_anchor_arity_must_match_base():
    bad = WELL_FORMED.replace("v -> (q + 1.0)", "v -> (q + 1.0, q)")
    with pytest.raises(DimensionMismatchError):
        parse_system(bad)


def test_anchor_must_cover_every_fiber_element():
    bad = WELL_FORMED.replace("anchor { v -> (q + 1.0); w -> (0) }",
                              "anchor { v -> (q + 1.0) }")
    with pytest.raises(DimensionMismatchError):
        parse_system(bad)


def test_empty_fiber_rejected():
    with pytest.raises(DimensionMismatchError):
        parse_system("system s\nbase [q]\nfiber []\nanchor zero\nlagrangian = q\n")


def test_bracket_rhs_must_be_linear_in_fiber():
    bad = WELL_FORMED.replace("[v, w] = q * v - w", "[v, w] = v * w")
    with pytest.raises(DslSyntaxError):
        parse_system(bad)


def test_bracket_of_element_with_itself_rejected():
    bad = WELL_FORMED.replace("[v, w] = q * v - w", "[v, v] = w")
    with pytest.raises(DuplicateIndexError):
        parse_system(bad)


def test_trailing_input_rejected():
    with pytest.raises(DslSyntaxError):
        parse_system(WELL_FORMED + "bracket { }\n")


def test_parse_expression_single():
    e = parse_expression("2.0 * sin(x) + x^2")
    assert evaluate(e, {"x": 0.5}) == pytest.approx(2.0 * math.sin(0.5) + 0.25)
    with pytest.raises(DslSyntaxError):
        parse_expression("x + ")
    with pytest.raises(DslSyntaxError):
        parse_expression("x 1")


def test_negative_exponent_parses():
    e = parse_expression("x^-2")
    assert evaluate(e, {"x": 2.0}) == 0.25
    with pytest.raises(DslSyntaxError):
        parse_expression("x^y")


def test_with_params_overrides_and_validates():
    spec = parse_system(WELL_FORMED)
    spec2 = with_params(spec, k=9.0)
    assert spec2.params["k"] == 9.0 and spec2.params["mass"] == 1.5
    assert spec.params["k"] == 2.0  # original untouched
    with pytest.raises(KeyError):
        with_params(spec, gravity=9.81)


def test_format_system_round_trips_byte_identical():
    spec = parse_system(WELL_FORMED)
    text = format_system(spec)
    again = format_system(parse_system(text))
    assert text == again


def test_format_system_round_trips_semantics():
    spec = parse_system(WELL_FORMED)
    back = parse_system(format_system(spec))
    assert back.name == spec.name
    assert back.base == spec.base and back.fiber == spec.fiber
    assert back.params == spec.params
    env = {"q": 0.37, "v": -0.8, "w": 1.2, "k": 2.0, "mass": 1.5}
    assert evaluate(back.lagrangian, env) == evaluate(spec.lagrangian, env)
    for key in spec.bracket:
        for c0, c1 in zip(back.bracket[key], spec.bracket[key]):
            assert evaluate(c0, env) == evaluate(c1, env)


# -- generated expressions: print then reparse is the identity ----------------

@settings(max_examples=200, derandomize=True, deadline=None)
@given(expr=_exprs(), vals=st.tuples(*[st.floats(min_value=0.5, max_value=1.5)
                                       for _ in _NAMES]))
def test_print_parse_round_trip(expr, vals):
    text = format_expr(expr)
    back = parse_expression(text)
    assert variables_of(back) == variables_of(expr)
    env = dict(zip(_NAMES, vals))
    try:
        direct = evaluate(expr, env)
    except (EvalDomainError, OverflowError) as caught:
        with pytest.raises(type(caught)):
            evaluate(back, env)
        return
    if isinstance(direct, float) and (math.isinf(direct) or math.isnan(direct)):
        return
    assert evaluate(back, env) == direct


# -- nesting ------------------------------------------------------------------


@pytest.mark.parametrize("opener,closer", [("(", ")"), ("-", ""), ("sin(", ")"),
                                           ("-(", ")")])
def test_nesting_is_bounded_at_the_opening_token(opener, closer):
    def nested(depth):
        return opener * depth + "x" + closer * depth

    levels = opener.count("(") + opener.count("-")
    parse_expression(nested(MAX_NESTING // levels))
    text = nested(MAX_NESTING // levels + 1)
    with pytest.raises(DslSyntaxError, match="nested deeper than") as err:
        parse_expression(text)
    # at the first '(' or '-' past the bound
    past = [i for i, c in enumerate(text) if c in "(-"][MAX_NESTING]
    assert (err.value.line, err.value.column) == (1, past + 1)
    # far past the bound, where an unbounded parser runs out of stack
    with pytest.raises(DslSyntaxError, match="nested deeper than"):
        parse_expression(nested(2000))


def test_tree_depth_is_bounded_at_the_chain_link():
    # v^2 is two levels deep and each '+' adds one
    links = MAX_DEPTH - 2
    parse_expression("v^2" + " + q" * links)
    text = "v^2" + " + q" * (links + 1)
    with pytest.raises(DslSyntaxError, match=f"tree deeper than {MAX_DEPTH} levels") as err:
        parse_expression(text)
    assert (err.value.line, err.value.column) == (1, text.rindex("+") + 1)
    # a product chain inside a call counts its links and the call's level
    parse_expression("sin(" + "q*" * (MAX_DEPTH - 2) + "q)")
    with pytest.raises(DslSyntaxError, match="tree deeper than"):
        parse_expression("sin(" + "q*" * (MAX_DEPTH - 1) + "q)")


# -- the tokenizer against a reference lexer ---------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<punct>[\[\]{}(),;=^+\-*/])
    """,
    re.VERBOSE,
)


def _reference_tokenize(text):
    """(kind, text, line, column) of every token, one anchored match at a
    time; a character that starts no token raises DslSyntaxError."""
    tokens, line, line_start, pos = [], 1, 0, 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if match is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind, value = match.lastgroup, match.group()
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind in ("punct", "arrow"):
            tokens.append((value, value, line, col))
        elif kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        pos = match.end()
    tokens.append(("eof", "end of input", line, len(text) - line_start + 1))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except DslSyntaxError as exc:
        return str(exc)


def _sweep_models():
    """Documents of the benchmark's model_sweep workload, widths 3 to 11."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up by name while they are built
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    rng = np.random.default_rng(7)
    return [workloads.generate_model(rng, k, f"sweep_k{k}").text
            for _ in range(4) for k in range(5)]


def test_tokens_match_the_reference_lexer():
    docs = [load_preset(pid).dsl for pid in preset_ids()] + _sweep_models() + [
        WELL_FORMED, "", "  \n\t", "x # note", "a->b - > c\n  1.5e-3 .5 7. 2E+4",
        "x\r\n", "q ? 1", "lagrangian = v^2 @"]
    for text in docs:
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_reference_tokenize, text)


# -- mutated documents raise only DslError -----------------------------------

_DSL_CHARS = "()[]{},;=^+-*/.#\n \t0123456789eExqvp_>?"

_OPENERS = {"(": ")", "-": "", "sin(": ")", "-(": ")"}

_edits = st.one_of(
    # cut: a start as a fraction of the text, and a length
    st.tuples(st.just("cut"), st.floats(0.0, 1.0), st.integers(1, 12)),
    # insert: a few DSL characters at a fraction of the text
    st.tuples(st.just("insert"), st.floats(0.0, 1.0), st.text(_DSL_CHARS, min_size=1, max_size=6)),
    # nest: the whole lagrangian inside a run of one opener
    st.tuples(st.just("nest"), st.sampled_from(sorted(_OPENERS)), st.integers(1, 400)),
)


def _mutate(text, edits):
    for kind, where, arg in edits:
        if kind == "nest":
            opener, depth = where, arg
            head, _, rest = text.partition("lagrangian =")
            body, newline, tail = rest.partition("\n")
            text = (head + "lagrangian = " + opener * depth + body + _OPENERS[opener] * depth
                    + newline + tail)
            continue
        at = int(where * len(text))
        text = text[:at] + text[at + arg:] if kind == "cut" else text[:at] + arg + text[at:]
    return text


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pid=st.sampled_from(preset_ids()), edits=st.lists(_edits, min_size=1, max_size=4))
def test_mutated_documents_raise_only_dsl_errors(pid, edits):
    text = _mutate(load_preset(pid).dsl, edits)
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_reference_tokenize, text)
    try:
        spec = parse_system(text)
    except DslError:
        return
    assert isinstance(spec, SystemSpec)
