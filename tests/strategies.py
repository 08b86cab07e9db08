"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from amech.expr import Binary, Const, Pow, Unary, Var

NAMES = ("x", "y", "z")


def exprs():
    """Expression trees of up to 12 leaves over NAMES and small constants."""
    leaves = st.one_of(
        st.integers(min_value=-40, max_value=40).map(lambda k: Const(k / 10.0)),
        st.sampled_from(NAMES).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*", "/")), children, children)
              .map(lambda t: Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(("neg", "sin", "cos", "exp", "ln", "sqrt")), children)
              .map(lambda t: Unary(t[0], t[1])),
            st.tuples(children, st.integers(min_value=-3, max_value=3))
              .map(lambda t: Pow(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)
