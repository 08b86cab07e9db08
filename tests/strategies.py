"""Test inputs shared by the test modules: hypothesis strategies and the
benchmark's generated models."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
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


def perfbench_workloads():
    """perfbench/workloads.py as a module, loaded read-only (its
    `generate_model` makes the model_sweep charts)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up by name while they are built
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def varying_sweep_charts():
    """Spec texts of the model_sweep charts, so(3) in a random integer basis
    crossed with T R^k for k = 1..3, whose Lagrangian gains terms that make
    the velocity Hessian W and the mixed partials depend on the base:
    0.5*(sin(q1)^2 + qk^2)*f1^2 + 0.3*q1*v1*f2. W stays positive definite
    for |q1| < 2, since the sweep's mass matrix is at least 0.8 I."""
    def text(seed: int, k: int) -> str:
        model = perfbench_workloads().generate_model(np.random.default_rng(seed), k,
                                                     f"varying_k{k}")
        return (model.text.rstrip("\n")
                + f" + 0.5*(sin(q1)^2 + q{k}^2)*f1^2 + 0.3*q1*v1*f2\n")

    return st.builds(text, st.integers(min_value=0, max_value=2**16),
                     st.integers(min_value=1, max_value=3))


def fiber_quadratic_charts():
    """Spec texts of TQ for Q = R^(m + k), m = 1 or 2 and k = 0..2, with
    fibers v over the q's and u over the r's, and a Lagrangian at most
    quadratic in the velocities: the velocity Hessian W_TT(q) of the v's is
    1x1, diagonal or, with coupled, 2x2, positive definite everywhere, and
    L does not name the u's, which are a constant coordinate-aligned kernel
    held by a potential in the r's, as capri_kobayashi's e1, e2 are."""
    def text(seed: int, m: int, k: int, coupled: bool) -> str:
        rng = np.random.default_rng(seed)
        a, c, s = rng.uniform(0.8, 1.5, 2), rng.uniform(0.5, 1.5, k), rng.uniform(0.5, 1.5)
        base = [f"q{i + 1}" for i in range(m)] + [f"r{j + 1}" for j in range(k)]
        fiber = [f"v{i + 1}" for i in range(m)] + [f"u{j + 1}" for j in range(k)]
        anchor = [f"{name} -> ({', '.join('1' if i == j else '0' for j in range(m + k))})"
                  for i, name in enumerate(fiber)]
        q = f"q{m}"
        terms = [f"0.5*({a[0]:.3f} + sin({q})^2)*v1^2"]
        if m == 2:
            terms.append(f"0.5*({a[1]:.3f} + {q}^2)*v2^2")
            if coupled:
                terms.append(f"0.2*cos({q})*v1*v2")
        potential = [f"q{i + 1}^2" for i in range(m)] + [f"{cj:.3f}*r{j + 1}^2"
                                                          for j, cj in enumerate(c)]
        return (f"system quadratic\nbase [{', '.join(base)}]\nfiber [{', '.join(fiber)}]\n"
                f"anchor {{ {'; '.join(anchor)} }}\nlagrangian = {' + '.join(terms)}"
                f" + {s:.3f}*{q}*v{m} - 0.5*({' + '.join(potential)})\n")

    return st.builds(text, st.integers(min_value=0, max_value=2**16),
                     st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2),
                     st.booleans())
