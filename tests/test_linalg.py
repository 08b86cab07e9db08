"""The shared damped Newton loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from amech.errors import MuSolveFailed, NewtonFailed
from amech.linalg import damped_newton


def _circle_and_diagonal(x):
    return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])


def _circle_and_diagonal_step(x, r):
    jac = np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])
    return np.linalg.solve(jac, r)


def test_converges_on_a_nonlinear_system():
    x = damped_newton(_circle_and_diagonal, _circle_and_diagonal_step,
                      np.array([1.0, 0.5]), "circle")
    assert_allclose(x, [np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-12)
    assert np.max(np.abs(_circle_and_diagonal(x))) < 1e-12


def test_empty_residual_returns_the_start_without_a_step():
    def step(x, r):
        raise AssertionError("step must not be called")

    x = damped_newton(lambda x: np.zeros(0), step, np.array([3.0, -1.0]), "empty")
    assert np.array_equal(x, [3.0, -1.0])


class _Custom(NewtonFailed):
    pass


def test_stalled_line_search_raises_the_given_error():
    # x^2 + 1 has no real root, and the step points uphill
    def step(x, r):
        return -r / (2.0 * x)

    with pytest.raises(_Custom, match="no root stalled"):
        damped_newton(lambda x: x ** 2 + 1.0, step, np.array([1.0]), "no root",
                      error=_Custom)


def test_singular_solve_in_step_raises_the_given_error():
    def step(x, r):
        return np.linalg.solve(np.zeros((2, 2)), r)

    with pytest.raises(MuSolveFailed, match="singular") as err:
        damped_newton(lambda x: x - 1.0, step, np.zeros(2), "singular test",
                      error=MuSolveFailed)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_exhausted_budget_raises():
    # Newton on x^3 shrinks x by 2/3 per step, so one step cannot reach 1e-12
    def step(x, r):
        return r / (3.0 * x ** 2)

    with pytest.raises(NewtonFailed, match="did not converge"):
        damped_newton(lambda x: x ** 3, step, np.array([1.0]), "cube", max_iter=1)
    assert abs(damped_newton(lambda x: x ** 3, step, np.array([1.0]), "cube")[0]) < 1e-4
