"""The shared rank rule, the damped Newton loop and the symmetric solve by size."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from amech.errors import MuSolveFailed, NewtonFailed, RankAmbiguous
from amech.linalg import (AMBIGUITY_BAND, damped_newton, decide_rank, null_space, rank_rtol,
                          regular_solution, regular_solve, regularity, row_space_rank)


def _circle_and_diagonal(x):
    # the residual hands its step the Jacobian at x
    r = np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])
    return r, np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])


def test_converges_on_a_nonlinear_system():
    x, jac = damped_newton(_circle_and_diagonal, np.linalg.solve,
                           np.array([1.0, 0.5]), "circle")
    assert_allclose(x, [np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-12)
    assert np.max(np.abs(_circle_and_diagonal(x)[0])) < 1e-12
    assert np.array_equal(jac, _circle_and_diagonal(x)[1])


def test_empty_residual_returns_the_start_without_a_step():
    def step(data, r):
        raise AssertionError("step must not be called")

    x, data = damped_newton(lambda x: (np.zeros(0), "start"), step,
                            np.array([3.0, -1.0]), "empty")
    assert np.array_equal(x, [3.0, -1.0])
    assert data == "start"


def test_each_point_is_evaluated_once_and_its_data_reaches_the_step():
    # Newton on arctan from x = 2 overshoots, so the line search rejects
    # candidates; a log of residual and step calls shows the step, and the
    # return, receiving the very object the residual made at the accepted
    # point, which is the last one it evaluated
    log = []

    def residual(x):
        data = (x.copy(), 1.0 + x ** 2)
        log.append(("residual", data))
        return np.arctan(x), data

    def step(data, r):
        log.append(("step", data))
        return r * data[1]

    x, data = damped_newton(residual, step, np.array([2.0]), "arctan")
    assert abs(x[0]) < 1e-12
    kinds = [kind for kind, _ in log]
    assert ("residual", "residual") in zip(kinds, kinds[1:])  # a rejection
    evaluated = [d for kind, d in log if kind == "residual"]
    assert len({d[0].tobytes() for d in evaluated}) == len(evaluated)
    for (before, made), (kind, d) in zip(log, log[1:]):
        if kind == "step":
            assert before == "residual" and made is d
    assert kinds[-1] == "residual" and data is evaluated[-1]


class _Custom(NewtonFailed):
    pass


def test_stalled_line_search_raises_the_given_error():
    # x^2 + 1 has no real root, and the step points uphill
    def step(x, r):
        return -r / (2.0 * x)

    with pytest.raises(_Custom, match="no root stalled"):
        damped_newton(lambda x: (x ** 2 + 1.0, x), step, np.array([1.0]), "no root",
                      error=_Custom)


def test_singular_solve_in_step_raises_the_given_error():
    def step(data, r):
        return np.linalg.solve(np.zeros((2, 2)), r)

    with pytest.raises(MuSolveFailed, match="singular") as err:
        damped_newton(lambda x: (x - 1.0, None), step, np.zeros(2), "singular test",
                      error=MuSolveFailed)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_exhausted_budget_raises():
    # Newton on x^3 shrinks x by 2/3 per step, so one step cannot reach 1e-12
    def step(x, r):
        return r / (3.0 * x ** 2)

    with pytest.raises(NewtonFailed, match="did not converge"):
        damped_newton(lambda x: (x ** 3, x), step, np.array([1.0]), "cube", max_iter=1)
    assert abs(damped_newton(lambda x: (x ** 3, x), step, np.array([1.0]),
                             "cube")[0][0]) < 1e-4


def test_a_nan_residual_next_to_a_converged_entry_raises():
    # Python's max([1e-15, nan]) is 1e-15; the loop must not read it so
    def step(x, r):
        return np.zeros_like(x)

    with pytest.raises(NewtonFailed):
        damped_newton(lambda x: (np.array([1e-15, np.nan]), x), step, np.zeros(2), "nan")


_tiny = st.floats(min_value=-1e-13, max_value=1e-13)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(entries=st.lists(_tiny, max_size=4), at=st.integers(min_value=0, max_value=4))
def test_a_nan_residual_entry_is_never_converged(entries, at):
    r = np.array(entries[:at] + [np.nan] + entries[at:])
    returned = []

    def step(x, r):
        return np.zeros_like(x)

    with pytest.raises(NewtonFailed):
        returned.append(damped_newton(lambda x: (r, x), step, np.zeros(1), "nan"))
    assert returned == []


_entries = st.floats(min_value=-10.0, max_value=10.0)


@st.composite
def _symmetric(draw, sizes=st.integers(min_value=1, max_value=4)):
    """n x n symmetric m diag(signs) m^T of rank at most k: singular for
    k < n (the zero matrix for k = 0), usually regular otherwise."""
    n = draw(sizes)
    k = draw(st.integers(min_value=0, max_value=n + 1))
    m = np.array(draw(st.lists(_entries, min_size=n * k, max_size=n * k))).reshape(n, k)
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k)))
    return (m * signs) @ m.T


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=_symmetric())
def test_one_eigh_gives_the_svd_verdict_outside_the_threshold_band(a):
    s = np.linalg.svd(a, compute_uv=False)
    ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
    assume(not 1e-3 * rank_rtol() < ratio < 1e3 * rank_rtol())
    regular, smin, smax, x = regular_solve(a)
    assert regular == bool(s[0] > 0.0 and s[-1] > rank_rtol() * s[0])
    assert abs(smax - s[0]) <= 1e-12 * s[0] and abs(smin - s[-1]) <= 1e-12 * s[0]
    assert regularity(a) == (regular, smin, smax) and x is None


@st.composite
def _conditioned(draw):
    """A symmetric matrix with off-diagonal entries and |eigenvalues| in
    [1, 100], and a right-hand side."""
    n = draw(st.integers(min_value=2, max_value=4))
    g = np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    q, _ = np.linalg.qr(g)
    lam = np.array(draw(st.lists(st.floats(min_value=1.0, max_value=100.0),
                                 min_size=n, max_size=n)))
    lam *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    w = (q * lam) @ q.T
    w = 0.5 * (w + w.T)
    b = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    return w, b


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_conditioned())
def test_the_eigh_solve_agrees_with_lu(data):
    w, b = data
    assume(np.max(np.abs(w - np.diag(np.diag(w)))) > 1e-3)
    regular, _, _, x = regular_solve(w, b)
    expected = np.linalg.solve(w, b)
    assert regular
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_a_nan_eigenvalue_raises_as_the_svd_does():
    # max passes over a NaN beside zeros; the sized solve still sees it
    for a in (np.array([[np.nan]]), np.array([[1.0, np.nan], [np.nan, 2.0]]),
              np.array([[0.0, np.nan], [np.nan, 0.0]]), np.array([[np.nan, 0.0], [0.0, 0.0]])):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(a)
        with pytest.raises(np.linalg.LinAlgError):
            regular_solve(a, np.ones(a.shape[0]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a=st.floats(allow_nan=False, allow_infinity=False), b=_entries)
def test_a_1x1_solve_is_the_eigh_formula_bit_for_bit(a, b):
    lam, q = np.linalg.eigh(np.array([[a]]))
    regular, smin, smax, x = regular_solve(np.array([[a]]), np.array([b]))
    assert (regular, smin, smax) == (a != 0.0, abs(a), abs(a))
    if regular:
        with np.errstate(over="ignore"):  # b / a may overflow to inf, as in both
            assert x.tobytes() == (q @ ((np.array([b]) @ q) / lam)).tobytes()


_scales = st.sampled_from([1e-160, 1e-80, 1.0, 1e80, 1e160])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=_symmetric(st.just(2)), scale=_scales)
def test_a_2x2_verdict_and_singular_values_are_the_svds_at_any_scale(a, scale):
    a = a * scale
    s = np.linalg.svd(a, compute_uv=False)
    ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
    assume(not 1e-3 * rank_rtol() < ratio < 1e3 * rank_rtol())
    regular, smin, smax, _ = regular_solve(a)
    assert regular == bool(s[0] > 0.0 and s[-1] > rank_rtol() * s[0])
    assert abs(smax - s[0]) <= 1e-12 * s[0] and abs(smin - s[-1]) <= 1e-12 * s[0]


@pytest.mark.parametrize("a", [np.diag([-1.9e-162, -1.9e-162]), np.diag([1e160, -3e160]),
                               np.array([[2e-160, 1e-160], [1e-160, 2e-160]])],
                         ids=["det-underflows", "det-overflows", "tiny-coupled"])
def test_a_2x2_beyond_the_range_of_its_determinant(a):
    # unscaled, a determinant of 3.6e-324 or 3e320 would not be a float
    s = np.linalg.svd(a, compute_uv=False)
    b = np.array([1.0, -2.0]) * s[0]
    regular, smin, smax, x = regular_solve(a, b)
    assert regular
    assert abs(smax - s[0]) <= 1e-14 * s[0] and abs(smin - s[-1]) <= 1e-14 * s[0]
    assert_allclose(a @ x, b, rtol=1e-14)


def test_a_rank_one_3x3_stays_singular():
    v = np.array([1.0, 2.0, -0.5])
    regular, smin, smax, x = regular_solve(np.outer(v, v), np.ones(3))
    assert not regular and x is None
    assert smin <= 1e-15 * smax


def test_eigh_runs_only_from_3x3(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    for n in (1, 2, 3, 4):
        regular_solve(np.eye(n) + 0.1, np.ones(n))
    assert calls == [(3, 3), (4, 4)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=_conditioned(), k=st.integers(min_value=0, max_value=3))
def test_a_matrix_right_hand_side_is_solved_column_by_column(data, k):
    # each column takes a vector b's operations, signed zeros included
    w, b = data
    rhs = np.column_stack([b, -0.0 * b, *[b[::-1] * (j + 1) for j in range(k)]])
    _, _, _, x = regular_solve(w, rhs)
    assert x.shape == rhs.shape
    for j in range(rhs.shape[1]):
        assert x[:, j].tobytes() == regular_solve(w, rhs[:, j].copy())[3].tobytes()


def test_a_1x1_matrix_right_hand_side_divides_each_entry():
    x = regular_solve(np.array([[-2.5]]), np.array([[1.0, -0.0, 3.0]]))[3]
    assert x.tobytes() == np.array([[1.0 / -2.5, 0.0, 3.0 / -2.5]]).tobytes()


def test_regular_solution_refuses_what_regular_solve_refuses():
    v = np.array([1.0, 2.0, -0.5])
    for a in (np.zeros((1, 1)), np.diag([1.0, 1e-12]), np.outer(v, v)):
        with pytest.raises(np.linalg.LinAlgError, match="not regular"):
            regular_solution(a, np.ones(len(a)))
    # a Newton step of a non-regular matrix keeps damped_newton's message
    with pytest.raises(NewtonFailed, match="singular Jacobian"):
        damped_newton(lambda x: (x - 1.0, np.zeros((2, 2))), regular_solution,
                      np.zeros(2), "flat")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=_conditioned())
def test_regular_solution_is_regular_solve_up_to_size_two_and_refined_beyond(data):
    w, b = data
    x = regular_solution(w, b)
    if len(w) <= 2:
        assert x.tobytes() == regular_solve(w, b)[3].tobytes()
    expected = np.linalg.solve(w, b)
    assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))


def _ranks(a):
    """The rank of a by null_space, row_space_rank and decide_rank."""
    return a.shape[1] - null_space(a).shape[1], row_space_rank(a), decide_rank(a)


def test_only_decide_rank_refuses_a_value_inside_the_band():
    a = np.diag([1.0, 1e-8])
    with pytest.raises(RankAmbiguous) as info:
        decide_rank(a)
    assert info.value.values == (1e-8,)
    assert info.value.band == AMBIGUITY_BAND
    assert a.shape[1] - null_space(a).shape[1] == row_space_rank(a) == 2


@pytest.mark.parametrize("small, rank", [(1e-6, 2), (1e-12, 1)])
def test_the_three_ranks_agree_at_the_default_tolerance(small, rank):
    assert _ranks(np.diag([1.0, small])) == (rank,) * 3


def test_the_three_ranks_follow_the_tolerance_outside_the_band(monkeypatch):
    # 1e-6 lies above the band, so no rank is refused: each counts it
    # against AMECH_TOL, which here drops it
    monkeypatch.setenv("AMECH_TOL", "1e-5")
    assert _ranks(np.diag([1.0, 1e-6])) == (1, 1, 1)
