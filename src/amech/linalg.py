"""Linear algebra shared by the dynamics and constraint code.

All rank and kernel decisions in the package go through these helpers so that
a single tolerance knob controls them. The knob is relative to the largest
singular value and can be overridden with the AMECH_TOL environment variable.
The module also holds the minimum-norm least-squares solve and the one damped
Newton loop that every nonlinear root-find of the package runs on.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

import numpy as np

from .errors import AmechError, NewtonFailed, RankAmbiguous

__all__ = [
    "rank_rtol",
    "null_space",
    "row_space_rank",
    "decide_rank",
    "min_norm_lstsq",
    "regularity",
    "damped_newton",
    "memo_last",
    "AMBIGUITY_BAND",
]

DEFAULT_RANK_RTOL = 1e-9

# normalized singular values strictly inside this band are refused, not rounded
AMBIGUITY_BAND = (1e-11, 1e-7)


def rank_rtol() -> float:
    """Relative singular-value threshold, possibly overridden by AMECH_TOL."""
    raw = os.environ.get("AMECH_TOL")
    if raw is None:
        return DEFAULT_RANK_RTOL
    try:
        value = float(raw)
    except ValueError:
        value = 0.0
    if not value > 0.0:
        raise AmechError(f"AMECH_TOL must be a positive number, got {raw!r}")
    return value


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a, as columns.

    A matrix with no rows constrains nothing, so the basis is the identity.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or not np.any(a):
        return np.eye(cols)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > rank_rtol() * s[0]))
    return vt[rank:].T


def row_space_rank(a: np.ndarray) -> int:
    """Numerical rank with the shared relative threshold."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not np.any(a):
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > rank_rtol() * s[0]))


def decide_rank(a: np.ndarray) -> int:
    """Rank with an ambiguity guard for constraint-algorithm decisions.

    Normalized singular values that fall strictly inside AMBIGUITY_BAND are
    neither counted nor dropped; they raise RankAmbiguous so the caller can
    surface the problem instead of silently picking a manifold dimension.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not np.any(a):
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    normalized = s / s[0]
    low, high = AMBIGUITY_BAND
    inside = normalized[(normalized > low) & (normalized < high)]
    if inside.size:
        raise RankAmbiguous(inside, AMBIGUITY_BAND)
    return int(np.sum(normalized >= high))


def regularity(a: np.ndarray) -> tuple[bool, float, float]:
    """(regular, smallest, largest singular value) of a square matrix.

    Regular means the smallest singular value exceeds the shared relative
    threshold times a positive largest one; an empty matrix is not regular
    here, and callers that accept it say so themselves.
    """
    svals = np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    return smax > 0.0 and smin > rank_rtol() * smax, smin, smax


def min_norm_lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of a x = b and its residual.

    The residual is the infinity norm of a x - b, reported so callers can
    distinguish an exactly-solvable system from a genuine least-squares fit.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.shape[1] == 0:
        x = np.zeros(0)
        residual = float(np.max(np.abs(b))) if b.size else 0.0
        return x, residual
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=rank_rtol())
    residual = float(np.max(np.abs(a @ x - b))) if b.size else 0.0
    return x, residual


def damped_newton(residual: Callable[[np.ndarray], np.ndarray],
                  step: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  x0: np.ndarray, what: str,
                  error: type[NewtonFailed] = NewtonFailed,
                  tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """Root of residual by Newton steps with a halving line search.

    step(x, r) returns the Newton correction, subtracted as x - t * step for
    the first t in 1, 1/2, 1/4, ... that lowers the max-abs residual. The
    point is returned once that residual is below tol; an empty residual
    returns x0 at once. A stalled line search, an exhausted budget and a
    singular matrix inside step raise error, described by what.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    for _ in range(max_iter):
        size = np.max(np.abs(r), initial=0.0)
        if size < tol:
            return x
        try:
            dx = step(x, r)
        except np.linalg.LinAlgError as exc:
            raise error(f"{what}: singular Jacobian at {x!r}") from exc
        t = 1.0
        while t > 1e-4:
            cand = x - t * dx
            rc = residual(cand)
            cand_size = np.max(np.abs(rc))
            if cand_size < size or cand_size < tol:
                x, r = cand, rc
                break
            t *= 0.5
        else:
            raise error(f"{what} stalled")
    size = np.max(np.abs(r), initial=0.0)
    if size < tol:
        return x
    raise error(f"{what} did not converge, residual {size:.3e}")


T = TypeVar("T")


def memo_last(build: Callable[[np.ndarray], T]) -> Callable[[np.ndarray], T]:
    """build(x), computed once while x is the same object as at the last call.

    damped_newton steps from the very point whose residual it accepted last,
    so a residual and a step that read their data through one memo_last
    share one evaluation per Newton point.
    """
    last: list = [None, None]

    def at(x: np.ndarray) -> T:
        if last[0] is not x:
            last[:] = [x, build(x)]
        return last[1]

    return at
