"""Linear algebra shared by the dynamics and constraint code.

All rank and kernel decisions in the package go through these helpers so that
a single tolerance knob controls them: one rule counts the singular values
above rank_rtol() relative to the largest, and the AMECH_TOL environment
variable overrides it. decide_rank also refuses one inside AMBIGUITY_BAND.
The module also holds the minimum-norm least-squares solve and the one damped
Newton loop that every nonlinear root-find of the package runs on.
"""

from __future__ import annotations

import math
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
    "regular_solve",
    "damped_newton",
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
    return _null_space(a, guarded=False)


def _null_space(a: np.ndarray, guarded: bool) -> np.ndarray:
    """null_space from one SVD, with decide_rank's guard when guarded."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not np.any(a):
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a)
    return vt[_count(s, guarded):].T


def row_space_rank(a: np.ndarray) -> int:
    """Numerical rank with the shared relative threshold."""
    return _rank(a, guarded=False)


def decide_rank(a: np.ndarray) -> int:
    """Rank with an ambiguity guard for constraint-algorithm decisions.

    The rank is row_space_rank's. Normalized singular values strictly inside
    AMBIGUITY_BAND, whatever the tolerance, are neither counted nor dropped;
    they raise RankAmbiguous so the caller can surface the problem instead of
    silently picking a manifold dimension.
    """
    return _rank(a, guarded=True)


def _rank(a: np.ndarray, guarded: bool) -> int:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not np.any(a):
        return 0
    return _count(np.linalg.svd(a, compute_uv=False), guarded)


def _count(s: np.ndarray, guarded: bool) -> int:
    """The one rank rule: how many singular values s (largest first, s[0] > 0)
    exceed rank_rtol() relative to the largest. guarded first refuses any
    ratio strictly inside AMBIGUITY_BAND."""
    normalized = s / s[0]
    if guarded:
        low, high = AMBIGUITY_BAND
        inside = normalized[(normalized > low) & (normalized < high)]
        if inside.size:
            raise RankAmbiguous(inside, AMBIGUITY_BAND)
    return int(np.sum(normalized > rank_rtol()))


def regularity(a: np.ndarray, rtol: float | None = None) -> tuple[bool, float, float]:
    """(regular, smallest, largest singular value) of a symmetric matrix:
    regular_solve's verdict without a right-hand side."""
    return regular_solve(a, None, rtol)[:3]


def regular_solve(a: np.ndarray, b: np.ndarray | None = None, rtol: float | None = None
                  ) -> tuple[bool, float, float, np.ndarray | None]:
    """(regular, smallest, largest singular value, solution of a x = b) of a
    symmetric matrix, from its eigenvalues.

    The singular values of a symmetric matrix are its |eigenvalues|. Regular
    means the smallest exceeds the shared relative threshold times a positive
    largest one; an empty matrix is not regular here, and callers that accept
    it say so themselves. The solution is None unless a is regular and b is
    given. rtol is the threshold, which a system resolves once and passes;
    rank_rtol() when None. Only the lower triangle is read, and a NaN
    eigenvalue raises LinAlgError, as the SVD of such a matrix does.

    By size: a 1x1 matrix is its own eigenvalue and x = b / a, the bits
    eigh gives. A 2x2 matrix is scaled by its largest |entry|; the larger
    eigenvalue in magnitude is mean +- hypot, the other det / that, and x
    comes from the adjugate. Larger ones take one eigh: a closed form there
    loses about sqrt(eps) on a repeated eigenvalue.
    """
    if not a.size:
        return False, 0.0, 0.0, None
    n = len(a)
    if n == 1:
        lam = a.item()
        sizes = [abs(lam)]
    elif n == 2:
        (p, _), (r, q) = a.tolist()
        # scaled, the determinant neither underflows nor overflows
        scale = max(abs(p), abs(r), abs(q))
        if scale:
            p, r, q = p / scale, r / scale, q / scale
            mean = 0.5 * (p + q)
            big = mean + math.copysign(math.hypot(0.5 * (p - q), r), mean)
            det = p * q - r * r
            sizes = [abs(big) * scale, abs(det / big) * scale]
        else:
            # zeros, or zeros and a NaN, which max passes over
            sizes = [abs(p + r + q)] * 2
    else:
        lam, vectors = np.linalg.eigh(a)
        sizes = [abs(v) for v in lam.tolist()]
    if math.isnan(sum(sizes)):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    smin, smax = min(sizes), max(sizes)
    regular = smax > 0.0 and smin > (rank_rtol() if rtol is None else rtol) * smax
    if not regular or b is None:
        return regular, smin, smax, None
    # + 0.0 turns a -0.0 into the +0.0 that eigh's sums of products give
    if n == 1:
        return regular, smin, smax, np.array([b.item() / lam + 0.0])
    if n == 2:
        b0, b1 = b.tolist()
        return regular, smin, smax, np.array([(q * b0 - r * b1) / det / scale + 0.0,
                                              (p * b1 - r * b0) / det / scale + 0.0])
    return regular, smin, smax, vectors @ ((b @ vectors) / lam)


def min_norm_lstsq(a: np.ndarray, b: np.ndarray,
                   rtol: float | None = None) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of a x = b and its residual.

    The residual is the infinity norm of a x - b, reported so callers can
    distinguish an exactly-solvable system from a genuine least-squares fit.
    rtol is the rank threshold, rank_rtol() when None.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.shape[1] == 0:
        x = np.zeros(0)
        residual = float(np.max(np.abs(b))) if b.size else 0.0
        return x, residual
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=rank_rtol() if rtol is None else rtol)
    residual = float(np.max(np.abs(a @ x - b))) if b.size else 0.0
    return x, residual


# what a residual hands its step
D = TypeVar("D")


def damped_newton(residual: Callable[[np.ndarray], tuple[np.ndarray, D]],
                  step: Callable[[D, np.ndarray], np.ndarray],
                  x0: np.ndarray, what: str,
                  error: type[NewtonFailed] = NewtonFailed,
                  tol: float = 1e-12, max_iter: int = 50) -> tuple[np.ndarray, D]:
    """Root of a residual by Newton steps with a halving line search.

    residual(x) returns (r, data): the residual and whatever the step needs
    at x. step(data, r) receives the pair of the accepted point and returns
    the Newton correction, subtracted as x - t * step for the first t in 1,
    1/2, 1/4, ... that lowers the max-abs residual, so each point is
    evaluated once. Once that residual is below tol, (x, data) is returned;
    an empty residual returns x0 and its data at once, and one with a NaN
    entry is never below it. A stalled line search, an exhausted budget and
    a singular matrix inside step raise error, described by what.
    """
    x = np.array(x0, dtype=float)
    r, data = residual(x)
    for _ in range(max_iter):
        size = _max_abs(r)
        if size < tol:
            return x, data
        try:
            dx = step(data, r)
        except np.linalg.LinAlgError as exc:
            raise error(f"{what}: singular Jacobian at {x!r}") from exc
        t = 1.0
        while t > 1e-4:
            cand = x - t * dx
            rc, dc = residual(cand)
            cand_size = _max_abs(rc)
            if cand_size < size or cand_size < tol:
                x, r, data = cand, rc, dc
                break
            t *= 0.5
        else:
            raise error(f"{what} stalled")
    size = _max_abs(r)
    if size < tol:
        return x, data
    raise error(f"{what} did not converge, residual {size:.3e}")


def _max_abs(r: np.ndarray) -> float:
    """Largest |entry| of a short vector as a float, 0.0 when it is empty and
    NaN when an entry is NaN (Python's max would pass over it), so that a NaN
    residual is never below a tolerance."""
    sizes = [abs(v) for v in r.tolist()]
    return math.nan if any(s != s for s in sizes) else max(sizes, default=0.0)

