"""Column-stochastic matrix machinery: validation, primitivity, stationary points.

Primitivity is decided on the zero pattern alone (entries above
``stochastic_tol`` count as positive) using boolean matrix products, so
powers of sub-stochastic entries can never underflow the test.
"""

from __future__ import annotations

__all__ = [
    "PrimitivityVerdict", "make_stochastic", "primitivity_index", "wielandt_bound",
]

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .linalg import DEFAULT_TOL, Tolerances, _rank_cut, _stationary_tol


@dataclass(frozen=True)
class PrimitivityVerdict:
    """Outcome of the exact index-of-primitivity search.

    ``index`` is None exactly when the matrix is not primitive; when present
    it never exceeds ``wielandt_bound(r)``.
    """

    primitive: bool
    index: int | None


def wielandt_bound(r: int) -> int:
    """Classical upper bound r^2 - 2r + 2 on the primitivity index of an r x r matrix."""
    if r < 1:
        raise ValidationError(f"dimension must be positive, got {r}")
    return r * r - 2 * r + 2


def make_stochastic(entries, tol: Tolerances = DEFAULT_TOL):
    """Validate a column-stochastic matrix and return it as a clean float array.

    ``entries`` is a square array. Entries in ``[-stochastic_tol, 0)`` are
    clamped to 0; more negative entries raise ValidationError. Every column
    must sum to 1 within ``stochastic_tol``.
    """
    arr = np.array(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"expected a nonempty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains NaN or infinite entries")
    low = float(arr.min())
    if low < -tol.stochastic_tol:
        i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise ValidationError(f"entry ({i},{j}) = {low:.3e} is negative beyond tolerance")
    arr = np.where(arr < 0.0, 0.0, arr)
    sums = arr.sum(axis=0)
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > tol.stochastic_tol:
        j = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(f"column {j} sums to {sums[j]!r}, off by {worst:.3e}")
    arr.setflags(write=False)
    return arr


def _pattern(s, tol: Tolerances):
    """S's zero pattern: True where an entry exceeds ``stochastic_tol``."""
    return np.asarray(s, dtype=np.float64) > tol.stochastic_tol


def primitivity_index(s, tol: Tolerances = DEFAULT_TOL) -> PrimitivityVerdict:
    """Least m with S^m entrywise positive, searched incrementally up to the bound."""
    p = _pattern(s, tol)
    bound = wielandt_bound(p.shape[0])
    power = p
    for m in range(1, bound + 1):
        if power.all():
            return PrimitivityVerdict(primitive=True, index=m)
        power = power @ p  # a boolean product: the pattern of S^(m+1)
    return PrimitivityVerdict(primitive=False, index=None)


def _solve_stationary(arr, tol: Tolerances):
    """Probability vector pi with S pi = pi, plus a uniqueness flag.

    ``arr`` is an S that ``make_stochastic`` already returned. Solves the
    stacked least-squares system [(S - I); 1^T] pi = [0; 1] and clamps
    round-off negatives. The flag reports whether the numerical
    eigenvalue-1 eigenspace of S (null space of S - I) is one-dimensional.
    """
    r = arr.shape[0]
    lhs = np.vstack([arr - np.eye(r), np.ones((1, r))])
    rhs = np.zeros(r + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)

    if float(pi.min()) < -tol.zero_eig_tol:
        raise ConsistencyError(f"stationary solve produced entry {pi.min():.3e} below tolerance")
    pi = np.where(pi < 0.0, 0.0, pi)
    total = float(pi.sum())
    if total <= 0.0:
        raise ConsistencyError("stationary solve produced a zero vector")
    pi = pi / total
    residual = float(np.max(np.abs(arr @ pi - pi)))
    bound = _stationary_tol(tol)
    if residual > bound:
        raise ConsistencyError(f"stationary residual {residual:.3e} exceeds {bound:.0e}")

    sigma = np.linalg.svd(arr - np.eye(r), compute_uv=False)
    null_dim = int(np.count_nonzero(sigma < _rank_cut(sigma[0], tol)))
    return pi, null_dim == 1
