"""Dense complex matrix primitives.

Conventions used throughout the package:

* matrices are square ``numpy`` arrays of ``complex128``, row-major;
* ``vec`` pairs the matrix-unit basis with linear indices as
  ``(i, j) -> i * n + j``, so ``vec(M)[i * n + j] == M[i, j]``;
* ``psd_tol`` and ``zero_eig_tol`` are relative to ``max(1, lambda_max)``, so
  behaviour does not depend on the overall scale of the input. The others
  are absolute: ``stochastic_tol`` is a slack on entries, sums and traces,
  ``match_tol`` a distance between eigenvalues, and ``ROUTE_TOL`` a max-entry
  gap between two routes to the same quantity.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_TOL", "Tolerances", "eig_general", "eig_hermitian", "kernel_psd", "vec",
]

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError


# Why each tolerance must stay below 1, and why two of them must not be 0.
_BELOW_ONE = {
    "psd_tol": "it is relative to max(1, lambda_max)",
    "zero_eig_tol": "it is relative to max(1, lambda_max)",
    "match_tol": "the spectra it matches lie in the closed unit disk",
    "stochastic_tol": "every POVM effect has lambda_max <= 1, so every effect would "
                      "count as zero",
}
_POSITIVE = {
    "zero_eig_tol": "a zero cut counts round-off as rank",
    "match_tol": "round-off alone separates equal eigenvalues",
}


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds; a form keeps the set it was validated under.

    psd_tol        relative eigenvalue slack for PSD/PD and Hermiticity tests
    zero_eig_tol   modulus below which an eigenvalue counts as zero; it must
                   be positive, since a zero cut would count round-off as rank
    match_tol      max allowed distance when pairing two spectra; it must be
                   positive, since round-off alone separates equal eigenvalues
    stochastic_tol slack for POVM closure, trace-one and column-sum checks,
                   and the lambda_max at or below which an effect is zero

    psd_tol and zero_eig_tol scale with max(1, lambda_max) and must be below
    1: at 1 or more no matrix is PD and any with lambda_max < 1 is singular.
    match_tol must be below 1 too: every eigenvalue of a channel and of its
    stochastic matrix lies in the closed unit disk, so a match distance of
    1 or more, the disk's radius, tells almost no two spectra of the same
    size apart. So must stochastic_tol: every POVM effect has lambda_max <=
    1, so from 1 on every effect counts as zero. A stochastic_tol below 1
    can still be loose enough to accept effects that are no POVM (at 0.5,
    0.7 I twice passes closure); that case is not caught here.
    """

    psd_tol: float = 1e-9
    zero_eig_tol: float = 1e-8
    match_tol: float = 1e-6
    stochastic_tol: float = 1e-10

    def __post_init__(self):
        for name, why in _BELOW_ONE.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
            if value >= 1:
                raise ValidationError(f"{name} must be below 1, got {value}: {why}")
        for name, why in _POSITIVE.items():
            if getattr(self, name) == 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}: "
                                      f"{why}")


DEFAULT_TOL = Tolerances()

# bound on the max-entry gap between two routes to the same quantity
ROUTE_TOL = 1e-10


def _stationary_tol(tol: Tolerances) -> float:
    """Bound on a fixed point's residual: S's columns may miss 1 by ``stochastic_tol``."""
    return max(ROUTE_TOL, tol.stochastic_tol)


def as_square(m, name="matrix"):
    """Coerce to a finite, nonempty, square complex array (copy, read-only)."""
    arr = np.array(m, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def eig_hermitian(h, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted in
    descending order and matching orthonormal eigenvector columns, so that
    ``h == V @ diag(w) @ V.conj().T`` up to round-off. Raises ValidationError
    when max |H - H*| exceeds ``psd_tol * (1 + max |H|)``.
    """
    arr = as_square(h)
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    if defect > tol.psd_tol * (1.0 + float(np.max(np.abs(arr)))):
        raise ValidationError(f"matrix is not Hermitian: max |H - H*| = {defect:.3e}")
    w, v = np.linalg.eigh((arr + arr.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order].real, v[:, order]


def _rank_cut(highest, tol: Tolerances) -> float:
    """Numerical-rank cut: values below zero_eig_tol * max(1, highest) count as zero."""
    return tol.zero_eig_tol * max(1.0, float(highest))


def _zero_cut(lowest, highest, tol: Tolerances, caller: str) -> float:
    """Eigenvalue below which a PSD matrix counts as singular; ValidationError if not PSD."""
    scale = max(1.0, float(highest))
    if lowest < -tol.psd_tol * scale:
        raise ValidationError(f"{caller} requires a PSD input, lambda_min = {lowest:.3e}")
    return tol.zero_eig_tol * scale


def kernel_psd(h, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis of the kernel of a PSD matrix.

    Returns an ``n x k`` array whose columns are the eigenvectors with
    eigenvalue below ``zero_eig_tol * max(1, lambda_max)``; ``k`` may be 0.
    """
    w, v = eig_hermitian(h, tol)  # descending
    return v[:, w < _zero_cut(w[-1], w[0], tol, "kernel_psd")]


def eig_general(m):
    """Complex eigenvalues of a square matrix, with algebraic multiplicity.

    Backed by the LAPACK Schur/QR solver, which caps its iteration count
    internally; non-convergence surfaces as ConsistencyError.
    """
    arr = as_square(m)
    try:
        return np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"eigenvalue iteration did not converge: {exc}") from exc


def vec(m):
    """Row-major vectorization: vec(M)[i * n + j] = M[i, j]."""
    arr = as_square(m)
    return arr.reshape(-1).copy()

