"""Dense complex matrix primitives.

Conventions used throughout the package:

* matrices are square ``numpy`` arrays of ``complex128``, row-major;
* ``vec`` pairs the matrix-unit basis with linear indices as
  ``(i, j) -> i * n + j``, so ``vec(M)[i * n + j] == M[i, j]``;
* all thresholds are relative to ``max(1, lambda_max)`` so behaviour does
  not depend on the overall scale of the input.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_TOL", "Tolerances", "eig_general", "eig_hermitian", "is_pd",
    "is_psd", "kernel_psd", "tensor", "unvec", "vec",
]

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, DimensionMismatch, NotHermitian, NotPSD,
                     ValidationError)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every analysis routine.

    psd_tol        relative eigenvalue slack for PSD/PD and Hermiticity tests
    zero_eig_tol   modulus below which an eigenvalue counts as zero; it must
                   be positive, since a zero cut would count round-off as rank
    match_tol      max allowed distance when pairing two spectra
    stochastic_tol slack for POVM closure, trace-one and column-sum checks
    """

    psd_tol: float = 1e-9
    zero_eig_tol: float = 1e-8
    match_tol: float = 1e-6
    stochastic_tol: float = 1e-10

    def __post_init__(self):
        for name in ("psd_tol", "zero_eig_tol", "match_tol", "stochastic_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
        if self.zero_eig_tol == 0:
            raise ValidationError(f"zero_eig_tol must be positive, got {self.zero_eig_tol}: "
                                  "a zero cut counts round-off as rank")


DEFAULT_TOL = Tolerances()


def as_matrix(m, name="matrix"):
    """Coerce to a finite 2-D complex array (copy, read-only)."""
    arr = np.array(m, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    arr.setflags(write=False)
    return arr


def as_square(m, name="matrix"):
    """Coerce to a finite square complex array."""
    arr = as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def require_hermitian(h, tol: Tolerances = DEFAULT_TOL, name="matrix"):
    """Validate Hermiticity entrywise against the adjoint; return the array."""
    arr = as_square(h, name)
    scale = 1.0 + float(np.max(np.abs(arr)))
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    if defect > tol.psd_tol * scale:
        raise NotHermitian(f"{name} is not Hermitian: max |H - H*| = {defect:.3e}")
    return arr


def eig_hermitian(h, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted in
    descending order and matching orthonormal eigenvector columns, so that
    ``h == V @ diag(w) @ V.conj().T`` up to round-off.
    """
    arr = require_hermitian(h, tol)
    w, v = np.linalg.eigh((arr + arr.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order].real, v[:, order]


def is_psd(h, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix has lambda_min >= -psd_tol * max(1, lambda_max)."""
    w, _ = eig_hermitian(h, tol)
    return bool(w[-1] >= -tol.psd_tol * max(1.0, w[0]))


def is_pd(h, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix has lambda_min > psd_tol * max(1, lambda_max)."""
    w, _ = eig_hermitian(h, tol)
    return bool(w[-1] > tol.psd_tol * max(1.0, w[0]))


def _zero_cut(lowest, highest, tol: Tolerances, caller: str) -> float:
    """Eigenvalue below which a PSD matrix counts as singular; NotPSD if it is not PSD."""
    scale = max(1.0, float(highest))
    if lowest < -tol.psd_tol * scale:
        raise NotPSD(f"{caller} requires a PSD input, lambda_min = {lowest:.3e}")
    return tol.zero_eig_tol * scale


def kernel_psd(h, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis of the kernel of a PSD matrix.

    Returns an ``n x k`` array whose columns are the eigenvectors with
    eigenvalue below ``zero_eig_tol * max(1, lambda_max)``; ``k`` may be 0.
    """
    w, v = eig_hermitian(h, tol)  # descending
    return v[:, w < _zero_cut(w[-1], w[0], tol, "kernel_psd")]


def kernel_dim_psd(h, tol: Tolerances = DEFAULT_TOL) -> int:
    """Dimension of the kernel of a PSD matrix (eigenvalues only, no vectors)."""
    arr = require_hermitian(h, tol)
    w = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)  # ascending
    return int(np.count_nonzero(w < _zero_cut(w[0], w[-1], tol, "kernel_dim_psd")))


def eig_general(m):
    """Complex eigenvalues of a square matrix, with algebraic multiplicity.

    Backed by the LAPACK Schur/QR solver, which caps its iteration count
    internally; non-convergence surfaces as ConvergenceFailure.
    """
    arr = as_square(m)
    try:
        return np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration did not converge: {exc}") from exc


def vec(m):
    """Row-major vectorization: vec(M)[i * n + j] = M[i, j]."""
    arr = as_square(m)
    return arr.reshape(-1).copy()


def unvec(v):
    """Inverse of ``vec``: reshape a length-n^2 vector to an n x n matrix."""
    arr = np.asarray(v, dtype=np.complex128).reshape(-1)
    n = int(round(np.sqrt(arr.size)))
    if n * n != arr.size:
        raise DimensionMismatch(f"vector of length {arr.size} is not n^2 for integer n")
    return arr.reshape(n, n).copy()


def tensor(a, b):
    """Kronecker product with block (i, j) equal to a[i, j] * b."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))
