"""Random and extremal generators used by the verification suite.

All sampling goes through a caller-supplied ``numpy.random.Generator`` so
every run is reproducible from a single seed.
"""

from __future__ import annotations

__all__ = [
    "random_channel", "random_density", "random_holevo_form",
    "random_qc_form", "random_stochastic", "wielandt_matrix",
]

import numpy as np

from .channel import HolevoForm, make_holevo_form, qc_from_stochastic
from .errors import ValidationError
from .linalg import DEFAULT_TOL, Tolerances, eig_hermitian
from .stochastic import make_stochastic

# keeps the effect-normalizing Gram matrix invertible for any draw
_EPS_IDENTITY = 1e-6


def random_density(rng, n: int, rank: int | None = None):
    """Random density matrix G G* / tr(G G*) from a complex Gaussian G (n x rank)."""
    rank = n if rank is None else rank
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _inv_sqrt_psd(h, tol):
    w, v = eig_hermitian(h, tol)
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T


def random_holevo_form(rng, n: int, r: int, state_ranks=None,
                       tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    """Random valid channel with r pairs on an n-dimensional system.

    States are Gaussian densities (optionally rank-limited via
    ``state_ranks`` to exercise singular state sums). Effects come from
    random PSD seeds A_k, nudged by (eps/r) I so their sum M is invertible,
    then normalized by congruence with M^{-1/2}; a second congruence pass
    with the near-identity residual Gram matrix pushes the POVM closure
    defect down to round-off.
    """
    if state_ranks is None:
        state_ranks = [n] * r
    states = [random_density(rng, n, rank) for rank in state_ranks]

    seeds = []
    for _ in range(r):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        seeds.append(g @ g.conj().T + (_EPS_IDENTITY / r) * np.eye(n))
    m = sum(seeds)
    w = _inv_sqrt_psd(m, tol)
    effects = [w @ a @ w for a in seeds]
    polish = _inv_sqrt_psd(sum(effects), tol)
    effects = [polish @ f @ polish for f in effects]
    return make_holevo_form(n, zip(effects, states), tol)


def random_stochastic(rng, r: int, zero_fraction: float = 0.0,
                      no_zero_rows: bool = False,
                      tol: Tolerances = DEFAULT_TOL):
    """Random column-stochastic r x r matrix with an optional random zero pattern.

    Each entry is zeroed independently with probability ``zero_fraction``;
    columns that lose every entry get one random survivor back, and with
    ``no_zero_rows`` so does every row (required when the rows become POVM
    effects downstream).
    """
    weights = rng.gamma(shape=1.0, scale=1.0, size=(r, r))
    if zero_fraction > 0.0:
        keep = rng.random((r, r)) >= zero_fraction
        for j in range(r):
            if not keep[:, j].any():
                keep[rng.integers(r), j] = True
        if no_zero_rows:
            for i in range(r):
                if not keep[i].any():
                    keep[i, rng.integers(r)] = True
        weights = weights * keep
    return make_stochastic(weights / weights.sum(axis=0), tol)


def random_qc_form(rng, n: int, zero_fraction: float = 0.5,
                   tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    """Quantum-classical channel of a random sparse stochastic matrix.

    The sparsity gives the induced matrix genuine zero entries, so these
    channels exercise non-primitive cases and indices p > 1, which generic
    Gaussian forms (whose effects are all positive definite) never do.
    """
    s = random_stochastic(rng, n, zero_fraction, no_zero_rows=True, tol=tol)
    return qc_from_stochastic(s, tol)


def random_channel(rng, n: int, r: int, tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    """Mixed-family channel draw for verification sweeps.

    Picks uniformly between a generic Gaussian form (random state ranks),
    and, when r == n allows it, a sparse quantum-classical form.
    """
    if r == n and rng.random() < 0.5:
        return random_qc_form(rng, n, zero_fraction=float(rng.uniform(0.2, 0.7)), tol=tol)
    ranks = [int(rng.integers(1, n + 1)) for _ in range(r)]
    return random_holevo_form(rng, n, r, state_ranks=ranks, tol=tol)


def wielandt_matrix(r: int, tol: Tolerances = DEFAULT_TOL):
    """Column-stochastic matrix on the extremal cycle-plus-chord pattern.

    Vertices 0..r-1 with edges k -> k+1 and the extra edge r-1 -> 1; its
    primitivity index attains the classical bound r^2 - 2r + 2.
    """
    if r < 2:
        raise ValidationError(f"pattern needs r >= 2, got {r}")
    s = np.zeros((r, r))
    for k in range(r - 1):
        s[k + 1, k] = 1.0
    s[0, r - 1] = 0.5
    s[1, r - 1] = 0.5
    return make_stochastic(s, tol)
