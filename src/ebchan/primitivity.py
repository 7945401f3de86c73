"""Channel-level primitivity: decision, exact index, and index bounds.

A channel is primitive when some iterate maps every density matrix to a
positive definite one. For channels in pair form this reduces to two
checkable facts: the induced stochastic matrix is primitive and the state
sum ``sum_k R_k`` is positive definite. The exact channel index is found by
an all-subsets kernel test on the iterated form, exploiting that for PSD
operators the kernel of a sum is the intersection of the kernels.

The state side of that test depends on the R_k alone, so
``channel_primitivity_index`` builds its subset table once per search and
only the iterated-effect table is rebuilt for each m. The definition-level
sweep ``sweep_positive_iterate`` stays per-m through the public
``strictly_positive_at``, as the independent route it is checked against.
"""

from __future__ import annotations

__all__ = [
    "SUBSET_CAP", "ChannelPrimitivityReport", "HolevoRankBounds",
    "IndexBoundComparison", "StrictPositivityResult",
    "channel_primitivity_index", "holevo_rank_bounds",
    "is_primitive_channel", "quantum_wielandt_comparison",
    "strictly_positive_at", "sum_R_positive_definite",
    "sweep_positive_iterate",
]

from dataclasses import dataclass

import numpy as np

from .channel import HolevoForm, iterated_form, stochastic_rep
from .errors import ConsistencyError, SubsetCapExceeded
from .linalg import DEFAULT_TOL, Tolerances, is_pd, kernel_dim_psd, kernel_psd
from .stochastic import primitivity_index, wielandt_bound

SUBSET_CAP = 20


def sum_R_positive_definite(form: HolevoForm, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the sum of the channel's output states is positive definite.

    When it is not, its kernel is shared by every R_k and no output of the
    channel can ever be invertible, ruling out primitivity.
    """
    return is_pd(sum(form.states), tol)


@dataclass(frozen=True)
class StrictPositivityResult:
    """Verdict of the all-states positivity test at one iteration count.

    When ``holds`` is False, the witnesses certify the failure: ``state``
    is a unit vector psi and ``direction`` a unit vector phi with
    <phi| channel^m(psi psi*) |phi> ~ 0, and ``subset`` lists the pair
    indices whose states annihilate phi (the remaining iterated effects
    annihilate psi). ``value`` is that quadratic form re-evaluated through
    the iterated pair sum.
    """

    holds: bool
    m: int
    subset: tuple | None = None
    state: np.ndarray | None = None
    direction: np.ndarray | None = None
    value: float | None = None

    def __bool__(self) -> bool:
        return self.holds


def _alive_table(mats, n, tol):
    """alive[mask] = True iff the summed PSD matrices over ``mask`` have a kernel.

    Downward closed: adding terms can only shrink the kernel, so a dead
    parent (mask without its lowest bit) kills the mask without a solve.
    """
    r = len(mats)
    alive = np.zeros(1 << r, dtype=bool)
    alive[0] = True  # empty sum is the zero matrix, kernel is everything
    for mask in range(1, 1 << r):
        parent = mask & (mask - 1)
        if not alive[parent]:
            continue
        h = np.zeros((n, n), dtype=np.complex128)
        for k in range(r):
            if mask >> k & 1:
                h = h + mats[k]
        alive[mask] = kernel_dim_psd(h, tol) > 0
    return alive


def _kernel_vector(mats, indices, n, tol):
    if not indices:
        e0 = np.zeros(n, dtype=np.complex128)
        e0[0] = 1.0
        return e0
    h = np.zeros((n, n), dtype=np.complex128)
    for k in indices:
        h = h + mats[k]
    basis = kernel_psd(h, tol)
    return basis[:, 0]


def strictly_positive_at(form: HolevoForm, m: int, tol: Tolerances = DEFAULT_TOL,
                         subset_cap: int = SUBSET_CAP) -> StrictPositivityResult:
    """Decide whether channel^m sends every density matrix to a PD matrix.

    channel^m(psi psi*) fails to be PD exactly when some direction phi and
    state psi make every term <psi|G_k|psi> <phi|R_k|phi> vanish, i.e. when
    the pair indices split into a set T with phi in ker(sum_{k in T} R_k)
    and a complement with psi in ker(sum of the other iterated effects).
    The test enumerates all 2^r splits (it is exact); the verdict is the
    first triggering split in increasing-bitmask order, so it is
    deterministic regardless of evaluation schedule. This builds the
    state-side table on every call; ``channel_primitivity_index`` builds it
    once and reuses it for each m it tests.
    """
    if form.r > subset_cap:
        raise SubsetCapExceeded(
            f"r = {form.r} exceeds the exact-enumeration cap {subset_cap}")
    return _positive_at(form, m, tol, _alive_table(form.states, form.n, tol))


def _positive_at(form, m, tol, alive_states):
    """The split scan of ``strictly_positive_at`` given the state-side table."""
    iterated = iterated_form(form, m, tol)
    states = list(form.states)
    effects_m = list(iterated.effects)
    n = form.n
    full = (1 << form.r) - 1

    alive_g = _alive_table(effects_m, n, tol)
    for t_mask in range(full + 1):
        if alive_states[t_mask] and alive_g[full ^ t_mask]:
            subset = tuple(k for k in range(form.r) if t_mask >> k & 1)
            complement = tuple(k for k in range(form.r) if not t_mask >> k & 1)
            phi = _kernel_vector(states, subset, n, tol)
            psi = _kernel_vector(effects_m, complement, n, tol)
            value = float(sum((psi.conj() @ g @ psi).real * (phi.conj() @ r @ phi).real
                              for g, r in zip(effects_m, states)))
            return StrictPositivityResult(holds=False, m=m, subset=subset,
                                          state=psi, direction=phi, value=value)
    return StrictPositivityResult(holds=True, m=m)


def is_primitive_channel(form: HolevoForm, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Primitivity decision: S primitive and sum_k R_k positive definite."""
    s = stochastic_rep(form, tol)
    return primitivity_index(s, tol).primitive and sum_R_positive_definite(form, tol)


@dataclass(frozen=True)
class ChannelPrimitivityReport:
    """Joint primitivity result for a channel and its stochastic matrix.

    ``p_index`` is the matrix index, ``q_index`` the channel index (None
    when not primitive, or when ``q_method`` is 'bounds-only' because r
    exceeded the exact-enumeration cap; ``q_window`` then carries the
    guaranteed interval [max(1, p-1), p+1]).
    """

    s_primitive: bool
    sum_R_pd: bool
    channel_primitive: bool
    p_index: int | None
    q_index: int | None
    bound_abs_diff_ok: bool | None
    holevo_rank_bound_ok: bool | None
    q_method: str  # 'exact' | 'bounds-only'
    q_window: tuple | None


def channel_primitivity_index(form: HolevoForm, tol: Tolerances = DEFAULT_TOL,
                              subset_cap: int = SUBSET_CAP) -> ChannelPrimitivityReport:
    """Exact channel primitivity index via the subset test.

    The search runs over the guaranteed window [max(1, p-1), p+1];
    ``sweep_positive_iterate`` is the definition-level oracle that scans
    from m = 1, rebuilding every table per m. Positivity once reached must
    persist, so the search re-tests at q + 1 whenever that lies inside the
    window and refuses to return an answer contradicting monotonicity. The
    state-side subset table does not depend on m, so it is built once per
    search and shared by every m tested, the re-test included.
    """
    s = stochastic_rep(form, tol)
    verdict = primitivity_index(s, tol)
    sum_r_pd = sum_R_positive_definite(form, tol)
    p = verdict.index
    channel_primitive = verdict.primitive and sum_r_pd

    if not channel_primitive:
        return ChannelPrimitivityReport(
            s_primitive=verdict.primitive, sum_R_pd=sum_r_pd,
            channel_primitive=False, p_index=p, q_index=None,
            bound_abs_diff_ok=None, holevo_rank_bound_ok=None,
            q_method="exact", q_window=None)

    window = (max(1, p - 1), p + 1)
    if form.r > subset_cap:
        return ChannelPrimitivityReport(
            s_primitive=True, sum_R_pd=True, channel_primitive=True,
            p_index=p, q_index=None, bound_abs_diff_ok=None,
            holevo_rank_bound_ok=None, q_method="bounds-only", q_window=window)

    alive_states = _alive_table(form.states, form.n, tol)
    q = None
    for m in range(window[0], window[1] + 1):
        if _positive_at(form, m, tol, alive_states).holds:
            q = m
            break
    if q is None:
        raise ConsistencyError(
            f"primitive channel shows no positive iterate in [{window[0]}, {window[1]}]; "
            f"p = {p}")
    if q < window[1] and not _positive_at(form, q + 1, tol, alive_states).holds:
        raise ConsistencyError(f"positivity holds at m = {q} but not at m = {q + 1}")

    return ChannelPrimitivityReport(
        s_primitive=True, sum_R_pd=True, channel_primitive=True,
        p_index=p, q_index=q,
        bound_abs_diff_ok=abs(q - p) <= 1,
        holevo_rank_bound_ok=q <= form.r * form.r - 2 * form.r + 3,
        q_method="exact", q_window=window)


@dataclass(frozen=True)
class HolevoRankBounds:
    """Bracketing of the minimal number of pairs realizing the channel.

    ``lower`` is the rank of the channel's linear-action matrix (the pair
    count of any form bounds that rank from above); ``upper`` is the pair
    count of the form at hand; ``q_upper_from_rank`` is the index bound
    r^2 - 2r + 3 evaluated at ``upper``.
    """

    lower: int
    upper: int
    q_upper_from_rank: int


def holevo_rank_bounds(form: HolevoForm, tol: Tolerances = DEFAULT_TOL) -> HolevoRankBounds:
    """Rank of the natural rep K, and the pair-count bounds built on it.

    The rank is counted from the singular values of the k x n^2 matrix
    Q* K, where Q is the orthonormal basis of span{vec R_k}, which contains
    range(K), that ``compare_nonzero_spectrum`` uses too (k = r, or n^2 when
    r >= n^2): Q Q* K equals K up to round-off, checked by its residual, so
    both have the same singular values. That costs O(r n^4), against O(n^6)
    for an SVD of K. K itself is streamed in column blocks and never
    stored, so memory is O((r + 64) n^2), not the 16 n^4 bytes of K.
    Singular values above ``zero_eig_tol * max(1, sigma_max)`` count.
    """
    _, qh_rep = form._action_range
    sigma = np.linalg.svd(qh_rep, compute_uv=False)
    lower = int(np.count_nonzero(sigma > tol.zero_eig_tol * max(1.0, float(sigma[0]))))
    r = form.r
    return HolevoRankBounds(lower=lower, upper=r, q_upper_from_rank=r * r - 2 * r + 3)


@dataclass(frozen=True)
class IndexBoundComparison:
    """Side-by-side channel-index bounds from the pair count and from Kraus count."""

    q_bound_holevo: int
    q_bound_quantum: int


def quantum_wielandt_comparison(form: HolevoForm, d: int) -> IndexBoundComparison:
    """Compare r^2 - 2r + 3 with the general-channel bound (n^2 - d + 1) n^2.

    ``d`` is a Kraus-operator count for some implementation of the channel,
    supplied by the caller; minimality is not checked here.
    """
    if d < 1:
        raise ValueError(f"Kraus operator count must be positive, got {d}")
    r, n = form.r, form.n
    return IndexBoundComparison(
        q_bound_holevo=r * r - 2 * r + 3,
        q_bound_quantum=(n * n - d + 1) * n * n)


def sweep_positive_iterate(form: HolevoForm, tol: Tolerances = DEFAULT_TOL,
                           subset_cap: int = SUBSET_CAP):
    """Definition-level primitivity oracle: scan m = 1 .. r^2 - 2r + 3.

    Returns (primitive, least m) by testing strict positivity directly at
    every m up to the index bound, independent of the stochastic-matrix
    decision path. Every m goes through the public ``strictly_positive_at``,
    which rebuilds both subset tables, so this route shares no table with
    ``channel_primitivity_index``. Intended for cross-checking, not routine
    use.
    """
    cap = wielandt_bound(form.r) + 1
    for m in range(1, cap + 1):
        if strictly_positive_at(form, m, tol, subset_cap).holds:
            return True, m
    return False, None
