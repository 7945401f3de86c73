"""Channel-level primitivity: decision, exact index, and index bounds.

A channel is primitive when some iterate maps every density matrix to a
positive definite one. For channels in pair form this reduces to two
checkable facts: the induced stochastic matrix is primitive and the state
sum ``sum_k R_k`` is positive definite. The m-th iterate fails to be
positive iff the pair indices split into a set T whose states share a
kernel vector and a complement whose iterated effects
G_k^(m) = sum_j (S^{m-1})_{kj} F_j share one; for PSD operators the kernel
of a sum is the intersection of the kernels. Two routes decide this and
share no scan. ``strictly_positive_at`` (per m, and through it
``sweep_positive_iterate``) is the definition-level one: it scans the splits
on ``iterated_form(form, m)``. ``channel_primitivity_index`` builds no
iterated form: the weights of G_k^(m) are nonnegative, so the effects over
U share the kernel of the original effects over the j that the pattern of
S^{m-1}, the pattern that decides p, reaches from U.

One routine, ``_alive_table``, decides which subset sums of an (r, n, n)
stack of validated PSD matrices have a kernel, from their eigenvalues (the
sums are exactly Hermitian, see ``HolevoForm``): a kernel iff lambda_min <
zero_eig_tol * max(1, lambda_max), and ValidationError for lambda_min below
-psd_tol * max(1, lambda_max). It walks the masks from a worklist and
builds each sum from its parent's with one addition, so its members are
added from the highest index down, and a sum of three or more can differ
in its last bits from ``stack[members].sum(axis=0)``. One batched
``eigvalsh`` call solves the children of as many waiting parents as it
takes to reach r sums. The sums, the masks solved, the table, and the mask
at which a non-PSD sum raises, with its message, are those of a walk that
solves one mask at a time in increasing order. It fills every mask or
only those asked for. A stack of diagonal matrices, as the states, the
effects and every iterate of a quantum-classical form are, is walked on its
(r, n) real diagonals instead, and each sum's lambda_min and lambda_max are
its row's min and max, which are what ``eigvalsh`` returns for that
diagonal matrix; no mask, batch or message changes.
"""

from __future__ import annotations

__all__ = [
    "SUBSET_CAP", "ChannelPrimitivityReport", "HolevoRankBounds",
    "StrictPositivityResult", "channel_primitivity_index",
    "holevo_rank_bounds", "strictly_positive_at",
    "sum_R_positive_definite", "sweep_positive_iterate",
]

from dataclasses import dataclass

import numpy as np

from .channel import HolevoForm, iterated_form, stochastic_rep
from .errors import ConsistencyError, ValidationError
from .linalg import _rank_cut, _zero_cut, eig_hermitian, kernel_psd
from .stochastic import _pattern, primitivity_index, wielandt_bound

SUBSET_CAP = 20


def _channel_index_bound(r: int) -> int:
    """The paper's bound r^2 - 2r + 3 on the channel index of an r-pair form."""
    return wielandt_bound(r) + 1


def sum_R_positive_definite(form: HolevoForm) -> bool:
    """Whether the sum of the channel's output states is positive definite.

    When it is not, its kernel is shared by every R_k and no output of the
    channel can ever be invertible, ruling out primitivity. The sum is
    definite iff lambda_min >= zero_eig_tol * max(1, lambda_max), the
    zero cut by which ``_alive_table`` decides that the same sum (its full
    mask) has no kernel.
    """
    w, _ = eig_hermitian(form.states.sum(axis=0), form.tol)  # descending
    return bool(w[-1] >= _rank_cut(w[0], form.tol))


@dataclass(frozen=True)
class StrictPositivityResult:
    """Verdict of the all-states positivity test at one iteration count.

    When ``holds`` is False, the witnesses certify the failure: ``state``
    is a unit vector psi and ``direction`` a unit vector phi with
    <phi| channel^m(psi psi*) |phi> ~ 0, and ``subset`` lists the pair
    indices whose states annihilate phi (the remaining iterated effects
    annihilate psi). ``run_channel_checks`` grades the witness through the
    channel action.
    """

    holds: bool
    m: int
    subset: tuple | None = None
    state: np.ndarray | None = None
    direction: np.ndarray | None = None


def _extremes(sums):
    """lambda_min and lambda_max of each sum of a batch.

    A (b, n, n) batch of Hermitian matrices goes to one ``eigvalsh`` call;
    a (b, n) batch holds the real diagonals of diagonal matrices, whose
    extremes are the rows' min and max.
    """
    if sums.ndim == 2:
        return sums.min(axis=1), sums.max(axis=1)
    w = np.linalg.eigvalsh(sums)  # ascending, one row per sum
    return w[:, 0], w[:, -1]


def _alive_table(stack, tol, masks=None):
    """alive[mask] = True iff the sum of ``stack[k]`` over the bits k of ``mask`` has a kernel.

    ``stack`` holds r validated PSD matrices as an exactly Hermitian (r, n, n)
    array, so each subset sum goes to ``eigvalsh`` as it is. Downward
    closed: adding terms can only shrink the kernel, so a dead parent (mask
    without its lowest bit) kills the mask without a solve. The masks are
    walked down that parent tree, whose children of P are ``P | 1 << k``
    for each k below P's lowest bit, from a worklist: alive parents wait on
    a stack with their sum and lowest bit. Each step pops parents from the
    top until their children number at least r (the root alone gives r),
    builds each child as its parent's sum plus ``stack[k]`` (one addition
    per child), takes the batch's lambda_min and lambda_max with one
    ``_extremes`` call, cuts each child and pushes the alive ones with their
    rows of the batch copied out, the smallest mask on top. So one batch
    holds at most 2r - 1 sums and O(r^2) sums are held at once. The members of a sum are added from the highest
    index down; a sum of three or more can differ in its last bits from
    ``stack[members].sum(axis=0)``, and it is exactly Hermitian all the
    same. The batches change the visit order, which is no longer
    increasing, and the number of batches, and nothing else: the sums, the
    masks solved and the table are those of a walk that solves one mask at
    a time in increasing order. A non-PSD sum is not expanded; after the
    walk the smallest such mask raises ValidationError with its own
    lambda_min, which is where that walk would stop. With ``masks`` given,
    only those masks and their lowest-bit parent chains are walked, so the
    asked entries are the full table's, every other entry reads False, and
    ValidationError is raised for a non-PSD sum only among the masks solved.

    When every off-diagonal entry of ``stack`` is zero, the walk runs on the
    real diagonals instead: each child is its parent's row plus the
    diagonal of ``stack[k]``, bitwise the diagonal of the matrix sum, and
    its extremes are the row's min and max. They equal ``eigvalsh``'s:
    LAPACK's tridiagonal reduction leaves a diagonal matrix's diagonal as it
    is, with zero off-diagonals, and the tridiagonal solver returns that
    diagonal sorted. The only other arithmetic is LAPACK's rescaling of a
    matrix whose norm is below about 1e-146, far below the zero cut and
    never non-PSD beyond ``psd_tol``, or above about 1e146, which no sum of
    effects or states comes near. So the masks solved, the batches, the
    table and the non-PSD mask with its message are those of the matrix
    walk.
    """
    r = len(stack)
    diagonal = stack.diagonal(axis1=1, axis2=2)
    if np.count_nonzero(stack) == np.count_nonzero(diagonal):
        stack = diagonal.real  # each sum's spectrum is its diagonal, as eigvalsh returns it
    alive = np.zeros(1 << r, dtype=bool)
    alive[0] = True  # empty sum is the zero matrix, kernel is everything
    chains = None
    if masks is not None:
        chains = set()
        for mask in map(int, masks):
            while mask and mask not in chains:
                chains.add(mask)
                mask &= mask - 1

    pending = [(0, np.zeros(stack.shape[1:], dtype=stack.dtype), r)]
    failure = None  # (mask, error) of the smallest non-PSD mask solved
    while pending:
        batch, sums = [], []
        while pending and len(batch) < r:
            parent, parent_sum, low = pending.pop()
            if chains is None:
                ks, children = range(low), stack[:low]
            else:
                ks = [k for k in range(low) if parent | 1 << k in chains]
                children = stack[ks]
            batch += [(parent | 1 << k, k) for k in ks]
            sums.append(parent_sum + children)
        if not batch:
            continue
        sums = np.concatenate(sums)
        mins, maxs = _extremes(sums)
        # pushed from the last child down, so the first is popped first
        for (mask, k), h, lowest, highest in zip(reversed(batch), sums[::-1],
                                                 mins[::-1], maxs[::-1]):
            try:
                alive[mask] = lowest < _zero_cut(lowest, highest, tol, "subset kernel test")
            except ValidationError as error:
                if failure is None or mask < failure[0]:
                    failure = (mask, error)
                continue
            if alive[mask] and k:
                pending.append((mask, h.copy(), k))
    if failure is not None:
        raise failure[1]
    return alive


def _kernel_vector(stack, indices, tol):
    """A unit vector in the kernel of the sum of ``stack[k]`` over ``indices``."""
    if not indices:
        e0 = np.zeros(stack.shape[-1], dtype=np.complex128)
        e0[0] = 1.0
        return e0
    return kernel_psd(stack[list(indices)].sum(axis=0), tol)[:, 0]


def strictly_positive_at(form: HolevoForm, m: int) -> StrictPositivityResult:
    """Decide whether channel^m sends every density matrix to a PD matrix.

    channel^m(psi psi*) fails to be PD exactly when some direction phi and
    state psi make every term <psi|G_k|psi> <phi|R_k|phi> vanish, i.e. when
    the pair indices split into a set T with phi in ker(sum_{k in T} R_k)
    and a complement with psi in ker(sum of the other iterated effects).
    The effects are those of ``iterated_form(form, m)``, and the candidate
    splits are the masks T with ``full ^ T`` alive in their full table. The
    state side is solved at the candidates only, so a non-PSD state mask
    raises only if it is solved. The test covers all 2^r splits (it is
    exact); the verdict is the first triggering split in increasing-bitmask
    order. Raises ValidationError when r exceeds ``SUBSET_CAP``.
    """
    if form.r > SUBSET_CAP:
        raise ValidationError(f"r = {form.r} exceeds the exact-enumeration cap {SUBSET_CAP}")
    tol, states, effects_m = form.tol, form.states, iterated_form(form, m).effects
    candidates = np.flatnonzero(_alive_table(effects_m, tol)[::-1])  # index T reads full ^ T
    hits = candidates[_alive_table(states, tol, candidates)[candidates]]
    if not hits.size:
        return StrictPositivityResult(holds=True, m=m)
    t_mask = int(hits[0])
    subset = tuple(k for k in range(form.r) if t_mask >> k & 1)
    complement = tuple(k for k in range(form.r) if not t_mask >> k & 1)
    phi = _kernel_vector(states, subset, tol)
    psi = _kernel_vector(effects_m, complement, tol)
    return StrictPositivityResult(holds=False, m=m, subset=subset, state=psi, direction=phi)


@dataclass(frozen=True)
class ChannelPrimitivityReport:
    """Joint primitivity result for a channel and its stochastic matrix.

    ``p_index`` is the matrix index, ``q_index`` the channel index (None
    when not primitive, or when ``q_method`` is 'bounds-only' because r
    exceeded the exact-enumeration cap ``SUBSET_CAP``; ``q_window`` then
    carries the guaranteed interval [max(1, p-1), p+1]).

    ``bound_abs_diff_ok`` (|q - p| <= 1) observes the lower side of the
    gap: the search tests m = p - 2 as well as the window, so it is False
    exactly when that iterate is already positive, and q = p - 2 is then
    reported. The upper side is not a field: no positive iterate up to
    p + 1 raises ConsistencyError. ``holevo_rank_bound_ok``
    (q <= r^2 - 2r + 3) observes nothing the search does not fix: q is at
    most p + 1, and ``primitivity_index`` returns p <= r^2 - 2r + 2; it is
    output only.
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


def channel_primitivity_index(form: HolevoForm) -> ChannelPrimitivityReport:
    """Exact channel primitivity index from S's zero pattern and the original effects.

    The search runs over the guaranteed window [max(1, p-1), p+1], and from
    p = 3 on also tests m = p - 2, where theory says the iterate is not
    positive yet; q is the least positive m tested. It fills the state
    table once and keeps its maximal alive sets T*, since a split
    blocks positivity only if some T* containing its state side does. The
    m-th iterate is positive iff no complement ``full ^ T*`` reaches, by the
    pattern of S^{m-1}, an alive mask of one table on the original effects,
    solved at the asked masks only. Positivity once reached must persist, so
    the search re-tests at q + 1 whenever that lies inside the window and
    refuses to return an answer contradicting monotonicity.
    """
    tol, s = form.tol, stochastic_rep(form)
    verdict = primitivity_index(s, tol)
    sum_r_pd = sum_R_positive_definite(form)
    p = verdict.index
    channel_primitive = verdict.primitive and sum_r_pd

    if not channel_primitive:
        return ChannelPrimitivityReport(
            s_primitive=verdict.primitive, sum_R_pd=sum_r_pd,
            channel_primitive=False, p_index=p, q_index=None,
            bound_abs_diff_ok=None, holevo_rank_bound_ok=None,
            q_method="exact", q_window=None)

    window = (max(1, p - 1), p + 1)
    if form.r > SUBSET_CAP:
        return ChannelPrimitivityReport(
            s_primitive=True, sum_R_pd=True, channel_primitive=True,
            p_index=p, q_index=None, bound_abs_diff_ok=None,
            holevo_rank_bound_ok=None, q_method="bounds-only", q_window=window)

    alive_states = _alive_table(form.states, tol)
    masks, weights = np.arange(len(alive_states)), 1 << np.arange(form.r)
    maximal = alive_states.copy()
    for weight in weights:  # T is maximal iff no T | 1 << k is alive
        maximal &= (masks & weight > 0) | ~alive_states[masks | weight]
    complements = (masks[maximal, None] ^ masks[-1]) & weights > 0  # pair k in full ^ T*
    pattern = _pattern(s, tol)
    first = max(1, p - 2)  # m = p - 2 observes the lower side of the index gap
    asked = [complements @ np.linalg.matrix_power(pattern, m - 1) @ weights  # effect masks
             for m in range(first, window[1] + 1)]
    alive_effects = _alive_table(form.effects, tol, set(np.concatenate(asked).tolist()))
    positive = [not alive_effects[reached].any() for reached in asked]
    if True not in positive:
        raise ConsistencyError(
            f"primitive channel shows no positive iterate in [{window[0]}, {window[1]}]; "
            f"p = {p}")
    q = first + positive.index(True)
    if q < window[1] and not positive[q + 1 - first]:
        raise ConsistencyError(f"positivity holds at m = {q} but not at m = {q + 1}")

    return ChannelPrimitivityReport(
        s_primitive=True, sum_R_pd=True, channel_primitive=True,
        p_index=p, q_index=q,
        bound_abs_diff_ok=abs(q - p) <= 1,
        holevo_rank_bound_ok=q <= _channel_index_bound(form.r),
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


def holevo_rank_bounds(form: HolevoForm) -> HolevoRankBounds:
    """Rank of the natural rep K, and the pair-count bounds built on it.

    The rank is counted from the singular values of the k x n^2 matrix
    Q* K, where Q is the orthonormal basis of span{vec R_k}, which contains
    range(K), that ``compare_nonzero_spectrum`` uses too (k = min(r, n^2)):
    Q Q* K equals K up to round-off, checked by its residual, so
    both have the same singular values. That costs O(r n^4), against O(n^6)
    for an SVD of K. K itself is streamed in column blocks and never
    stored, so memory is O((r + 64) n^2), not the 16 n^4 bytes of K.
    Singular values above ``zero_eig_tol * max(1, sigma_max)`` count.
    """
    _, qh_rep = form._action_range
    sigma = np.linalg.svd(qh_rep, compute_uv=False)
    lower = int(np.count_nonzero(sigma > _rank_cut(sigma[0], form.tol)))
    return HolevoRankBounds(lower=lower, upper=form.r,
                            q_upper_from_rank=_channel_index_bound(form.r))


def sweep_positive_iterate(form: HolevoForm):
    """Definition-level primitivity oracle: scan m = 1 .. r^2 - 2r + 3.

    Returns (primitive, least m) by testing strict positivity directly at
    every m up to the index bound, independent of the stochastic-matrix
    decision path. Every m goes through the public ``strictly_positive_at``,
    which builds that m's iterated-effect table and solves the state masks
    its candidate splits need afresh, so this route shares no table with
    ``channel_primitivity_index``. Intended for cross-checking, not routine
    use.
    """
    for m in range(1, _channel_index_bound(form.r) + 1):
        if strictly_positive_at(form, m).holds:
            return True, m
    return False, None
