"""Entanglement breaking channels given as (effect, state) pair lists.

A channel here is a finite list of pairs (F_k, R_k) with the F_k forming a
POVM and each R_k a density matrix; it acts as

    rho  ->  sum_k  tr(F_k rho) R_k.

The module builds the three matrix pictures of such a channel (the n^2 x n^2
linear-action matrix, the tall/flat factorization A, B and the induced
r x r column-stochastic matrix), iterates the channel, computes fixed
points, and checks the nonzero-spectrum agreement between the channel and
its stochastic matrix.
"""

from __future__ import annotations

__all__ = [
    "FixedPoint", "HolevoForm", "SpectrumComparison", "apply_linear",
    "compare_nonzero_spectrum", "depolarizing", "factorization", "fixed_point",
    "holevo_from_rank_one_kraus", "iterated_form", "make_holevo_form",
    "map_to_diagonal", "natural_rep", "qc_from_stochastic", "require_density",
    "stochastic_rep",
]

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .linalg import DEFAULT_TOL, Tolerances, _rank_cut, as_square, eig_general, eig_hermitian
from .stochastic import _solve_stationary, make_stochastic


@dataclass(frozen=True, eq=False)
class HolevoForm:
    """Validated channel data: system dimension plus the effect and state stacks.

    Construct through :func:`make_holevo_form`. Pair k is
    (``effects[k]``, ``states[k]``); both fields are read-only complex
    arrays of shape (r, n, n), so every contraction over the pair index runs
    on them as they are, and code that wants pairs zips them. Both stacks,
    and every subset sum of them in any order of addition (such as
    ``stack[members].sum(axis=0)``, or the highest-index-first running sums
    of ``primitivity._alive_table``), are exactly Hermitian
    (``np.array_equal(a, a.conj().swapaxes(-1, -2))``): the constructors
    store Hermitian parts (A + A*)/2, and entries (i, j) and (j, i) of a
    sum come from the same additions of conjugate values. Every
    operation on the form is pure. ``tol`` holds the tolerances the form was
    validated under; every analysis of the form reads them and takes none of
    its own. Derived quantities that several analyses
    share are cached on the instance. Forms compare and hash by identity:
    two forms built from equal data are distinct objects with distinct caches.
    """

    n: int
    effects: np.ndarray  # F_k stacked (r, n, n): POVM effects, each PSD, summing to I
    states: np.ndarray   # R_k stacked (r, n, n): density matrices, one per effect
    tol: Tolerances      # the tolerances the pairs were validated under

    @property
    def r(self) -> int:
        return len(self.effects)

    @functools.cached_property
    def _action_range(self):
        """(Q, Q* K) for the natural rep K, computed once per form; see ``_range_basis``.

        range(K) lies in span{vec R_k}, so Q is an orthonormal basis of the
        vectorized states and K is streamed in column blocks, never held whole.
        """
        return _range_basis(self)

    @functools.cached_property
    def _stochastic(self):
        """Validated, read-only S, computed once per form; see ``stochastic_rep``."""
        return _induced_stochastic(self)


def _hermitian_stack(mats):
    """Read-only complex stack of the Hermitian parts (A + A*)/2 of ``mats``.

    Bitwise ``mats`` when that is exactly Hermitian; else each entry moves by
    at most half the Hermitian defect of its matrix.
    """
    arr = np.asarray(mats, dtype=np.complex128)
    out = (arr + arr.conj().swapaxes(-1, -2)) / 2.0
    out.setflags(write=False)
    return out


def _require_psd(m, n, tol: Tolerances, name):
    """Validate a PSD matrix of outside input; return it and its descending eigenvalues.

    ValidationError if it is not square or not n x n (n None skips that),
    not Hermitian, or has lambda_min < -psd_tol * max(1, lambda_max).
    """
    arr = as_square(m, name)
    if n is not None and arr.shape[0] != n:
        raise ValidationError(f"{name} must be {n}x{n}, got {arr.shape[0]}x{arr.shape[1]}")
    try:
        w, _ = eig_hermitian(arr, tol)
    except ValidationError as exc:
        raise ValidationError(f"{name} is not Hermitian: {exc}") from exc
    if w[-1] < -tol.psd_tol * max(1.0, w[0]):
        raise ValidationError(f"{name} is not PSD: lambda_min = {w[-1]:.3e}")
    return arr, w


def require_density(rho, n=None, tol: Tolerances = DEFAULT_TOL, name="rho"):
    """Validate a density matrix (PSD, unit trace) and return it as an array."""
    arr, _ = _require_psd(rho, n, tol, name)
    trace = complex(np.trace(arr))
    if abs(trace - 1.0) > tol.stochastic_tol:
        raise ValidationError(f"{name} has trace {trace}, expected 1")
    return arr


def make_holevo_form(n, pairs, tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    """Validate (F_k, R_k) pairs and assemble the channel.

    Checks, in order: shapes, each F_k PSD and nonzero, each R_k a density
    matrix, and POVM closure sum_k F_k = I within ``stochastic_tol``. The
    form holds the Hermitian parts of the validated matrices.
    """
    n = int(n)
    if n < 1:
        raise ValidationError(f"system dimension must be positive, got {n}")
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("a channel needs at least one (F, R) pair")

    effects, states = [], []
    for k, (f, r) in enumerate(pairs):
        f, w = _require_psd(f, n, tol, f"F[{k}]")
        if w[0] <= tol.stochastic_tol:
            raise ValidationError(f"F[{k}] is numerically zero")
        effects.append(f)
        states.append(require_density(r, n, tol, name=f"R[{k}]"))

    closure = sum(effects) - np.eye(n)
    defect = float(np.max(np.abs(closure)))
    if defect > tol.stochastic_tol:
        raise ValidationError(f"effects sum to I only within {defect:.3e}, tolerance "
                      f"{tol.stochastic_tol:.1e}")
    return HolevoForm(n=n, effects=_hermitian_stack(effects),
                      states=_hermitian_stack(states), tol=tol)


# ---------------------------------------------------------------------------
# channel action and matrix pictures

def apply_linear(form: HolevoForm, x):
    """Linear extension of the channel to square matrices, one or a stack.

    ``x`` is one n x n matrix or a stack of shape (..., n, n); the result
    has the shape of ``x`` and holds the channel applied to each trailing
    n x n matrix. Raises ValidationError when ``x`` has fewer than two
    axes, a trailing shape other than (n, n), or NaN or infinite entries.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-2:] != (form.n, form.n):
        raise ValidationError(f"operand must be {form.n}x{form.n} or a stack of them, "
                                f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("x contains NaN or infinite entries")
    out = np.zeros(x.shape, dtype=np.complex128)
    xt = np.swapaxes(x, -2, -1)
    for f, r in zip(form.effects, form.states):
        out += np.sum(f * xt, axis=(-2, -1))[..., None, None] * r  # tr(F_k X) in O(n^2)
    return out


_REP_BLOCK = 64  # columns of the natural rep per block


def _rep_blocks(form: HolevoForm):
    """The natural rep in blocks of ``_REP_BLOCK`` columns: yields (first column, block).

    Column i * n + j is vec(channel(E_ij)), one ``apply_linear`` call per
    matrix unit; this is the one loop that reads K. Every block is a view
    of one n^2 x _REP_BLOCK buffer that the next block overwrites, so a
    caller uses each block before taking the next, and may overwrite it.
    Fresh blocks, residual in one expression: same output, but Gaussian
    n = 32, r = 8 analyses took 0.5-1.5 MB more max RSS and were slower on 5
    of 6 (93-153 -> 99-162 ms; 3 alternating runs, shared 2-CPU host).
    """
    n = form.n
    dim = n * n
    buffer = np.empty((dim, min(_REP_BLOCK, dim)), dtype=np.complex128)
    unit = np.zeros((n, n), dtype=np.complex128)
    flat = unit.reshape(-1)  # a view: flat[i * n + j] is unit[i, j]
    for start in range(0, dim, _REP_BLOCK):
        block = buffer[:, :min(_REP_BLOCK, dim - start)]
        for col in range(block.shape[1]):
            flat[start + col] = 1.0
            block[:, col] = apply_linear(form, unit).reshape(-1)
            flat[start + col] = 0.0
        yield start, block


def natural_rep(form: HolevoForm):
    """n^2 x n^2 matrix of the channel on row-major vectorized operators.

    Column (i, j) is the vectorized image of the matrix unit E_ij, so
    ``vec(channel(X)) == natural_rep @ vec(X)`` for every X. K is filled
    from the column blocks of ``_rep_blocks``, one ``apply_linear`` call
    per matrix unit, so the memory held is K plus one block. No command
    builds K: ``analyze`` and ``run_channel_checks`` read it through the
    range (Q, Q* K) that ``_range_basis`` streams from the same blocks.
    """
    dim = form.n * form.n
    rep = np.empty((dim, dim), dtype=np.complex128)
    for start, block in _rep_blocks(form):
        rep[:, start:start + block.shape[1]] = block
    return rep


def factorization(form: HolevoForm):
    """Tall/flat factors (A, B): column k of A is vec(R_k), row k of B is vec(F_k^T).

    A @ B reproduces the linear-action matrix and B @ A the stochastic
    matrix of the form. Both are reshapes of the stacks; A is a read-only
    view of the state stack.
    """
    r, dim = form.r, form.n * form.n
    a = form.states.reshape(r, dim).T
    b = form.effects.transpose(0, 2, 1).reshape(r, dim)
    return a, b


def stochastic_rep(form: HolevoForm):
    """Induced r x r column-stochastic matrix with entries tr(F_i R_j).

    Computed once per form, under the form's tolerances; every call after
    the first returns the same read-only array.
    """
    return form._stochastic


def _induced_stochastic(form: HolevoForm):
    s = np.einsum("iab,jba->ij", form.effects, form.states).real
    try:
        return make_stochastic(s, form.tol)
    except ValidationError as exc:
        raise ValidationError(f"induced matrix is not column-stochastic "
                                 f"(corrupted form?): {exc}") from exc


def iterated_form(form: HolevoForm, m: int) -> HolevoForm:
    """Holevo form of the m-th iterate: effects sum_j (S^{m-1})_{kj} F_j, states unchanged.

    S^{m-1} is taken with ``np.linalg.matrix_power``. The derived effects
    are PSD and sum to the identity, but individual ones may vanish when
    S^{m-1} has a zero row, so this constructor bypasses the zero-effect
    check that applies to externally supplied forms. It stores the Hermitian
    parts of the derived effects and shares ``form``'s states and tolerances.
    """
    if m < 1:
        raise ValidationError(f"iteration count must be >= 1, got {m}")
    if m == 1:
        return form
    power = np.linalg.matrix_power(stochastic_rep(form), m - 1)
    effects = np.einsum("kj,jab->kab", power, form.effects)
    return HolevoForm(form.n, _hermitian_stack(effects), form.states, form.tol)


@dataclass(frozen=True)
class FixedPoint:
    """A stationary density matrix of the channel.

    ``unique`` is False when the eigenvalue-1 eigenspace of the stochastic
    matrix has dimension above one, in which case other fixed points exist.
    ``residual`` is the max-entry norm of channel(rho) - rho.
    """

    rho: np.ndarray
    residual: float
    unique: bool


def fixed_point(form: HolevoForm) -> FixedPoint:
    """Density-matrix fixed point sum_k pi_k R_k from a stationary pi of S."""
    pi, unique = _solve_stationary(stochastic_rep(form), form.tol)  # S is validated once
    rho = sum(p * r for p, r in zip(pi, form.states))
    rho.setflags(write=False)
    residual = float(np.max(np.abs(apply_linear(form, rho) - rho)))
    return FixedPoint(rho=rho, unique=unique, residual=residual)


# ---------------------------------------------------------------------------
# spectrum comparison

@dataclass(frozen=True)
class SpectrumComparison:
    """Nonzero spectra of channel and S; ``max_pair_distance`` is their bottleneck distance."""

    channel_nonzero: np.ndarray
    matrix_nonzero: np.ndarray
    max_pair_distance: float
    matched: bool


# The residual bound is relative to max(1, max |K|) and sits far below the
# default zero_eig_tol, so no eigenvalue or singular value that counts is lost.
_RANGE_RESIDUAL = 1e-12


def _range_basis(form: HolevoForm):
    """Orthonormal basis Q of the range of the natural rep K, and Q* K.

    Every output of the channel is a combination of the states, so range(K)
    lies in span{vec R_k}: Q comes from the reduced QR of the n^2 x r factor
    A, whose columns are the vectorized states, and has min(r, n^2) columns.
    K is still taken from the channel's action, never as A B: one pass over
    its column blocks (``_rep_blocks``) fills Q* K and checks max |K - Q (Q*
    K)| <= _RANGE_RESIDUAL * max(1, max |K|). K is never held whole; Q and
    Q* K hold min(r, n^2) n^2 entries each, no more than the state stack.
    A failed check means the action left the span of its states, which no
    valid form does, and raises ConsistencyError.
    """
    dim = form.n * form.n
    q, _ = np.linalg.qr(factorization(form)[0])
    qh_rep = np.empty((q.shape[1], dim), dtype=np.complex128)
    worst, top = 0.0, 0.0
    for start, block in _rep_blocks(form):
        qh_block = qh_rep[:, start:start + block.shape[1]]
        qh_block[...] = q.conj().T @ block
        top = max(top, float(np.max(np.abs(block))))
        for row in range(0, dim, _REP_BLOCK):  # block -= Q (Q* block) in place, see _rep_blocks
            block[row:row + _REP_BLOCK] -= q[row:row + _REP_BLOCK] @ qh_block
        worst = max(worst, float(np.max(np.abs(block))))
    if worst > _RANGE_RESIDUAL * max(1.0, top):
        raise ConsistencyError("the channel's action leaves the span of its states: "
                               f"max |K - Q Q* K| = {worst:.3e}")
    return q, qh_rep


def _pairs_within(allowed):
    """Whether each row of the boolean matrix ``allowed`` gets its own column.

    Kuhn's augmenting paths, searched breadth-first, so no recursion deepens with size.
    """
    adjacent = [np.flatnonzero(row).tolist() for row in allowed]
    owner, held = {}, {}  # row holding each column, column held by each row
    for root in range(len(adjacent)):
        via, queue = {}, [root]  # via: row that reached each column
        for row in queue:  # the queue grows while it is walked
            fresh = [col for col in adjacent[row] if col not in via]
            via.update(dict.fromkeys(fresh, row))
            free = next((col for col in fresh if col not in owner), None)
            if free is not None:
                break
            queue.extend(owner[col] for col in fresh)
        else:
            return False
        while free is not None:  # flip the path back to the root
            row = via[free]
            owner[free], held[row], free = row, free, held.get(row)
    return True


def _pair_distance(a, b):
    """Bottleneck distance between two complex multisets.

    The least d such that each element of the smaller multiset pairs with its
    own element of the other within d; infinite when exactly one is empty.
    The thresholds are the sorted distinct |a_i - b_j|. The search starts at
    the largest nearest-partner distance of the smaller side, which no pairing
    beats and matched spectra attain, and bisects from there (Gabow & Tarjan,
    "Algorithms for two bottleneck optimization problems", J. Algorithms 1988).
    """
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else float("inf")
    if a.size > b.size:
        a, b = b, a
    cost = np.abs(a[:, None] - b[None, :])
    levels = np.sort(cost, axis=None)
    levels = levels[np.concatenate(([True], levels[1:] != levels[:-1]))]  # distinct
    mid = lo = int(np.searchsorted(levels, cost.min(axis=1).max()))
    hi = levels.size - 1  # every row reaches every column there
    while lo < hi:
        if _pairs_within(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return float(levels[hi])


def compare_nonzero_spectrum(form: HolevoForm) -> SpectrumComparison:
    """Check that channel and stochastic matrix share their nonzero spectrum.

    The channel side never runs a dense eig of the n^2 x n^2 natural rep K.
    range(K) lies in span{vec R_k}, so the nonzero eigenvalues of K are those
    of the k x k compression (Q* K) Q, where Q is an orthonormal basis of the
    vectorized states, checked against K by its residual (``_range_basis``;
    k = min(r, n^2)). Streaming K's columns through Q costs O(r n^4),
    against O(n^6) for the dense eig, and K is read in blocks of 64
    columns, never stored whole. The stochastic side is the r x r eig of
    S, so the two routes stay independent. Eigenvalues with modulus below
    ``zero_eig_tol`` are discarded on both sides; ``max_pair_distance`` is
    the bottleneck distance of the remainders, the least d under which they
    pair up one to one (``_pair_distance``).
    """
    q, qh_rep = form._action_range
    lam_chan = eig_general(qh_rep @ q)
    lam_mat = eig_general(stochastic_rep(form)).astype(np.complex128)
    chan_nz = lam_chan[np.abs(lam_chan) >= form.tol.zero_eig_tol]
    mat_nz = lam_mat[np.abs(lam_mat) >= form.tol.zero_eig_tol]
    dist = _pair_distance(chan_nz, mat_nz)
    matched = chan_nz.size == mat_nz.size and dist <= form.tol.match_tol
    return SpectrumComparison(channel_nonzero=chan_nz, matrix_nonzero=mat_nz,
                              max_pair_distance=dist, matched=matched)


# ---------------------------------------------------------------------------
# builders

def depolarizing(n: int) -> HolevoForm:
    """Channel sending every state to I/n, as the single pair (I, I/n)."""
    eye = np.eye(n, dtype=np.complex128)
    return make_holevo_form(n, [(eye, eye / n)])


def map_to_diagonal(n: int) -> HolevoForm:
    """Channel zeroing all off-diagonal entries: pairs (|k><k|, |k><k|)."""
    return qc_from_stochastic(np.eye(n))


def qc_from_stochastic(s, tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    """Quantum-classical channel whose induced stochastic matrix is exactly ``s``.

    Effect k is the diagonal matrix holding row k of ``s``; state k is the
    basis projection |k><k|.
    """
    try:
        arr = make_stochastic(s, tol)
    except ValidationError as exc:
        raise ValidationError(f"not a column-stochastic matrix: {exc}") from exc
    n = arr.shape[0]
    pairs = []
    for k in range(n):
        proj = np.zeros((n, n), dtype=np.complex128)
        proj[k, k] = 1.0
        pairs.append((np.diag(arr[k].astype(np.complex128)), proj))
    return make_holevo_form(n, pairs, tol)


def holevo_from_rank_one_kraus(operators, tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    """Build the pair form from rank-one operators V_k = |a_k><b_k|.

    Pair k is (V_k* V_k, V_k V_k* / tr(V_k V_k*)); the operators must each
    have numerical rank one and satisfy sum_k V_k* V_k = I.
    """
    ops = [as_square(v, f"V[{k}]") for k, v in enumerate(operators)]
    if not ops:
        raise ValidationError("need at least one operator")
    n = ops[0].shape[0]
    pairs = []
    for k, v in enumerate(ops):
        if v.shape[0] != n:
            raise ValidationError(f"V[{k}] must be {n}x{n}, got {v.shape}")
        sigma = np.linalg.svd(v, compute_uv=False)
        rank = int(np.count_nonzero(sigma > _rank_cut(sigma[0], tol)))
        if rank != 1:
            raise ValidationError(f"V[{k}] has numerical rank {rank}, expected 1")
        gram = v.conj().T @ v
        image = v @ v.conj().T
        pairs.append((gram, image / np.trace(image).real))
    closure = sum(f for f, _ in pairs) - np.eye(n)
    defect = float(np.max(np.abs(closure)))
    if defect > tol.stochastic_tol:
        raise ValidationError(f"sum_k V_k* V_k differs from I by {defect:.3e}")
    return make_holevo_form(n, pairs, tol)
