"""The range route for the channel's spectrum and rank against the dense route.

``compare_nonzero_spectrum`` and ``holevo_rank_bounds`` read the natural rep
K through an orthonormal basis of its range. The reference here is the dense
computation they replaced: a general eig of K and an SVD of K.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ebchan import channel
from ebchan.channel import (_pair_distance, _range_basis, compare_nonzero_spectrum,
                            depolarizing, factorization, make_holevo_form, map_to_diagonal,
                            natural_rep)
from ebchan.checks import run_channel_checks
from ebchan.cli import analyze_form, report_inconsistencies
from ebchan.errors import ConsistencyError
from ebchan.linalg import DEFAULT_TOL, eig_general
from ebchan.primitivity import holevo_rank_bounds
from ebchan.sampling import random_channel, random_holevo_form

PAIR_TOL = 1e-10


def dense_reference(form, tol=DEFAULT_TOL):
    """Nonzero eigenvalues of K from a dense eig, and the rank of K from a dense SVD."""
    rep = natural_rep(form)
    lam = eig_general(rep)
    sigma = np.linalg.svd(rep, compute_uv=False)
    rank = int(np.count_nonzero(sigma > tol.zero_eig_tol * max(1.0, float(sigma[0]))))
    return lam[np.abs(lam) >= tol.zero_eig_tol], rank


def assert_matches_dense(form):
    dense_nz, dense_rank = dense_reference(form)
    spec = compare_nonzero_spectrum(form)
    assert spec.channel_nonzero.size == dense_nz.size
    assert _pair_distance(spec.channel_nonzero, dense_nz) <= PAIR_TOL
    assert holevo_rank_bounds(form).lower == dense_rank
    return spec


def duplicated_pair_form(rng, n, r):
    """Form whose first pair is split in two equal halves: r + 1 pairs, rank <= r."""
    base = random_holevo_form(rng, n, r)
    (f, rho), *rest = zip(base.effects, base.states)
    return make_holevo_form(n, [(f / 2, rho), (f / 2, rho)] + rest)


def shared_state_form(rng, n, r):
    """Form whose first two pairs steer to the same state: rank <= r - 1."""
    base = random_holevo_form(rng, n, r)
    pairs = list(zip(base.effects, base.states))
    pairs[1] = (pairs[1][0], pairs[0][1])
    return make_holevo_form(n, pairs)


def projective_flip(n):
    """Measure in the Fourier basis, prepare the computational basis state."""
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    pairs = []
    for k in range(n):
        f = np.outer(fourier[:, k], fourier[:, k].conj())
        proj = np.zeros((n, n), dtype=complex)
        proj[k, k] = 1.0
        pairs.append((f, proj))
    return make_holevo_form(n, pairs)


def test_random_channels_match_dense():
    rng = np.random.default_rng(2011)
    for _ in range(240):
        n = int(rng.integers(4, 7))
        r = int(rng.integers(1, n + 2))
        form = random_channel(rng, n, r)
        assert_matches_dense(form)
        q, _ = form._action_range
        assert q.shape == (n * n, r)


@pytest.mark.parametrize("build", [duplicated_pair_form, shared_state_form])
def test_rank_deficient_forms_match_dense(build):
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(4, 7))
        r = int(rng.integers(2, n + 2))
        form = build(rng, n, r)
        spec = assert_matches_dense(form)
        assert holevo_rank_bounds(form).lower < form.r
        assert spec.matched


@pytest.mark.parametrize("n", [4, 5, 6])
def test_named_channels_match_dense(n):
    for form, rank in ((map_to_diagonal(n), n), (depolarizing(n), 1), (projective_flip(n), n)):
        spec = assert_matches_dense(form)
        assert spec.matched
        assert holevo_rank_bounds(form).lower == rank


def test_range_is_computed_once_per_form():
    form = random_holevo_form(np.random.default_rng(7), 5, 3)
    first = form._action_range
    compare_nonzero_spectrum(form)
    holevo_rank_bounds(form)
    assert form._action_range is first


def test_failed_residual_check_raises(monkeypatch):
    # a negative bound fails every check, and the pass ends in the raise
    monkeypatch.setattr(channel, "_RANGE_RESIDUAL", -1.0)
    form = random_holevo_form(np.random.default_rng(5), 6, 6)
    with pytest.raises(ConsistencyError, match=r"^the channel's action leaves the span of "
                                               r"its states: max \|K - Q Q\* K\| = \d"):
        _range_basis(form)


def test_full_rank_matrix_takes_the_range_route():
    # n = 3, r = 9: K is 9 x 9 of full rank, and Q is still the QR basis of the states
    form = random_holevo_form(np.random.default_rng(6), 3, 9)
    rep = natural_rep(form)
    assert np.linalg.matrix_rank(rep) == 9
    q, qh_rep = _range_basis(form)
    assert np.array_equal(q, np.linalg.qr(factorization(form)[0])[0])
    assert np.max(np.abs(q @ qh_rep - rep)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 1, 3])
def test_forms_with_r_at_least_n_squared_match_dense(n, extra):
    # r >= n^2: Q is a square unitary, the QR basis of the n^2-dimensional state span
    r = n * n + extra
    rng = np.random.default_rng(10 * n + extra)
    forms = [random_holevo_form(rng, n, r)]
    if r >= 2:
        forms += [duplicated_pair_form(rng, n, r - 1), shared_state_form(rng, n, r)]
    for form in forms:
        assert form.r == r
        q, _ = form._action_range
        assert q.shape == (n * n, n * n)
        assert np.max(np.abs(q.conj().T @ q - np.eye(n * n))) <= 1e-12
        assert_matches_dense(form)


@pytest.mark.parametrize("n, r", [(1, 1), (1, 3), (2, 3), (2, 5), (3, 4), (3, 9)])
def test_commands_never_build_the_natural_rep(monkeypatch, n, r):
    def forbidden(form):
        raise AssertionError("natural_rep called")

    monkeypatch.setattr(channel, "natural_rep", forbidden)
    form = random_holevo_form(np.random.default_rng(n * r), n, r)
    report = analyze_form(form)
    assert not report_inconsistencies(report)
    assert report.holevo_rank_bounds.lower == min(r, n * n)
    assert all(res.ok for res in run_channel_checks(form))


def test_only_channel_names_natural_rep():
    package = Path(channel.__file__).parent
    naming = sorted(path.name for path in package.glob("*.py")
                    if "natural_rep" in path.read_text())
    assert naming == ["channel.py"]


def test_range_basis_spans_the_states(monkeypatch):
    # Q is an orthonormal basis of span{vec R_k}; K is read once, column by column
    form = random_holevo_form(np.random.default_rng(8), 4, 3)
    units = []
    apply_linear = channel.apply_linear

    def counting(form, x):
        units.append(np.flatnonzero(x).tolist())
        return apply_linear(form, x)

    monkeypatch.setattr(channel, "apply_linear", counting)
    q, qh_rep = _range_basis(form)
    assert q.shape == (16, 3) and qh_rep.shape == (3, 16)
    assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
    for state in form.states:
        assert np.allclose(q @ (q.conj().T @ state.reshape(-1)), state.reshape(-1), atol=1e-12)
    assert units == [[k] for k in range(16)]  # the n^2 matrix units, no other operand


def test_range_never_holds_the_natural_rep():
    n = 24
    form = random_holevo_form(np.random.default_rng(24), n, 4)
    tracemalloc.start()
    try:
        form._action_range
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n ** 4 / 4  # K alone takes 16 n^4 bytes, 5.3 MB here


def test_natural_rep_applies_the_channel_once_per_matrix_unit(monkeypatch):
    # K must come from the channel's action, not from the factors A and B:
    # n^2 calls, call k on the single matrix unit with its 1 at flat index k
    operands = []
    apply_linear = channel.apply_linear

    def counting(form, x):
        operands.append(np.array(x))
        return apply_linear(form, x)

    monkeypatch.setattr(channel, "apply_linear", counting)
    for n in (4, 9):
        del operands[:]
        natural_rep(random_holevo_form(np.random.default_rng(9), n, 3))
        units = np.eye(n * n).reshape(n * n, n, n)
        assert len(operands) == n * n
        assert np.array_equal(np.array(operands), units)


def test_natural_rep_holds_one_block_of_temporaries():
    # K plus one n^2 x 64 block: a single (n^2, n, n) stack of units would hold about 5 K
    n = 24
    form = random_holevo_form(np.random.default_rng(25), n, 4)
    tracemalloc.start()
    try:
        natural_rep(form)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * n ** 4  # K alone takes 16 n^4 bytes, 5.3 MB here
