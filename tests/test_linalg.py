import numpy as np
import pytest

from ebchan.errors import ValidationError
from ebchan.linalg import (DEFAULT_TOL, Tolerances, as_square, eig_general,
                           eig_hermitian, kernel_psd, vec)
from ebchan.primitivity import _alive_table

E00 = np.array([[1, 0], [0, 0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


def random_psd(rng, n, rank):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T


def test_tolerances_defaults():
    t = Tolerances()
    assert t.psd_tol == 1e-9
    assert t.zero_eig_tol == 1e-8
    assert t.match_tol == 1e-6
    assert t.stochastic_tol == 1e-10


def test_tolerances_reject_negative():
    with pytest.raises(ValueError):
        Tolerances(psd_tol=-1e-9)


@pytest.mark.parametrize("value", [0.0, -0.0])
def test_tolerances_reject_zero_eig_tol_zero(value):
    with pytest.raises(ValidationError, match="zero_eig_tol must be positive"):
        Tolerances(zero_eig_tol=value)
    assert Tolerances(zero_eig_tol=1e-300).zero_eig_tol == 1e-300


@pytest.mark.parametrize("value", [0.0, -0.0])
def test_tolerances_reject_match_tol_zero(value):
    # round-off alone separates equal eigenvalues, so a zero match distance pairs none
    with pytest.raises(ValidationError, match="match_tol must be positive"):
        Tolerances(match_tol=value)
    assert Tolerances(match_tol=1e-300).match_tol == 1e-300


@pytest.mark.parametrize("name", ["psd_tol", "zero_eig_tol", "match_tol", "stochastic_tol"])
def test_tolerances_reject_relative_cuts_of_one_or_more(name):
    # both cuts scale with max(1, lambda_max): at 1 no matrix would count as PD;
    # match_tol pairs eigenvalues of the closed unit disk: at 1 it tells almost none apart;
    # stochastic_tol is also the zero-effect cut: at 1 every POVM effect would be zero
    for value in (1.0, 2.5):
        with pytest.raises(ValidationError, match=f"{name} must be below 1"):
            Tolerances(**{name: value})
    assert getattr(Tolerances(**{name: 0.5}), name) == 0.5


def test_as_square_rejects_nan_and_shape():
    with pytest.raises(ValueError):
        as_square([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError, match="^matrix must be 2-D, got ndim=1$"):
        as_square([1, 2, 3])


def test_eig_hermitian_identity():
    w, v = eig_hermitian(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0])
    np.testing.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-12)


def test_eig_hermitian_rank_one_projection():
    w, _ = eig_hermitian(PLUS)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)


def test_eig_hermitian_reconstruction():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 4)
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) <= 0)
    scale = 1.0 + np.max(np.abs(h))
    assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10 * scale


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="^matrix is not Hermitian: max "):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_kernel_psd_zero_matrix():
    basis = kernel_psd(np.zeros((2, 2)))
    assert basis.shape == (2, 2)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_kernel_psd_full_rank_empty():
    assert kernel_psd(np.eye(3)).shape == (3, 0)


def test_kernel_psd_projection_complement():
    basis = kernel_psd(E00)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) < 1e-12


def test_kernel_psd_rejects_indefinite():
    with pytest.raises(ValidationError, match="^kernel_psd requires a PSD input"):
        kernel_psd(np.diag([1.0, -1.0]))


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def subset_test_finds_kernel(h):
    """The subset kernel test on the one-matrix stack of h's Hermitian part."""
    return bool(_alive_table(((h + h.conj().T) / 2)[None], DEFAULT_TOL)[1])


def test_kernel_dimension_agrees_with_kernel_basis():
    rng = np.random.default_rng(4)
    # full rank, deficient rank, and eigenvalues on both sides of the zero cut
    # zero_eig_tol * max(1, lambda_max): 3e-8 for lambda_max = 3, 1e-8 below 1
    spectra = [[3.0, 2.0, 1.0, 0.5], [3.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0],
               [3.0, 1.0, 3.1e-8, 2.9e-8], [0.5, 0.2, 1.02e-8, 0.98e-8]]
    for eigs in spectra:
        u = random_unitary(rng, len(eigs))
        h = u @ np.diag(eigs) @ u.conj().T
        dim = kernel_psd(h).shape[1]
        assert dim == sum(e < 1e-8 * max(1.0, eigs[0]) for e in eigs)
        assert subset_test_finds_kernel(h) == (dim > 0)
    for rank in range(6):
        h = random_psd(rng, 5, rank) if rank else np.zeros((5, 5))
        assert kernel_psd(h).shape[1] == 5 - rank
        assert subset_test_finds_kernel(h) == (rank < 5)


@pytest.mark.parametrize("lowest", [-1.0, -1e-6])
def test_both_kernel_routes_reject_indefinite(lowest):
    u = random_unitary(np.random.default_rng(5), 3)
    h = u @ np.diag([1.0, 0.5, lowest]) @ u.conj().T
    with pytest.raises(ValidationError, match="kernel_psd"):
        kernel_psd(h)
    with pytest.raises(ValidationError, match="subset kernel test"):
        subset_test_finds_kernel(h)


def test_kernel_vectors_are_annihilated():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_psd(rng, 5, rank=int(rng.integers(1, 5)))
        lam_max = eig_hermitian(h)[0][0]
        basis = kernel_psd(h)
        if basis.shape[1] == 0:
            continue
        assert np.max(np.abs(h @ basis)) <= 10 * DEFAULT_TOL.zero_eig_tol * max(1.0, lam_max)


def test_kernel_of_sum_is_kernel_intersection():
    # for PSD parts, ker(H1 + H2) = ker H1 intersect ker H2
    rng = np.random.default_rng(2)
    for _ in range(25):
        h1 = random_psd(rng, 4, rank=int(rng.integers(1, 4)))
        h2 = random_psd(rng, 4, rank=int(rng.integers(1, 4)))
        k1 = kernel_psd(h1)
        k2 = kernel_psd(h2)
        joint = kernel_psd(h1 + h2)
        # dim(U cap V) = dim U + dim V - dim(U + V)
        stacked = np.hstack([k1, k2])
        dim_sum = np.linalg.matrix_rank(stacked, tol=1e-8) if stacked.size else 0
        expected = k1.shape[1] + k2.shape[1] - dim_sum
        assert joint.shape[1] == expected
        for v in joint.T:
            assert np.linalg.norm(h1 @ v) <= 1e-7
            assert np.linalg.norm(h2 @ v) <= 1e-7


def test_eig_general_identity_and_nilpotent():
    np.testing.assert_allclose(sorted(eig_general(np.eye(3)).real), [1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(np.abs(eig_general(np.array([[0, 1], [0, 0]]))), 0, atol=1e-12)


def test_eig_general_doubly_stochastic_example():
    vals = sorted(eig_general(np.full((2, 2), 0.5)).real)
    np.testing.assert_allclose(vals, [0.0, 1.0], atol=1e-12)


def test_eig_general_trace_and_det_consistency():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vals = eig_general(m)
        scale = 1.0 + np.max(np.abs(m))
        assert abs(vals.sum() - np.trace(m)) <= 1e-8 * scale
        assert abs(np.prod(vals) - np.linalg.det(m)) <= 1e-8 * (1.0 + abs(np.linalg.det(m)))


def test_eig_general_matches_hermitian_path():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 5)
    general = np.sort(eig_general(h).real)
    hermitian = np.sort(eig_hermitian(h)[0])
    np.testing.assert_allclose(general, hermitian, atol=DEFAULT_TOL.match_tol)


def test_vec_basis_and_identity():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_array_equal(vec(e01), [0, 1, 0, 0])
    np.testing.assert_array_equal(vec(np.eye(2)), [1, 0, 0, 1])


def test_vec_linear_and_invertible():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    n_ = rng.standard_normal((3, 3))
    np.testing.assert_allclose(vec(2 * m + 3 * n_), 2 * vec(m) + 3 * vec(n_), atol=1e-12)
    np.testing.assert_array_equal(vec(m).reshape(3, 3), m)
