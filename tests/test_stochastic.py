import numpy as np
import pytest

from ebchan.errors import ValidationError
from ebchan.linalg import DEFAULT_TOL
from ebchan.sampling import random_stochastic, wielandt_matrix
from ebchan.stochastic import (_solve_stationary, make_stochastic, primitivity_index,
                               wielandt_bound)

DOUBLY = np.full((2, 2), 0.5)
THREE = np.array([[0.5, 0.5, 0.0],
                  [0.0, 0.0, 0.5],
                  [0.5, 0.5, 0.5]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def bool_power(s, m):
    # independent zero-pattern oracle for tests
    p = (np.asarray(s) > 1e-10).astype(int)
    out = np.eye(p.shape[0], dtype=int)
    for _ in range(m):
        out = ((out @ p) > 0).astype(int)
    return out


def stationary(s):
    return _solve_stationary(make_stochastic(s), DEFAULT_TOL)


def test_make_stochastic_accepts_examples():
    np.testing.assert_array_equal(make_stochastic(DOUBLY), DOUBLY)
    np.testing.assert_array_equal(make_stochastic(THREE), THREE)


def test_make_stochastic_column_sum_violation():
    with pytest.raises(ValidationError, match=r"^column 0 sums to .*, off by 1\.000e-01$"):
        make_stochastic([[1.0, 0.0], [0.1, 1.0]])


def test_make_stochastic_clamps_roundoff_negatives():
    s = make_stochastic([[1.0 + 5e-11, 1.0], [-5e-11, 0.0]])
    assert s[1, 0] == 0.0
    with pytest.raises(ValidationError, match=r"^entry \(1,0\) = -1\.000e-03 is negative "):
        make_stochastic([[1.001, 1.0], [-0.001, 0.0]])


def test_make_stochastic_result_read_only():
    s = make_stochastic(DOUBLY)
    with pytest.raises(ValueError):
        s[0, 0] = 0.3


def test_is_primitive_examples():
    assert primitivity_index(DOUBLY).primitive
    assert not primitivity_index(np.eye(3)).primitive
    assert not primitivity_index(SWAP).primitive


def test_primitivity_index_examples():
    one = primitivity_index(DOUBLY)
    assert one.primitive and one.index == 1
    two = primitivity_index(THREE)
    assert two.primitive and two.index == 2
    swap = primitivity_index(SWAP)
    assert not swap.primitive and swap.index is None


def test_wielandt_bound_values():
    assert wielandt_bound(2) == 2
    assert wielandt_bound(3) == 5
    assert wielandt_bound(1) == 1
    with pytest.raises(ValueError):
        wielandt_bound(0)


def test_wielandt_matrix_attains_bound():
    for r in range(2, 7):
        verdict = primitivity_index(wielandt_matrix(r))
        assert verdict.primitive
        assert verdict.index == wielandt_bound(r)


def test_index_is_minimal():
    rng = np.random.default_rng(10)
    seen_ge2 = 0
    for _ in range(60):
        r = int(rng.integers(2, 7))
        s = random_stochastic(rng, r, zero_fraction=float(rng.uniform(0.3, 0.7)))
        verdict = primitivity_index(s)
        if not verdict.primitive:
            continue
        assert bool_power(s, verdict.index).all()
        assert verdict.index <= wielandt_bound(r)
        if verdict.index >= 2:
            seen_ge2 += 1
            assert not bool_power(s, verdict.index - 1).all()
    assert seen_ge2 > 0


def test_primitive_power_spreads_support():
    # a primitive matrix at its index maps nonnegative nonzero vectors to positive ones
    rng = np.random.default_rng(11)
    for _ in range(30):
        r = int(rng.integers(2, 7))
        s = random_stochastic(rng, r, zero_fraction=0.5)
        verdict = primitivity_index(s)
        if not verdict.primitive:
            continue
        power = np.linalg.matrix_power(s, verdict.index)
        x = np.zeros(r)
        x[rng.integers(r)] = rng.uniform(0.5, 2.0)
        assert np.min(power @ x) > 0.0


def test_stationary_distribution_examples():
    pi, unique = stationary(DOUBLY)
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)
    assert unique

    pi3, unique3 = stationary(THREE)
    np.testing.assert_allclose(pi3, [0.25, 0.25, 0.5], atol=1e-12)
    assert unique3

    _, unique_id = stationary(np.eye(2))
    assert not unique_id


def test_stationary_distribution_properties():
    rng = np.random.default_rng(12)
    for _ in range(40):
        r = int(rng.integers(1, 8))
        s = random_stochastic(rng, r, zero_fraction=float(rng.uniform(0.0, 0.6)))
        pi, unique = stationary(s)
        assert np.all(pi >= 0.0)
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(s @ pi - pi)) <= 1e-10
        if primitivity_index(s).primitive:
            assert unique
            assert np.min(pi) > 0.0


def test_power_iteration_reaches_stationary():
    rng = np.random.default_rng(13)
    tested = 0
    for _ in range(25):
        r = int(rng.integers(2, 7))
        s = random_stochastic(rng, r, zero_fraction=0.4)
        if not primitivity_index(s).primitive:
            continue
        tested += 1
        pi, _ = stationary(s)
        cap = 4 * wielandt_bound(r) + 100
        power = np.linalg.matrix_power(s, cap)
        for j in range(r):
            assert np.max(np.abs(power[:, j] - pi)) <= 1e-6
    assert tested > 0
