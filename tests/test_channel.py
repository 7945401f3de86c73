import itertools

import numpy as np
import pytest

from ebchan.channel import (_pair_distance, apply_linear, compare_nonzero_spectrum,
                            depolarizing, factorization, fixed_point,
                            holevo_from_rank_one_kraus, iterated_form,
                            make_holevo_form, map_to_diagonal, natural_rep,
                            qc_from_stochastic, stochastic_rep)
from ebchan.errors import ValidationError
from ebchan.primitivity import channel_primitivity_index
from ebchan.linalg import DEFAULT_TOL, Tolerances, vec
from ebchan.sampling import random_density, random_holevo_form

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


def example_one():
    # projective x-basis measurement steering to the z-basis states
    return make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])


def example_two():
    # three-effect form of the completely depolarizing channel
    return make_holevo_form(2, [(0.5 * E00, E00), (0.5 * E11, E00), (0.5 * IDENT, E11)])


# --- construction ---

def test_make_holevo_form_examples():
    assert example_one().r == 2
    assert depolarizing(2).r == 1


def test_make_holevo_form_rejects_zero_effect():
    with pytest.raises(ValidationError, match=r"^F\[0\] is numerically zero$"):
        make_holevo_form(2, [(np.zeros((2, 2)), E00), (IDENT, E11)])


def test_make_holevo_form_rejects_broken_povm():
    with pytest.raises(ValidationError, match="effects sum to I only within"):
        make_holevo_form(2, [(0.9 * IDENT, E00)])


def test_make_holevo_form_rejects_bad_density():
    with pytest.raises(ValidationError, match=r"^R\[1\] has trace .*, expected 1$"):
        make_holevo_form(2, [(0.5 * IDENT, E00), (0.5 * IDENT, 0.9 * E11)])
    with pytest.raises(ValidationError, match=r"^R\[0\] is not PSD: lambda_min = "):
        make_holevo_form(2, [(IDENT, np.array([[1.5, 0], [0, -0.5]]))])


def test_make_holevo_form_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match=r"^F\[0\] must be 2x2, got 3x3$"):
        make_holevo_form(2, [(np.eye(3), np.eye(3) / 3)])


def test_make_holevo_form_rejects_no_dimension_and_no_pairs():
    with pytest.raises(ValidationError, match="^system dimension must be positive, got 0$"):
        make_holevo_form(0, [(IDENT, E00)])
    with pytest.raises(ValidationError, match=r"^a channel needs at least one \(F, R\) pair$"):
        make_holevo_form(2, [])


def test_form_matrices_read_only():
    form = example_one()
    with pytest.raises(ValueError):
        form.effects[0][0, 0] = 2.0


def test_form_holds_read_only_stacks():
    form = example_two()
    for stack in (form.effects, form.states):
        assert stack.shape == (3, 2, 2) and stack.dtype == np.complex128
        with pytest.raises(ValueError):
            stack[1, 0, 0] = 2.0
    assert iterated_form(form, 3).states is form.states


def exactly_hermitian(a):
    return np.array_equal(a, a.conj().swapaxes(-1, -2))


def upper_noise(rng, n, size):
    """Strictly upper triangular noise: the Hermitian defect it adds is its largest entry."""
    return size * np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)


def test_forms_hold_exactly_hermitian_stacks():
    # the stored and iterated stacks and every subset sum of them are exactly
    # Hermitian, also when the input is Hermitian only within psd_tol
    rng = np.random.default_rng(72)
    for _ in range(40):
        n, r = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        base = random_holevo_form(rng, n, r)
        pairs = [(f + upper_noise(rng, n, 1e-12), rho + upper_noise(rng, n, 1e-12))
                 for f, rho in zip(base.effects, base.states)]
        form = make_holevo_form(n, pairs)
        for k, (f, rho) in enumerate(pairs):
            for given, stored in ((f, form.effects[k]), (rho, form.states[k])):
                defect = np.max(np.abs(given - given.conj().T))
                assert np.max(np.abs(stored - given)) <= defect
        for m in (1, 2, 5):
            for stack in (form.states, iterated_form(form, m).effects):
                assert exactly_hermitian(stack)
                for mask in range(1, 1 << r):
                    members = [k for k in range(r) if mask >> k & 1]
                    assert exactly_hermitian(stack[members].sum(axis=0))
        # exactly Hermitian input is stored bit for bit
        again = make_holevo_form(n, zip(base.effects, base.states))
        assert again.effects.tobytes() == base.effects.tobytes()
        assert again.states.tobytes() == base.states.tobytes()


def test_hermitian_defect_beyond_psd_tol_still_raises():
    noise = upper_noise(np.random.default_rng(73), 2, 1e-6)
    with pytest.raises(ValidationError, match=r"^F\[0\] is not Hermitian: "):
        make_holevo_form(2, [(PLUS + noise, E00), (MINUS, E11)])
    with pytest.raises(ValidationError, match=r"^R\[1\] is not Hermitian: "):
        make_holevo_form(2, [(PLUS, E00), (MINUS, PLUS + noise)])


def test_forms_compare_and_hash_by_identity():
    form, copy = depolarizing(2), depolarizing(2)
    assert form == form
    assert form != copy  # equal data, distinct objects with distinct caches
    assert len({form, copy, form}) == 2
    assert {form: 1}[form] == 1


# --- action ---

def test_apply_depolarizing():
    rng = np.random.default_rng(20)
    form = depolarizing(2)
    for _ in range(5):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(apply_linear(form, rho), IDENT / 2, atol=1e-12)


def test_apply_example_one_flips_minus():
    out = apply_linear(example_one(), MINUS)
    np.testing.assert_allclose(out, E11, atol=1e-12)


def test_apply_map_to_diagonal():
    rng = np.random.default_rng(21)
    rho = random_density(rng, 3)
    out = apply_linear(map_to_diagonal(3), rho)
    np.testing.assert_allclose(out, np.diag(np.diag(rho)), atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(ValidationError, match="operand must be 2x2"):
        apply_linear(example_one(), np.eye(3) / 3)


def one_matrix_reference(form, x):
    # reference single-matrix action: a C-ordered copy, then one full trace per pair
    x = np.array(x, dtype=np.complex128, order="C")
    out = np.zeros((form.n, form.n), dtype=np.complex128)
    for f, r in zip(form.effects, form.states):
        out += np.sum(f * x.T) * r
    return out


def stack_forms():
    rng = np.random.default_rng(31)
    return [example_one(), example_two(), depolarizing(3), map_to_diagonal(4),
            random_holevo_form(rng, 3, 5), random_holevo_form(rng, 5, 2)]


@pytest.mark.parametrize("lead", [(7,), (2, 3)])
def test_apply_stack_matches_one_matrix_at_a_time(lead):
    rng = np.random.default_rng(32)
    for form in stack_forms():
        shape = lead + (form.n, form.n)
        xs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = apply_linear(form, xs)
        assert out.shape == shape
        for index in np.ndindex(*lead):
            assert np.array_equal(out[index], apply_linear(form, xs[index]))


def test_apply_one_matrix_is_bitwise_the_reference_loop():
    rng = np.random.default_rng(33)
    for form in stack_forms():
        for _ in range(5):
            x = rng.standard_normal((form.n, form.n)) + 1j * rng.standard_normal((form.n, form.n))
            assert np.array_equal(apply_linear(form, x), one_matrix_reference(form, x))
        real = rng.standard_normal((form.n, form.n))  # real and transposed operands too
        assert np.array_equal(apply_linear(form, real.T), one_matrix_reference(form, real.T))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_apply_stack_rejects_non_finite_entries(bad):
    form = random_holevo_form(np.random.default_rng(34), 3, 2)
    for index in [(0, 0, 0), (4, 2, 1), (2, 1, 2)]:
        xs = np.zeros((5, 3, 3), dtype=np.complex128)
        xs[index] = bad
        with pytest.raises(ValidationError):
            apply_linear(form, xs)


@pytest.mark.parametrize("shape", [(4, 3, 2), (4, 2, 3), (2, 2, 2), (3,), (9,), ()])
def test_apply_stack_rejects_wrong_shapes(shape):
    form = random_holevo_form(np.random.default_rng(35), 3, 2)
    with pytest.raises(ValidationError, match="operand must be 3x3"):
        apply_linear(form, np.ones(shape))


# --- representations ---

def test_natural_rep_map_to_diagonal():
    rep = natural_rep(map_to_diagonal(3))
    expected = np.zeros((9, 9))
    for i in range(3):
        s = i * 3 + i
        expected[s, s] = 1.0
    np.testing.assert_allclose(rep, expected, atol=1e-12)


def test_natural_rep_depolarizing_pattern():
    rep = natural_rep(depolarizing(2))
    expected = np.zeros((4, 4))
    for a in (0, 3):
        for b in (0, 3):
            expected[a, b] = 0.5
    np.testing.assert_allclose(rep, expected, atol=1e-12)


def test_natural_rep_extends_apply():
    rng = np.random.default_rng(22)
    form = random_holevo_form(rng, 3, 4)
    rep = natural_rep(form)
    for _ in range(50):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = vec(apply_linear(form, x))
        rhs = rep @ vec(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(x)))


def per_unit_natural_rep(form):
    # reference: one channel action per matrix unit, column i * n + j at a time
    n = form.n
    rep = np.empty((n * n, n * n), dtype=np.complex128)
    for col in range(n * n):
        unit = np.zeros(n * n, dtype=np.complex128)
        unit[col] = 1.0
        rep[:, col] = apply_linear(form, unit.reshape(n, n)).reshape(-1)
    return rep


@pytest.mark.parametrize("n", range(1, 10))
def test_stacked_pictures_are_bitwise_the_reference_loops(n):
    # n = 9 reads the 81 matrix units in two blocks; the diagonal map's
    # zero entries pin the signs of zero too
    rng = np.random.default_rng(26 + n)
    for form in (random_holevo_form(rng, n, 1), random_holevo_form(rng, n, 4),
                 map_to_diagonal(n)):
        assert natural_rep(form).tobytes() == per_unit_natural_rep(form).tobytes()


def test_factorization_depolarizing():
    a, b = factorization(depolarizing(2))
    np.testing.assert_allclose(a, np.array([[0.5], [0], [0], [0.5]]), atol=1e-12)
    np.testing.assert_allclose(b, np.array([[1, 0, 0, 1]]), atol=1e-12)
    np.testing.assert_allclose(b @ a, [[1.0]], atol=1e-12)


def test_factorization_map_to_diagonal():
    a, b = factorization(map_to_diagonal(3))
    np.testing.assert_allclose(b, a.conj().T, atol=1e-12)
    np.testing.assert_allclose(b @ a, np.eye(3), atol=1e-12)


def test_factorization_products():
    rng = np.random.default_rng(24)
    for _ in range(10):
        form = random_holevo_form(rng, int(rng.integers(2, 4)), int(rng.integers(1, 6)))
        a, b = factorization(form)
        assert np.max(np.abs(a @ b - natural_rep(form))) <= 1e-10
        assert np.max(np.abs(b @ a - stochastic_rep(form))) <= 1e-10


def test_stochastic_rep_examples():
    np.testing.assert_allclose(stochastic_rep(example_one()),
                               np.full((2, 2), 0.5), atol=1e-12)
    np.testing.assert_allclose(stochastic_rep(example_two()),
                               np.array([[0.5, 0.5, 0.0],
                                         [0.0, 0.0, 0.5],
                                         [0.5, 0.5, 0.5]]), atol=1e-12)
    np.testing.assert_allclose(stochastic_rep(map_to_diagonal(4)), np.eye(4), atol=1e-12)


def test_stochastic_rep_is_cached_per_form():
    form = random_holevo_form(np.random.default_rng(36), 3, 4)
    first = stochastic_rep(form)
    assert form.tol is DEFAULT_TOL and stochastic_rep(form) is first
    assert not first.flags.writeable
    # the same pairs validated under other tolerances are another form, with its own S
    loose = Tolerances(stochastic_tol=1e-8)
    again = make_holevo_form(3, zip(form.effects, form.states), loose)
    other = stochastic_rep(again)
    assert again.tol is loose and other is not first and stochastic_rep(again) is other
    assert np.array_equal(other, first)


def test_analyses_read_the_forms_own_stochastic_tol():
    # column 1 of S sums to 1 + 5e-10: inside the form's stochastic_tol, outside
    # the default one, so S must be validated under the form's
    loose = Tolerances(stochastic_tol=1e-8)
    effects = [np.diag([0.5, 0.5 + 5e-10]), np.diag([0.5, 0.5])]
    form = make_holevo_form(2, zip(effects, [E00, E11]), loose)
    np.testing.assert_array_equal(stochastic_rep(form), [[0.5, 0.5 + 5e-10], [0.5, 0.5]])
    report = channel_primitivity_index(form)
    assert (report.p_index, report.q_index) == (1, 1)


# --- iteration and fixed points ---

def test_iterated_form_m1_is_same_form():
    form = example_one()
    once = iterated_form(form, 1)
    for f, g in zip(form.effects, once.effects):
        np.testing.assert_array_equal(f, g)


def test_iterated_form_example_one_squares_to_depolarizing():
    squared = iterated_form(example_one(), 2)
    for g in squared.effects:
        np.testing.assert_allclose(g, IDENT / 2, atol=1e-12)


def test_iterated_form_matches_repeated_apply():
    rng = np.random.default_rng(25)
    form = random_holevo_form(rng, 2, 4)
    cubed = iterated_form(form, 3)
    for _ in range(20):
        rho = random_density(rng, 2)
        composed = rho
        for _ in range(3):
            composed = apply_linear(form, composed)
        assert np.max(np.abs(apply_linear(cubed, rho) - composed)) <= 1e-10


def test_iterated_form_povm_closure():
    rng = np.random.default_rng(26)
    form = random_holevo_form(rng, 3, 5)
    for m in (1, 2, 5, 9):
        total = sum(iterated_form(form, m).effects)
        assert np.max(np.abs(total - np.eye(3))) <= 1e-10


def test_fixed_point_examples():
    np.testing.assert_allclose(fixed_point(depolarizing(3)).rho, np.eye(3) / 3, atol=1e-12)
    fp1 = fixed_point(example_one())
    np.testing.assert_allclose(fp1.rho, IDENT / 2, atol=1e-12)
    assert fp1.unique
    fp2 = fixed_point(example_two())
    np.testing.assert_allclose(fp2.rho, IDENT / 2, atol=1e-12)
    assert fp2.residual <= 1e-10


def test_fixed_point_residual_random():
    rng = np.random.default_rng(27)
    for _ in range(10):
        form = random_holevo_form(rng, int(rng.integers(2, 4)), int(rng.integers(1, 5)))
        fp = fixed_point(form)
        assert fp.residual <= 1e-10
        assert abs(np.trace(fp.rho).real - 1.0) <= 1e-10


# --- spectrum comparison ---

def test_spectrum_example_one():
    comp = compare_nonzero_spectrum(example_one())
    assert comp.matched
    assert len(comp.channel_nonzero) == 1
    assert abs(comp.channel_nonzero[0] - 1.0) <= 1e-10


def test_spectrum_map_to_diagonal():
    comp = compare_nonzero_spectrum(map_to_diagonal(3))
    assert comp.matched
    assert len(comp.channel_nonzero) == 3
    np.testing.assert_allclose(sorted(z.real for z in comp.channel_nonzero),
                               [1, 1, 1], atol=1e-8)


def test_spectrum_random_forms():
    rng = np.random.default_rng(28)
    for _ in range(40):
        form = random_holevo_form(rng, int(rng.integers(2, 4)), int(rng.integers(1, 7)))
        comp = compare_nonzero_spectrum(form)
        assert comp.matched
        assert comp.max_pair_distance <= 1e-6


def brute_bottleneck(a, b):
    """Min over injective pairings of the smaller multiset of the max distance."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return 0.0 if b.size == 0 else float("inf")
    return min(max(abs(x - b[j]) for x, j in zip(a, cols))
               for cols in itertools.permutations(range(b.size), a.size))


def test_pair_distance_matches_brute_force():
    rng = np.random.default_rng(29)
    grid = np.arange(-1, 2)[:, None] + 1j * np.arange(-1, 2)[None, :]
    for size_a, size_b in itertools.product(range(7), repeat=2):
        for trial in range(6):
            # half the draws come from a 3 x 3 grid, so values repeat
            pool = (grid.ravel() if trial % 2
                    else rng.standard_normal(6) + 1j * rng.standard_normal(6))
            a, b = rng.choice(pool, size_a), rng.choice(pool, size_b)
            assert _pair_distance(a, b) == pytest.approx(brute_bottleneck(a, b), abs=1e-12)


def test_pair_distance_is_the_bottleneck_not_the_min_sum_pairing():
    # pairing 0-0 and 1j-1 costs less in total but has the larger max, sqrt(2)
    assert _pair_distance(np.array([0, 1j]), np.array([0, 1 + 0j])) == 1.0


def admits_perfect_matching(allowed, rng):
    """Whether a square boolean pattern admits a perfect matching.

    Edmonds: it does iff generic weights on the pattern give a nonsingular matrix.
    """
    weights = np.where(allowed, rng.uniform(1.0, 2.0, allowed.shape), 0.0)
    return np.linalg.matrix_rank(weights) == allowed.shape[0]


def test_pair_distance_is_exact_on_forty_points():
    rng = np.random.default_rng(30)
    a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    b = a + 0.3 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    dist = _pair_distance(a, b)
    cost = np.abs(a[:, None] - b[None, :])
    assert admits_perfect_matching(cost <= dist, rng)
    assert not admits_perfect_matching(cost < dist, rng)


# --- builders ---

def test_qc_round_trip_example():
    s = np.full((2, 2), 0.5)
    np.testing.assert_allclose(stochastic_rep(qc_from_stochastic(s)), s, atol=1e-12)


def test_qc_rejects_bad_matrix():
    with pytest.raises(ValidationError, match="^not a column-stochastic matrix: column 0 "):
        qc_from_stochastic(np.array([[1.0, 0.0], [0.1, 1.0]]))


def test_kraus_depolarizing_import():
    n = 2
    ops = []
    for i in range(n):
        for j in range(n):
            v = np.zeros((n, n), dtype=complex)
            v[i, j] = 1.0 / np.sqrt(n)
            ops.append(v)
    form = holevo_from_rank_one_kraus(ops)
    assert form.r == n * n
    canonical = depolarizing(n)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            got = apply_linear(form, unit)
            want = apply_linear(canonical, unit)
            assert np.max(np.abs(got - want)) <= 1e-10


def test_kraus_action_matches_conjugation():
    rng = np.random.default_rng(29)
    # random rank-one Kraus set: V_k = |a_k><b_k| with {b_k} orthonormal
    n = 3
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    ops = []
    for k in range(n):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a /= np.linalg.norm(a)
        ops.append(np.outer(a, q[:, k].conj()))
    form = holevo_from_rank_one_kraus(ops)
    for _ in range(5):
        rho = random_density(rng, n)
        direct = sum(v @ rho @ v.conj().T for v in ops)
        assert np.max(np.abs(apply_linear(form, rho) - direct)) <= 1e-10


def test_kraus_rejects_rank_two():
    with pytest.raises(ValidationError, match=r"^V\[0\] has numerical rank 2, expected 1$"):
        holevo_from_rank_one_kraus([np.eye(2) / np.sqrt(2),
                                    np.array([[0, 1j], [1, 0]]) / np.sqrt(2)])


def test_kraus_rejects_non_trace_preserving():
    ops = [np.array([[0.9, 0], [0, 0]]), np.array([[0, 0], [0, 1.0]])]
    with pytest.raises(ValidationError, match=r"^sum_k V_k\* V_k differs from I by "):
        holevo_from_rank_one_kraus(ops)


def test_kraus_rejects_no_operators_and_mixed_sizes():
    with pytest.raises(ValidationError, match="^need at least one operator$"):
        holevo_from_rank_one_kraus([])
    with pytest.raises(ValidationError, match=r"^V\[1\] must be 2x2, got \(3, 3\)$"):
        holevo_from_rank_one_kraus([np.diag([1.0, 0.0]), np.zeros((3, 3))])
