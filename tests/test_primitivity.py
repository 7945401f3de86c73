import numpy as np
import pytest

from ebchan.channel import (apply_linear, depolarizing, make_holevo_form,
                            map_to_diagonal, stochastic_rep)
from ebchan import primitivity
from ebchan.errors import SubsetCapExceeded
from ebchan.primitivity import (channel_primitivity_index, holevo_rank_bounds,
                                is_primitive_channel,
                                quantum_wielandt_comparison,
                                strictly_positive_at, sum_R_positive_definite,
                                sweep_positive_iterate)
from ebchan.sampling import (random_channel, random_holevo_form, random_pure_state,
                             random_qc_form)

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


def example_one():
    return make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])


def example_two():
    return make_holevo_form(2, [(0.5 * E00, E00), (0.5 * E11, E00), (0.5 * IDENT, E11)])


def singular_sum_form():
    # every state is |0><0|, so the summed states annihilate |1>
    return make_holevo_form(2, [(0.5 * IDENT, E00), (0.5 * IDENT, E00)])


def test_sum_R_positive_definite():
    assert sum_R_positive_definite(example_one())
    assert sum_R_positive_definite(map_to_diagonal(3))
    assert not sum_R_positive_definite(singular_sum_form())


def test_strictly_positive_at_example_one():
    first = strictly_positive_at(example_one(), 1)
    assert not first.holds
    assert not bool(first)
    second = strictly_positive_at(example_one(), 2)
    assert second.holds
    assert second.state is None and second.subset is None


def test_strictly_positive_at_depolarizing():
    assert strictly_positive_at(depolarizing(3), 1).holds


def test_false_verdict_carries_sound_witness():
    form = example_one()
    res = strictly_positive_at(form, 1)
    assert res.subset is not None and len(res.subset) >= 1
    psi, phi = res.state, res.direction
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(phi) - 1.0) <= 1e-12
    sigma = np.outer(psi, psi.conj())
    out = sigma
    for _ in range(res.m):
        out = apply_linear(form, out)
    leak = float(np.real(phi.conj() @ out @ phi))
    assert abs(leak) <= 1e-8
    assert abs(res.value) <= 1e-8


def test_true_verdict_positive_on_random_pure_states():
    rng = np.random.default_rng(30)
    form = example_one()
    squared = strictly_positive_at(form, 2)
    assert squared.holds
    for _ in range(500):
        psi = random_pure_state(rng, 2)
        out = apply_linear(form, apply_linear(form, np.outer(psi, psi.conj())))
        assert np.linalg.eigvalsh(out)[0] > 0.0


def test_empty_subset_never_triggers_full_set_iff_singular_sum():
    res = strictly_positive_at(singular_sum_form(), 1)
    assert not res.holds
    assert res.subset == (0, 1)
    rng = np.random.default_rng(31)
    for _ in range(20):
        form = random_channel(rng, 2, int(rng.integers(1, 5)))
        verdict = strictly_positive_at(form, 1)
        if not verdict.holds:
            assert verdict.subset != ()
            full = tuple(range(form.r))
            if verdict.subset == full:
                assert not sum_R_positive_definite(form)


def test_subset_cap_exceeded():
    with pytest.raises(SubsetCapExceeded):
        strictly_positive_at(example_one(), 1, subset_cap=1)


def test_is_primitive_channel_examples():
    assert is_primitive_channel(example_one())
    assert is_primitive_channel(example_two())
    assert not is_primitive_channel(map_to_diagonal(3))
    assert not is_primitive_channel(singular_sum_form())


def test_channel_primitivity_index_examples():
    one = channel_primitivity_index(example_one())
    assert one.p_index == 1 and one.q_index == 2
    assert one.channel_primitive and one.bound_abs_diff_ok and one.holevo_rank_bound_ok
    assert one.q_method == "exact"

    two = channel_primitivity_index(example_two())
    assert two.p_index == 2 and two.q_index == 1

    depol = channel_primitivity_index(depolarizing(3))
    assert depol.p_index == 1 and depol.q_index == 1


def test_channel_primitivity_index_non_primitive():
    report = channel_primitivity_index(map_to_diagonal(2))
    assert not report.channel_primitive
    assert report.q_index is None
    assert report.s_primitive is False and report.sum_R_pd is True


def test_report_equivalence_invariant():
    rng = np.random.default_rng(32)
    for _ in range(25):
        form = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(1, 6)))
        report = channel_primitivity_index(form)
        assert report.channel_primitive == (report.s_primitive and report.sum_R_pd)


def primitive_qc_form(rng, r):
    while True:
        form = random_qc_form(rng, r, zero_fraction=0.6)
        if is_primitive_channel(form):
            return form


def test_window_matches_full_search():
    rng = np.random.default_rng(33)
    forms = [random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(1, 5)))
             for _ in range(25)]
    # q = p + 1 and q = p - 1, then sparse qc forms whose windows start above m = 1
    forms += [example_one(), example_two()]
    forms += [primitive_qc_form(rng, r) for r in range(4, 11)]
    tested = 0
    for form in forms:
        windowed = channel_primitivity_index(form)
        if not windowed.channel_primitive:
            continue
        tested += 1
        assert sweep_positive_iterate(form)[1] == windowed.q_index
    assert tested >= 9


def test_state_table_is_built_once_per_search(monkeypatch):
    form = primitive_qc_form(np.random.default_rng(37), 6)
    calls = []

    def counting(mats, n, tol):
        calls.append(all(a is b for a, b in zip(mats, form.states)))
        return alive_table(mats, n, tol)

    alive_table = primitivity._alive_table
    monkeypatch.setattr(primitivity, "_alive_table", counting)
    report = channel_primitivity_index(form)
    assert report.p_index >= 2  # the window starts at p - 1 and tests p too
    assert calls.count(True) == 1
    assert calls.count(False) >= 2  # one iterated-effect table per m tested


def test_bounds_only_above_cap():
    report = channel_primitivity_index(example_two(), subset_cap=2)
    assert report.q_method == "bounds-only"
    assert report.q_index is None
    assert report.q_window == (1, 3)
    assert report.channel_primitive


def test_positive_definite_effects_give_index_one():
    # strictly positive-definite effects with invertible summed states force q = p = 1
    rng = np.random.default_rng(34)
    for _ in range(10):
        form = random_holevo_form(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        report = channel_primitivity_index(form)
        assert report.p_index == 1
        assert report.q_index == 1


def test_holevo_rank_bounds_depolarizing_forms():
    canonical = holevo_rank_bounds(depolarizing(2))
    assert (canonical.lower, canonical.upper, canonical.q_upper_from_rank) == (1, 1, 2)

    from ebchan.channel import holevo_from_rank_one_kraus
    ops = []
    for i in range(2):
        for j in range(2):
            v = np.zeros((2, 2), dtype=complex)
            v[i, j] = 1.0 / np.sqrt(2)
            ops.append(v)
    wide = holevo_rank_bounds(holevo_from_rank_one_kraus(ops))
    assert (wide.lower, wide.upper, wide.q_upper_from_rank) == (1, 4, 11)


def test_holevo_rank_bounds_example_one():
    bounds = holevo_rank_bounds(example_one())
    report = channel_primitivity_index(example_one())
    assert bounds.lower <= bounds.upper == 2
    assert report.q_index <= bounds.q_upper_from_rank == 3


def test_quantum_wielandt_comparison():
    two = quantum_wielandt_comparison(example_one(), d=2)
    assert (two.q_bound_holevo, two.q_bound_quantum) == (3, 12)
    one = quantum_wielandt_comparison(depolarizing(2), d=4)
    assert (one.q_bound_holevo, one.q_bound_quantum) == (2, 4)
    three = quantum_wielandt_comparison(map_to_diagonal(3), d=9)
    assert (three.q_bound_holevo, three.q_bound_quantum) == (6, 9)
    with pytest.raises(ValueError):
        quantum_wielandt_comparison(example_one(), d=0)


def test_structural_decision_matches_definition_sweep():
    rng = np.random.default_rng(35)
    for _ in range(15):
        form = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(1, 5)))
        report = channel_primitivity_index(form)
        swept, swept_index = sweep_positive_iterate(form)
        assert report.channel_primitive == swept
        assert report.q_index == swept_index


def test_index_bounds_on_random_primitive_channels():
    rng = np.random.default_rng(36)
    seen = 0
    for _ in range(20):
        form = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(1, 5)))
        report = channel_primitivity_index(form)
        if not report.channel_primitive:
            continue
        seen += 1
        r = form.r
        assert abs(report.q_index - report.p_index) <= 1
        assert report.q_index <= r * r - 2 * r + 3
    assert seen > 0
