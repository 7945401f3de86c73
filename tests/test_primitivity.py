import numpy as np
import pytest

from ebchan.channel import (apply_linear, depolarizing, iterated_form, make_holevo_form,
                            map_to_diagonal, qc_from_stochastic, stochastic_rep)
from ebchan import channel, primitivity
from ebchan.errors import ValidationError
from ebchan.linalg import DEFAULT_TOL, _zero_cut, kernel_psd
from ebchan.primitivity import (SUBSET_CAP, channel_primitivity_index,
                                holevo_rank_bounds, strictly_positive_at,
                                sum_R_positive_definite, sweep_positive_iterate)
from ebchan.sampling import (random_channel, random_holevo_form, random_qc_form,
                             wielandt_matrix)
from ebchan.stochastic import wielandt_bound

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


def example_one():
    return make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])


def example_two():
    return make_holevo_form(2, [(0.5 * E00, E00), (0.5 * E11, E00), (0.5 * IDENT, E11)])


def decayed_wielandt_matrix(r, eps):
    # the Wielandt pattern with chord weights (eps, 1 - eps)
    s = np.array(wielandt_matrix(r))
    s[0, r - 1], s[1, r - 1] = eps, 1.0 - eps
    return s


def singular_sum_form():
    # every state is |0><0|, so the summed states annihilate |1>
    return make_holevo_form(2, [(0.5 * IDENT, E00), (0.5 * IDENT, E00)])


def test_sum_R_positive_definite():
    assert sum_R_positive_definite(example_one())
    assert sum_R_positive_definite(map_to_diagonal(3))
    assert sum_R_positive_definite(depolarizing(3))
    assert not sum_R_positive_definite(singular_sum_form())


def test_strictly_positive_at_example_one():
    first = strictly_positive_at(example_one(), 1)
    assert not first.holds
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
    # the states over the subset annihilate phi, the other effects psi
    for k in range(form.r):
        vector, mat = (phi, form.states[k]) if k in res.subset else (psi, form.effects[k])
        assert abs(vector.conj() @ mat @ vector) <= 1e-12


def test_true_verdict_positive_on_random_pure_states():
    rng = np.random.default_rng(30)
    form = example_one()
    squared = strictly_positive_at(form, 2)
    assert squared.holds
    for _ in range(500):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
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


def above_cap_form():
    # SUBSET_CAP + 1 pairs with an entrywise-positive S: p = 1, window (1, 2)
    r = SUBSET_CAP + 1
    s = np.random.default_rng(38).uniform(0.5, 1.5, (r, r))
    return qc_from_stochastic(s / s.sum(axis=0))


def test_subset_cap_exceeded():
    with pytest.raises(ValidationError, match=f"^r = {SUBSET_CAP + 1} exceeds the "
                                              f"exact-enumeration cap {SUBSET_CAP}$"):
        strictly_positive_at(above_cap_form(), 1)


def test_channel_primitive_examples():
    for form, primitive in ((example_one(), True), (example_two(), True),
                            (map_to_diagonal(3), False), (singular_sum_form(), False)):
        assert channel_primitivity_index(form).channel_primitive is primitive


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
        if channel_primitivity_index(form).channel_primitive:
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


def non_diagonal_form(rng):
    # effects diag(w_k) in a random unitary basis, with zero weights, and
    # states of random rank on random sets of that basis, so the maximal
    # alive state sets are not just "all pairs but one"
    n, r = int(rng.integers(2, 5)), int(rng.integers(2, 9))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    basis, _ = np.linalg.qr(gaussian(n, n))
    keep = rng.random((r, n)) >= rng.uniform(0.2, 0.7)
    keep[rng.integers(r, size=n), np.arange(n)] = True  # every basis vector is weighed
    keep[np.arange(r), rng.integers(n, size=r)] = True  # no effect is zero
    weights = rng.gamma(1.0, size=(r, n)) * keep
    weights /= weights.sum(axis=0)
    pairs = []
    for w in weights:
        support = np.flatnonzero(rng.random(n) < 0.6)
        if not support.size:
            support = np.arange(n)
        g = basis[:, support] @ gaussian(support.size, int(rng.integers(1, support.size + 1)))
        rho = g @ g.conj().T
        pairs.append(((basis * w) @ basis.conj().T, rho / np.trace(rho).real))
    return make_holevo_form(n, pairs)


def test_search_matches_the_sweep_on_non_diagonal_forms():
    rng = np.random.default_rng(41)
    gaps = set()
    for _ in range(200):
        form = non_diagonal_form(rng)
        report = channel_primitivity_index(form)
        assert sweep_positive_iterate(form) == (report.channel_primitive, report.q_index)
        if report.channel_primitive:
            gaps.add(report.q_index - report.p_index)
    assert gaps == {-1, 0, 1}


def test_state_table_is_built_once_per_search(monkeypatch):
    form = primitive_qc_form(np.random.default_rng(37), 6)
    calls = []

    def counting(mats, tol, masks=None):
        calls.append((mats is form.states, mats is form.effects, masks is None))
        return alive_table(mats, tol, masks)

    alive_table = primitivity._alive_table
    monkeypatch.setattr(primitivity, "_alive_table", counting)
    report = channel_primitivity_index(form)
    assert report.p_index >= 2  # the window starts at p - 1 and tests p too
    # one full state table, and one table on the original effects, solved
    # at the masks every m of the window asks for
    assert calls == [(True, False, True), (False, True, False)]


def test_search_builds_no_iterated_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search built an iterated form")

    form = qc_from_stochastic(wielandt_matrix(6))
    monkeypatch.setattr(primitivity, "iterated_form", refuse)
    monkeypatch.setattr(channel, "iterated_form", refuse)
    assert channel_primitivity_index(form).q_index == 26


@pytest.mark.parametrize("r, eps, p", [(4, 1e-3, 10), (5, 1e-3, 17), (6, 1e-2, 26)],
                         ids=["4", "5", "6"])
def test_search_is_exact_where_the_iterated_weights_decay(r, eps, p):
    # every entry of S is 0 or >= eps, but entries of S^(m-1) fall below the
    # kernel cut, so a kernel test on the iterated effects finds no positive
    # iterate in the window; the pattern of S^(m-1) does not decay
    form = qc_from_stochastic(decayed_wielandt_matrix(r, eps))
    report = channel_primitivity_index(form)
    assert (report.p_index, report.q_index) == (p, p)


def test_out_of_range_counts_raise_validation_error():
    form = example_one()
    for call, message in ((lambda: iterated_form(form, 0), "iteration count must be >= 1"),
                          (lambda: strictly_positive_at(form, 0), "iteration count must be >= 1"),
                          (lambda: wielandt_bound(0), "dimension must be positive"),
                          (lambda: wielandt_matrix(1), "pattern needs r >= 2")):
        with pytest.raises(ValidationError, match=f"^{message}, got [01]$"):
            call()


def test_bounds_only_above_cap():
    report = channel_primitivity_index(above_cap_form())
    assert report.q_method == "bounds-only"
    assert report.q_index is None
    assert report.p_index == 1
    assert report.q_window == (1, 2)
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


def _symmetrized_kernel_dim(h, tol=DEFAULT_TOL):
    """Kernel dimension by the symmetrize-and-count route.

    Takes all eigenvalues of (h + h*)/2 and counts those under the zero cut;
    a sum that is not PSD raises ValidationError. It trusts no Hermitian invariant.
    """
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)  # ascending
    scale = max(1.0, float(w[-1]))
    if w[0] < -tol.psd_tol * scale:
        raise ValidationError(f"subset sum is not PSD, lambda_min = {w[0]:.3e}")
    return int(np.count_nonzero(w < tol.zero_eig_tol * scale))


def _reference_alive_table(stack, tol=DEFAULT_TOL):
    """The subset table built by gather, symmetrize, eigvalsh and count."""
    r = len(stack)
    alive = np.zeros(1 << r, dtype=bool)
    alive[0] = True
    for mask in range(1, 1 << r):
        if alive[mask & (mask - 1)]:
            members = [k for k in range(r) if mask >> k & 1]
            alive[mask] = _symmetrized_kernel_dim(stack[members].sum(axis=0), tol) > 0
    return alive


def _table_oracle_stacks():
    """State stacks and iterated-effect stacks G^(m) for the table oracle tests.

    Forms with r <= 8 give the state stack and G^(m) for every m the sweep
    can test; sparse qc and pure-state forms at r = 10 and 12 give the state
    stack and G^(m) for m = 1, 2, 3, whose alive chains run to sums of up to
    12 members, each added in the walk's order and in the reference's.
    """
    forms = [qc_from_stochastic(wielandt_matrix(r)) for r in range(2, 9)]
    for seed in (81, 82, 83):
        rng = np.random.default_rng(seed)
        forms += [random_channel(rng, n, r) for n in range(1, 5) for r in range(1, 9)]
    # the two near-threshold tolerance repros: an S entry of 1e-9, a state eigenvalue of 6e-9
    forms.append(qc_from_stochastic([[1 - 1e-9, 0.5], [1e-9, 0.5]]))
    forms.append(make_holevo_form(2, [(0.5 * IDENT, E00),
                                      (0.5 * IDENT, np.diag([1 - 6e-9, 6e-9]))]))
    stacks = []
    for form in forms:
        stacks.append(form.states)
        stacks += [iterated_form(form, m).effects for m in range(1, wielandt_bound(form.r) + 2)]
    rng = np.random.default_rng(85)
    for r in (10, 12):
        for form in (random_qc_form(rng, r, zero_fraction=0.6),
                     random_holevo_form(rng, r, r, state_ranks=[1] * r)):
            stacks.append(form.states)
            stacks += [iterated_form(form, m).effects for m in (1, 2, 3)]
    return stacks


def test_alive_table_matches_the_symmetrize_and_count_reference():
    # on exactly Hermitian stacks the lambda_min test gives the symmetrize-and-count
    # table bit for bit, although the walk adds each sum's members in another order
    for stack in _table_oracle_stacks():
        got = primitivity._alive_table(stack, DEFAULT_TOL)
        assert got.tobytes() == _reference_alive_table(stack).tobytes()


def _chains(masks):
    """The asked masks with their lowest-bit parent chains, as a set."""
    chains = set()
    for mask in masks:
        while mask:
            chains.add(int(mask))
            mask &= mask - 1
    return chains


def test_masked_alive_table_matches_the_full_table(kernel_batches):
    # at every asked mask the masked table reads as the full table; it solves
    # exactly the masks on the asked lowest-bit chains whose parent is alive,
    # each call all the asked children of one or more of those parents
    rng = np.random.default_rng(84)
    tables = [(stack, primitivity._alive_table(stack, DEFAULT_TOL))
              for stack in _table_oracle_stacks()]
    for stack, table in tables:
        masks = rng.permutation(len(table))
        for asked in (masks[:0], masks[:3], masks[:len(masks) // 2], masks):
            chains = _chains(asked)
            kernel_batches.reset()
            got = primitivity._alive_table(stack, DEFAULT_TOL, asked)
            assert got[asked].tobytes() == table[asked].tobytes()
            solved = [mask for mask in chains if table[mask & (mask - 1)]]
            assert kernel_batches.sums == len(solved)
            assert kernel_batches.calls <= len({mask & (mask - 1) for mask in solved})
            assert kernel_batches.largest <= 2 * len(stack) - 1
            assert not got[[mask for mask in range(1, len(got)) if mask not in chains]].any()


def _one_mask_at_a_time_table(stack, tol, masks=None):
    """The subset walk with one eigvalsh per mask, cut and recursed in ascending k."""
    r = len(stack)
    alive = np.zeros(1 << r, dtype=bool)
    alive[0] = True
    chains = None if masks is None else _chains(masks)

    def walk(parent, parent_sum, low):
        for k in range(low):
            mask = parent | 1 << k
            if chains is not None and mask not in chains:
                continue
            h = parent_sum + stack[k]
            w = np.linalg.eigvalsh(h)  # ascending
            alive[mask] = w[0] < _zero_cut(w[0], w[-1], tol, "subset kernel test")
            if alive[mask]:
                walk(mask, h, k)

    walk(0, np.zeros(stack.shape[1:], dtype=stack.dtype), r)
    return alive


def _outcome(table, stack, masks):
    """The table's bytes, or the message of the ValidationError it raises."""
    try:
        return table(stack, DEFAULT_TOL, masks).tobytes()
    except ValidationError as exc:
        return str(exc)


def test_batches_raise_at_the_smallest_non_psd_mask(kernel_batches):
    # each matrix is within psd_tol of PSD, but stack[0] + stack[1] is not
    # (mask 3, under its parent mask 2) and neither is stack[2] (mask 4): mask 4
    # is solved in the root's batch, before mask 3, yet mask 3 is reported
    stack = np.array([np.diag([0.0, -0.9e-9, 1.0]), np.diag([0.0, -0.9e-9, 0.0]),
                      np.diag([0.0, -5e-9, 0.0])], dtype=complex)
    for masks in (None, [3, 4], [4, 3, 1]):
        with pytest.raises(ValidationError, match=r"lambda_min = -1\.800e-09$"):
            primitivity._alive_table(stack, DEFAULT_TOL, masks)
    with pytest.raises(ValidationError, match=r"lambda_min = -5\.000e-09$"):
        primitivity._alive_table(stack, DEFAULT_TOL, [4])
    # stack[0] (mask 1) and stack[2] (mask 4) are not PSD and share the root's
    # batch, in which mask 4 is cut first: mask 1's lambda_min is the one reported
    # (with masks 4 and 1 asked, that batch is the only one)
    stack[0] = np.diag([0.0, -2e-9, 1.0])
    for masks in (None, [4, 1], [4, 3, 1]):
        kernel_batches.reset()
        with pytest.raises(ValidationError, match=r"lambda_min = -2\.000e-09$"):
            primitivity._alive_table(stack, DEFAULT_TOL, masks)
        assert kernel_batches.calls == (1 if masks == [4, 1] else 2)


def test_sibling_batches_match_the_one_mask_walk_on_raw_stacks():
    # raw Hermitian stacks, each matrix PSD up to a negative part near psd_tol,
    # so sums go non-PSD at many depths: full and masked walks give the same
    # table, or raise the same message (the same mask, the same lambda_min)
    rng = np.random.default_rng(86)
    raised = 0
    for _ in range(60):
        n, r = int(rng.integers(2, 5)), int(rng.integers(3, 8))
        a = rng.normal(size=(r, n, 1)) + 1j * rng.normal(size=(r, n, 1))
        v = rng.normal(size=(r, n, 1)) + 1j * rng.normal(size=(r, n, 1))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        h = a @ a.conj().transpose(0, 2, 1) * (rng.random((r, 1, 1)) < 0.7) \
            - rng.uniform(0, 1.5e-9, (r, 1, 1)) * (v @ v.conj().transpose(0, 2, 1))
        stack = (h + h.conj().transpose(0, 2, 1)) / 2.0  # exactly Hermitian
        masks = rng.permutation(1 << r)
        for asked in (None, masks[:3], masks[:len(masks) // 2]):
            want = _outcome(_one_mask_at_a_time_table, stack, asked)
            assert _outcome(primitivity._alive_table, stack, asked) == want
            raised += isinstance(want, str)
    assert raised >= 30


def _raw_diagonal_stack(rng):
    """A diagonal (r, n, n) stack: zeros, entries from 1e-12 to 3, and negative
    entries within psd_tol (1e-9) and just past it."""
    n, r = int(rng.integers(1, 7)), int(rng.integers(3, 10))
    d = 10.0 ** rng.uniform(-12, 0.5, (r, n))
    kind = rng.random((r, n))
    d[kind < 0.6] = 0.0
    inside, beyond = kind < 0.25, kind < 0.02
    d[inside] = -rng.uniform(0.1e-9, 0.7e-9, inside.sum())
    d[beyond] = -rng.uniform(1.0e-9, 1.2e-9, beyond.sum())
    stack = np.zeros((r, n, n), dtype=complex)
    stack[:, np.arange(n), np.arange(n)] = d
    return stack


def test_sibling_batches_match_the_one_mask_walk_on_diagonal_stacks():
    # the walk reads the extremes of diagonal sums off their diagonals, the
    # one-mask walk gets them from eigvalsh: full and masked, the same table
    # or the same message; a lambda_min below -1.2e-9 sums two negative
    # entries, so some sums go non-PSD below depth one
    rng = np.random.default_rng(87)
    messages = []
    for _ in range(60):
        stack = _raw_diagonal_stack(rng)
        sums = np.cumsum(stack, axis=0)
        for got, want in zip(primitivity._extremes(np.einsum("kii->ki", sums).real),
                             primitivity._extremes(sums)):
            assert np.array_equal(got, want)
        masks = rng.permutation(1 << len(stack))
        for asked in (None, masks[:3], masks[:len(masks) // 2]):
            want = _outcome(_one_mask_at_a_time_table, stack, asked)
            assert _outcome(primitivity._alive_table, stack, asked) == want
            if isinstance(want, str):
                messages.append(want)
    assert len(messages) >= 30
    assert any(float(message.split(" = ")[-1]) < -1.2e-9 for message in messages)


def test_strictly_positive_at_never_builds_the_state_table(monkeypatch):
    calls = []

    def counting(mats, tol, masks=None):
        calls.append((any(mats is form.states for form in forms), masks is None))
        return alive_table(mats, tol, masks)

    forms = [example_one(), singular_sum_form(), qc_from_stochastic(wielandt_matrix(5)),
             primitive_qc_form(np.random.default_rng(39), 6)]
    alive_table = primitivity._alive_table
    monkeypatch.setattr(primitivity, "_alive_table", counting)
    for form in forms:
        for m in (1, 2, 3):
            strictly_positive_at(form, m)
        sweep_positive_iterate(form)
    assert (True, False) in calls and (False, True) in calls
    # state tables are solved at the asked masks only, iterated-effect tables in full
    assert all(is_states != full for is_states, full in calls)


@pytest.mark.parametrize("r, matrices, calls", [(6, 71, 15), (7, 136, 23), (8, 265, 33)],
                         ids=["6-71", "7-136", "8-265"])
def test_search_solve_counts_on_wielandt_qc_forms(r, matrices, calls, kernel_batches):
    # one sum solved per mask: the full state table below alive parents,
    # and the effect masks that m = p - 2 and the window's m ask for, with
    # their parent chains;
    # each batch holds the children of pending parents, at least r of them
    # while enough wait, and never more than 2r - 1; qc stacks are diagonal,
    # so no batch goes to eigvalsh
    form = qc_from_stochastic(wielandt_matrix(r))
    assert channel_primitivity_index(form).q_index == r * r - 2 * r + 2
    assert (kernel_batches.sums, kernel_batches.calls) == (matrices, calls)
    assert kernel_batches.largest <= 2 * r - 1
    assert kernel_batches.eigvalsh == 0


def test_search_solve_counts_on_a_sparse_qc_form_with_twelve_pairs(kernel_batches):
    # the shape of a subset-q document: r = n = 12, about 4,200 masks solved
    form = primitive_qc_form(np.random.default_rng(40), 12)
    kernel_batches.reset()
    assert channel_primitivity_index(form).q_index == 3
    assert (kernel_batches.sums, kernel_batches.calls) == (4176, 269)
    assert kernel_batches.largest <= 2 * 12 - 1
    assert kernel_batches.eigvalsh == 0


@pytest.mark.parametrize("r, matrices, calls", [(6, 1846, 342), (7, 4848, 701),
                                                 (8, 12030, 1401)],
                         ids=["6-1846", "7-4848", "8-12030"])
def test_sweep_solve_counts_on_wielandt_qc_forms(r, matrices, calls, kernel_batches):
    # one sum solved per mask: every mask of each iterated-effect table
    # below an alive parent, and the state masks its candidate splits need;
    # each batch holds the children of pending parents, at most 2r - 1; the
    # iterates of a qc form are diagonal, so no batch goes to eigvalsh
    form = qc_from_stochastic(wielandt_matrix(r))
    assert sweep_positive_iterate(form) == (True, r * r - 2 * r + 2)
    assert (kernel_batches.sums, kernel_batches.calls) == (matrices, calls)
    assert kernel_batches.largest <= 2 * r - 1
    assert kernel_batches.eigvalsh == 0


def test_gaussian_forms_solve_each_batch_with_one_eigvalsh(kernel_batches):
    # Gaussian states and effects are not diagonal: the search and the sweep
    # send every batch of subset sums to one eigvalsh call
    form = random_holevo_form(np.random.default_rng(42), 3, 6, state_ranks=[1] * 6)
    kernel_batches.reset()
    channel_primitivity_index(form)
    sweep_positive_iterate(form)
    assert kernel_batches.calls > 0
    assert kernel_batches.eigvalsh == kernel_batches.calls


@pytest.mark.parametrize("r", range(2, 9))
def test_sweep_reaches_the_wielandt_index_on_wielandt_qc_forms(r):
    # q = p = r^2 - 2r + 2; one step short, the states of pairs 1..r-1 share a kernel
    form = qc_from_stochastic(wielandt_matrix(r))
    q = r * r - 2 * r + 2
    assert sweep_positive_iterate(form) == (True, q)
    assert strictly_positive_at(form, q - 1).subset == tuple(range(1, r))


def _loop_split_scan(form, m):
    """Reference split scan: hand-added subset sums and a Python loop over masks."""
    n, r, tol = form.n, form.r, form.tol
    full = (1 << r) - 1
    states = list(form.states)
    effects_m = list(iterated_form(form, m).effects)

    def subset_sum(mats, indices):
        h = np.zeros((n, n), dtype=np.complex128)
        for k in indices:
            h = h + mats[k]
        return h

    def table(mats):
        alive = np.zeros(1 << r, dtype=bool)
        alive[0] = True
        for mask in range(1, full + 1):
            if alive[mask & (mask - 1)]:
                members = [k for k in range(r) if mask >> k & 1]
                alive[mask] = _symmetrized_kernel_dim(subset_sum(mats, members), tol) > 0
        return alive

    def kernel_vector(mats, indices):
        if not indices:
            e0 = np.zeros(n, dtype=np.complex128)
            e0[0] = 1.0
            return e0
        return kernel_psd(subset_sum(mats, indices), tol)[:, 0]

    alive_states, alive_g = table(states), table(effects_m)
    for t_mask in range(full + 1):
        if alive_states[t_mask] and alive_g[full ^ t_mask]:
            subset = tuple(k for k in range(r) if t_mask >> k & 1)
            complement = tuple(k for k in range(r) if not t_mask >> k & 1)
            phi = kernel_vector(states, subset)
            psi = kernel_vector(effects_m, complement)
            return False, subset, psi, phi
    return True, None, None, None


def _split_scan_forms(rng):
    forms = [random_qc_form(rng, int(rng.integers(2, 8)),
                            zero_fraction=float(rng.uniform(0.3, 0.7)))
             for _ in range(70)]
    for _ in range(110):  # pure states, fewer than n, so the state sum is singular
        n = int(rng.integers(3, 7))
        r = int(rng.integers(2, n))
        forms.append(random_holevo_form(rng, n, r, state_ranks=[1] * r))
    for _ in range(30):  # relabelled Wielandt patterns with a random chord split
        r = int(rng.integers(2, 9))
        s = np.array(wielandt_matrix(r))
        s[0, r - 1] = rng.uniform(0.1, 0.9)
        s[1, r - 1] = 1.0 - s[0, r - 1]
        perm = rng.permutation(r)
        forms.append(qc_from_stochastic(s[np.ix_(perm, perm)]))
    return forms


def test_split_scan_matches_the_mask_loop():
    # the stacked sums and the reversed-table lookup must reproduce the
    # per-mask loop bit for bit, first split in increasing bitmask order
    forms = _split_scan_forms(np.random.default_rng(61))
    assert len(forms) >= 200 and max(form.r for form in forms) <= 8
    negative = 0
    for form in forms:
        for m in (1, 2, 3):
            holds, subset, state, direction = _loop_split_scan(form, m)
            got = strictly_positive_at(form, m)
            assert got.holds == holds and got.m == m and got.subset == subset
            if holds:
                assert got.state is got.direction is None
                continue
            negative += 1
            assert np.array_equal(got.state, state)
            assert np.array_equal(got.direction, direction)
    assert negative >= 200
