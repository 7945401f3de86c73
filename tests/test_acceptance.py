"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line in the terminal summary (see conftest)
and covers one observable guarantee of the package, at the tolerance the
guarantee is stated with.
"""

import numpy as np
import pytest

from ebchan.channel import (apply_linear, depolarizing, factorization,
                            holevo_from_rank_one_kraus, make_holevo_form,
                            map_to_diagonal, natural_rep, qc_from_stochastic,
                            compare_nonzero_spectrum, fixed_point,
                            stochastic_rep)
from ebchan.linalg import vec
from ebchan.primitivity import (channel_primitivity_index, strictly_positive_at,
                                sweep_positive_iterate)
from ebchan.sampling import (random_channel, random_density,
                             random_stochastic)
from ebchan.stochastic import primitivity_index

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
IDENT = np.eye(2, dtype=complex)

SUITE_SEED = 20110


def _finish(record, label: str, failures: list) -> None:
    if not failures:
        record(f"{label}: PASS")
    else:
        extra = f" and {len(failures) - 1} more" if len(failures) > 1 else ""
        record(f"{label}: FAIL ({failures[0]}{extra})")
    assert not failures, f"{label}: {failures[:5]}"


@pytest.fixture(scope="module")
def suite_200():
    """200 mixed-family channels with n in {2, 3} and r in 1..6."""
    rng = np.random.default_rng(7)
    forms = []
    for _ in range(200):
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 7))
        forms.append(random_channel(rng, n, r))
    return forms


@pytest.fixture(scope="module")
def suite_100():
    """100 mixed-family channels with n in {2, 3} and r in 1..5."""
    rng = np.random.default_rng(SUITE_SEED)
    forms = []
    for _ in range(100):
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 6))
        forms.append(random_channel(rng, n, r))
    return forms


def test_projective_flip_example(acceptance):
    failures = []
    form = make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])
    s = stochastic_rep(form)
    if np.max(np.abs(s - np.full((2, 2), 0.5))) > 1e-12:
        failures.append(f"stochastic matrix off by {np.max(np.abs(s - 0.5)):.3e}")
    report = channel_primitivity_index(form)
    if report.p_index != 1:
        failures.append(f"matrix index {report.p_index} != 1")
    if report.q_index != 2:
        failures.append(f"channel index {report.q_index} != 2")
    rng = np.random.default_rng(1)
    target = np.eye(2, dtype=complex) / 2
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, 2)
        worst = max(worst, float(np.max(np.abs(apply_linear(form, apply_linear(form, rho)) - target))))
    if worst > 1e-10:
        failures.append(f"second iterate misses the flat state by {worst:.3e}")
    _finish(acceptance, "01 projective flip channel", failures)


def test_three_effect_overlap_example(acceptance):
    failures = []
    form = make_holevo_form(2, [(0.5 * E00, E00), (0.5 * E11, E00),
                                (0.5 * IDENT, E11)])
    expected = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.5], [0.5, 0.5, 0.5]])
    s = stochastic_rep(form)
    if np.max(np.abs(s - expected)) > 1e-12:
        failures.append(f"stochastic matrix off by {np.max(np.abs(s - expected)):.3e}")
    report = channel_primitivity_index(form)
    if report.q_index != 1:
        failures.append(f"channel index {report.q_index} != 1")
    if report.p_index != 2:
        failures.append(f"matrix index {report.p_index} != 2")
    _finish(acceptance, "02 three-effect overlap channel", failures)


def test_spectra_agree_across_random_forms(acceptance, suite_200):
    failures = []
    worst = 0.0
    for i, form in enumerate(suite_200):
        spec = compare_nonzero_spectrum(form)
        worst = max(worst, float(spec.max_pair_distance))
        if not spec.matched:
            failures.append(f"form {i} (n={form.n}, r={form.r}): "
                            f"pair distance {spec.max_pair_distance:.3e} > 1e-6")
    _finish(acceptance, f"03 nonzero spectra agree on 200 random forms "
                        f"(worst {worst:.2e})", failures)


def test_factorization_reproduces_both_representations(acceptance, suite_200):
    failures = []
    worst = 0.0
    for i, form in enumerate(suite_200):
        a, b = factorization(form)
        rep_gap = float(np.max(np.abs(natural_rep(form) - a @ b)))
        s_gap = float(np.max(np.abs(stochastic_rep(form) - b @ a)))
        worst = max(worst, rep_gap, s_gap)
        if rep_gap > 1e-10 or s_gap > 1e-10:
            failures.append(f"form {i}: |rep - AB| = {rep_gap:.3e}, "
                            f"|S - BA| = {s_gap:.3e}")
    _finish(acceptance, f"04 factorization matches action and matrix "
                        f"(worst {worst:.2e})", failures)


def test_classical_matrix_round_trip(acceptance):
    failures = []
    rng = np.random.default_rng(9)
    worst = 0.0
    for i in range(100):
        r = int(rng.integers(1, 9))
        s = random_stochastic(rng, r, zero_fraction=float(rng.uniform(0.0, 0.6)),
                              no_zero_rows=True)
        gap = float(np.max(np.abs(stochastic_rep(qc_from_stochastic(s)) - s)))
        worst = max(worst, gap)
        if gap > 1e-12:
            failures.append(f"matrix {i} (r={r}): round trip off by {gap:.3e}")
    _finish(acceptance, f"05 classical channels round-trip their matrix "
                        f"(worst {worst:.2e})", failures)


def test_structural_verdict_matches_definition_sweep(acceptance, suite_100):
    failures = []
    primitive_count = 0
    for i, form in enumerate(suite_100):
        report = channel_primitivity_index(form)
        structural = report.channel_primitive
        swept, swept_index = sweep_positive_iterate(form)
        if structural != swept:
            failures.append(f"channel {i} (n={form.n}, r={form.r}): "
                            f"structural {structural} vs sweep {swept}")
            continue
        if structural:
            primitive_count += 1
            q = report.q_index
            if q != swept_index:
                failures.append(f"channel {i}: index {q} vs sweep {swept_index}")
    if primitive_count == 0 or primitive_count == len(suite_100):
        failures.append(f"suite lacks variety: {primitive_count} primitive of "
                        f"{len(suite_100)}")
    _finish(acceptance, f"06 structural primitivity matches definition sweep "
                        f"({primitive_count} primitive of {len(suite_100)})", failures)


def test_index_bounds_across_suite(acceptance, suite_100):
    failures = []
    gap_one_seen = 0
    for i, form in enumerate(suite_100):
        report = channel_primitivity_index(form)
        if not report.channel_primitive:
            continue
        r = form.r
        if abs(report.q_index - report.p_index) > 1:
            failures.append(f"channel {i}: |q - p| = "
                            f"|{report.q_index} - {report.p_index}| > 1")
        if report.q_index > r * r - 2 * r + 3:
            failures.append(f"channel {i}: q = {report.q_index} exceeds "
                            f"r^2 - 2r + 3 = {r * r - 2 * r + 3}")
        if report.q_index != report.p_index:
            gap_one_seen += 1
    _finish(acceptance, f"07 index gap and pair-count bound hold "
                        f"({gap_one_seen} channels with q != p)", failures)


def test_fixed_points_invariant_and_attracting(acceptance, suite_100):
    failures = []
    worst_steps = 0
    for i, form in enumerate(suite_100):
        fp = fixed_point(form)
        if fp.residual > 1e-10:
            failures.append(f"channel {i}: fixed point residual {fp.residual:.3e}")
            continue
        report = channel_primitivity_index(form)
        if not report.channel_primitive:
            continue
        r = form.r
        cap = 4 * (r * r - 2 * r + 2) + 100
        rep = natural_rep(form)
        target = vec(fp.rho)
        rng = np.random.default_rng(1000 + i)
        for j in range(20):
            v = vec(random_density(rng, form.n))
            steps = 0
            dist = float(np.max(np.abs(v - target)))
            while dist > 1e-6 and steps < cap:
                v = rep @ v
                dist = float(np.max(np.abs(v - target)))
                steps += 1
            worst_steps = max(worst_steps, steps)
            if dist > 1e-6:
                failures.append(f"channel {i} state {j}: distance {dist:.3e} "
                                f"after {cap} steps")
                break
    _finish(acceptance, f"08 fixed points invariant and attracting "
                        f"(worst {worst_steps} steps)", failures)


def test_named_builders(acceptance):
    failures = []
    for n in (2, 3):
        s = stochastic_rep(depolarizing(n))
        if s.shape != (1, 1) or abs(s[0, 0] - 1.0) > 1e-12:
            failures.append(f"flattening builder at n={n} has matrix {s}")
    diag = map_to_diagonal(3)
    if np.max(np.abs(stochastic_rep(diag) - np.eye(3))) > 1e-12:
        failures.append("diagonal-restriction builder matrix is not the identity")
    if not primitivity_index(stochastic_rep(diag)).primitive is False:
        failures.append("identity matrix flagged primitive")
    if channel_primitivity_index(diag).channel_primitive:
        failures.append("diagonal-restriction channel flagged primitive")

    n = 2
    ops = []
    for i in range(n):
        for j in range(n):
            v = np.zeros((n, n), dtype=complex)
            v[i, j] = 1.0 / np.sqrt(n)
            ops.append(v)
    from_kraus = holevo_from_rank_one_kraus(ops)
    reference = depolarizing(n)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        rho = random_density(rng, n)
        worst = max(worst, float(np.max(np.abs(apply_linear(from_kraus, rho)
                                               - apply_linear(reference, rho)))))
    if worst > 1e-10:
        failures.append(f"rank-one operator import misses flattening by {worst:.3e}")
    _finish(acceptance, "09 named builders behave as specified", failures)


def test_negative_verdicts_carry_sound_witnesses(acceptance, suite_100):
    failures = []
    checked = 0
    for i, form in enumerate(suite_100):
        for m in (1, 2):
            res = strictly_positive_at(form, m)
            if res.holds:
                continue
            checked += 1
            if res.state is None or res.direction is None or not res.subset:
                failures.append(f"channel {i} at m={m}: verdict without witness")
                continue
            sigma = np.outer(res.state, res.state.conj())
            out = sigma
            for _ in range(m):
                out = apply_linear(form, out)
            leak = abs(float(np.real(res.direction.conj() @ out @ res.direction)))
            if leak > 1e-8:
                failures.append(f"channel {i} at m={m}: witness element {leak:.3e}")
    if checked == 0:
        failures.append("no negative verdicts arose, witnesses untested")
    _finish(acceptance, f"10 negative verdicts carry sound witnesses "
                        f"({checked} verdicts checked)", failures)
