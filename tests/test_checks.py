import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ebchan
from ebchan import channel, checks, cli, primitivity, stochastic
from ebchan.channel import (HolevoForm, depolarizing, fixed_point, iterated_form,
                            make_holevo_form, map_to_diagonal, natural_rep,
                            qc_from_stochastic, stochastic_rep)
from ebchan.checks import run_channel_checks
from ebchan.linalg import DEFAULT_TOL, Tolerances, vec
from ebchan.primitivity import channel_primitivity_index
from ebchan.sampling import random_channel, random_holevo_form, random_qc_form, wielandt_matrix

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


def names(results) -> set:
    return {res.name for res in results}


def test_full_suite_on_flip_example():
    form = make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])
    results = run_channel_checks(form)
    assert all(res.ok for res in results)
    got = names(results)
    assert {"povm_closure", "linear_extension", "factorization",
            "iterated_form", "nonzero_spectrum", "fixed_point_residual",
            "fixed_point_convergence", "primitivity_two_routes", "index_gap"} <= got
    # q <= p + 1 <= r^2 - 2r + 3 whenever q exists, so no check restates that bound
    assert "index_bound" not in got
    # q = 2, so the probe runs at m = 1, where positivity fails with a witness
    assert "witness_soundness" in got


def test_suite_on_non_primitive_channel():
    results = run_channel_checks(map_to_diagonal(3))
    assert all(res.ok for res in results)
    got = names(results)
    # no convergence or index facts to check when the channel is not primitive
    assert "fixed_point_convergence" not in got
    assert "index_gap" not in got
    assert "primitivity_two_routes" in got
    # the failed positivity probe must come back with a sound witness
    assert "witness_soundness" in got


def test_suite_on_depolarizing():
    results = run_channel_checks(depolarizing(3))
    assert all(res.ok for res in results)
    # q = 1 on the nose, so the negative-witness probe has nothing to report
    assert "witness_soundness" not in names(results)


def test_suite_on_random_channels():
    rng = np.random.default_rng(50)
    for _ in range(10):
        form = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(1, 6)))
        results = run_channel_checks(form, rng=rng)
        failed = [res for res in results if not res.ok]
        assert not failed, [(res.name, res.detail) for res in failed]


def test_details_carry_numbers():
    form = make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])
    by_name = {res.name: res for res in run_channel_checks(form)}
    assert "max |sum F - I|" in by_name["povm_closure"].detail
    assert "iterations" in by_name["fixed_point_convergence"].detail
    assert "q=2" in by_name["primitivity_two_routes"].detail

    diag = {res.name: res for res in run_channel_checks(map_to_diagonal(2))}
    assert "claimed-zero matrix element" in diag["witness_soundness"].detail


@pytest.mark.parametrize("delta, leak", [(5e-7, 0.0), (2e-7, 6e-7)])
def test_witness_is_graded_under_the_forms_zero_eig_tol(delta, leak):
    # S = [[1 - delta, 0], [delta, 1]] keeps |1> fixed, so the channel is not
    # primitive and the probe runs at r^2 - 2r + 3 = 3. There the iterated
    # effect diag(3 delta, 1) has a kernel under zero_eig_tol = 1e-6 for
    # delta = 2e-7, and its witness leaves a matrix element of 6e-7, inside
    # the form's cut; with delta = 5e-7 the witness is the exact one
    tol = Tolerances(zero_eig_tol=1e-6)
    form = make_holevo_form(2, [(np.diag([1 - delta, 0.0]), E00), (np.diag([delta, 1.0]), E11)],
                            tol)
    by_name = {res.name: res for res in run_channel_checks(form)}
    assert all(res.ok for res in by_name.values()), by_name
    assert by_name["witness_soundness"].detail == (
        f"claimed-zero matrix element = {leak:.3e} at m = 3")


def sparse_qc_form_on_thirteen_pairs():
    """Above SWEEP_CAP, within SUBSET_CAP: p = q = 3."""
    return random_qc_form(np.random.default_rng(3), 13, zero_fraction=0.6)


def test_true_report_passes_above_the_sweep_cap():
    form = sparse_qc_form_on_thirteen_pairs()
    by_name = {res.name: res for res in run_channel_checks(form)}
    assert all(res.ok for res in by_name.values()), by_name
    assert "primitivity_two_routes" not in by_name
    assert by_name["witness_soundness"].detail.endswith(" at m = 2")


@pytest.mark.parametrize("claim, detail", [
    (dict(q_index=4), "positivity already holds at m = 3"),
    (dict(channel_primitive=False, q_index=None), "positivity already holds at m = 146"),
], ids=["q+1", "not-primitive"])
def test_wrong_reports_fail_above_the_sweep_cap(monkeypatch, claim, detail):
    # a q one too small would need positivity asserted at q, which the
    # checks leave to the sweep (see the decayed forms below)
    form = sparse_qc_form_on_thirteen_pairs()
    report = replace(channel_primitivity_index(form), **claim)
    monkeypatch.setattr(checks, "channel_primitivity_index", lambda form: report)
    bad = [(res.name, res.detail) for res in run_channel_checks(form) if not res.ok]
    assert bad == [("witness_soundness", detail)]


@pytest.mark.parametrize("r, eps", [(13, 1e-2), (13, 1e-3), (14, 0.1)])
def test_decayed_wielandt_forms_pass_above_the_sweep_cap(r, eps):
    # chord weights (eps, 1 - eps): S^(q-1) has entries far below the kernel
    # cut, so a kernel test on the iterated effects finds no positive m = q
    # on these primitive channels, and above SWEEP_CAP no check asks it.
    # With eps = 1e-3, |lambda_2| is about 1 - 1.1e-5: the iterates reach the
    # fixed point only after about 2^20 steps
    s = np.array(wielandt_matrix(r))
    s[0, r - 1], s[1, r - 1] = eps, 1.0 - eps
    results = run_channel_checks(qc_from_stochastic(s))
    assert all(res.ok for res in results), [res for res in results if not res.ok]


def test_convergence_fails_on_a_moved_fixed_point(monkeypatch):
    # the target is the true fixed point shifted by 1e-3 on the diagonal, at
    # trace 1: the iterates never come within CONVERGENCE_TOL of it, so the
    # check doubles m up to its cap 2^32 and reports the distance there
    def moved(form):
        fp = fixed_point(form)
        rho = fp.rho + np.diag([1e-3, -1e-3])
        rho.setflags(write=False)
        return replace(fp, rho=rho)

    monkeypatch.setattr(checks, "fixed_point", moved)
    form = make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])
    bad = [(res.name, res.detail) for res in run_channel_checks(form) if not res.ok]
    assert bad == [("fixed_point_convergence", f"distance 1.000e-03 after {2 ** 32} iterations")]


def power_loop(form):
    """(converged, distances) of v <- K v from the check's input, at most 200,000 steps.

    ``distances[m]`` is the distance after m steps. The loop runs on past
    convergence to the next power of two, the m the check stops at.
    """
    rep, target, n = natural_rep(form), vec(fixed_point(form).rho), form.n
    rho = np.eye(n, dtype=complex)
    rho[0, 0] += 1.0
    v = vec(rho / np.trace(rho).real)
    distances, converged, m = [float(np.max(np.abs(v - target)))], False, 0
    while m < 200_000 and not (converged and m & (m - 1) == 0):
        v = rep @ v
        m += 1
        distances.append(float(np.max(np.abs(v - target))))
        converged = converged or distances[-1] <= checks.CONVERGENCE_TOL
    return converged, distances


def test_squaring_matches_a_power_loop():
    rng = np.random.default_rng(67)
    compared = 0
    for i in range(200):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 8))
        form = (random_channel(rng, n, r), random_qc_form(rng, n),
                random_holevo_form(rng, n, r))[i % 3]
        by_name = {res.name: res for res in run_channel_checks(form, rng)}
        if not channel_primitivity_index(form).s_primitive:
            assert "fixed_point_convergence" not in by_name
            continue
        check = by_name["fixed_point_convergence"]
        converged, distances = power_loop(form)
        assert check.ok == converged
        if converged:
            # "distance D after M iterations", with M a power of two
            words = check.detail.split()
            m = int(words[3])
            assert m & (m - 1) == 0 and abs(float(words[1]) - distances[m]) <= 1e-9
            compared += 1
    assert compared > 150


@pytest.mark.parametrize("excess", [5e-10, 5e-9])
def test_stationary_residual_follows_the_forms_stochastic_tol(excess):
    # the column of |1><1| in S sums to 1 + excess, within stochastic_tol =
    # 1e-8, so the stationary solve leaves a residual of about excess / 4:
    # above ROUTE_TOL, and within the form's column-sum slack
    tol = Tolerances(stochastic_tol=1e-8)
    form = make_holevo_form(2, [(np.diag([0.5, 0.5 + excess]), E00), (IDENT / 2, E11)], tol)
    assert fixed_point(form).residual > excess / 5
    assert all(res.ok for res in run_channel_checks(form))
    assert cli.report_inconsistencies(cli.analyze_form(form)) == []


def test_bounds_only_forms_run_no_sweep_and_no_probe():
    form = random_holevo_form(np.random.default_rng(0), 2, 21)
    assert channel_primitivity_index(form).q_method == "bounds-only"
    results = run_channel_checks(form)
    assert all(res.ok for res in results)
    assert not names(results) & {"primitivity_two_routes", "index_gap", "witness_soundness"}


def test_linear_extension_probes_are_the_sequential_draws(monkeypatch):
    # the stacked probes must be the 50 (real, imag) pairs the loop drew one
    # at a time, and the run must leave the stream where the loop left it
    form = random_channel(np.random.default_rng(60), 3, 4)
    stacks = []
    apply_linear = checks.apply_linear

    def spy(form, x):
        if np.shape(x)[0] == 50:  # the iterated-form check passes (2, n, n) stacks
            stacks.append(np.array(x))
        return apply_linear(form, x)

    monkeypatch.setattr(checks, "apply_linear", spy)
    rng = np.random.default_rng(61)
    results = run_channel_checks(form, rng=rng)
    assert all(res.ok for res in results)

    reference = np.random.default_rng(61)
    expected = []
    for _ in range(50):
        real = reference.standard_normal((3, 3))
        expected.append(real + 1j * reference.standard_normal((3, 3)))
    assert len(stacks) == 1 and np.array_equal(stacks[0], np.array(expected))
    for _ in range(2):  # one probe per iterated form, m = 2 and 3
        reference.standard_normal((3, 3))
        reference.standard_normal((3, 3))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_linear_extension_fails_on_a_moved_rep_entry(monkeypatch):
    # n = 9 reads K in two blocks; the entry moves in the second, so both
    # checks that read K must see every block
    blocks = checks._stacked_rep_blocks

    def moved(form):
        for start, block in blocks(form):
            if start > 0:
                block[4, 7] += 1e-6
            yield start, block

    monkeypatch.setattr(checks, "_stacked_rep_blocks", moved)
    form = random_holevo_form(np.random.default_rng(62), 9, 3)
    by_name = {res.name: res for res in run_channel_checks(form)}
    for name in ("linear_extension", "factorization"):
        assert not by_name[name].ok, by_name[name].detail


def test_checks_hold_no_whole_natural_rep():
    n = 32
    form = random_holevo_form(np.random.default_rng(5), n, 4)
    tracemalloc.start()
    try:
        results = run_channel_checks(form)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(res.ok for res in results)
    assert peak < 16 * n ** 4  # K alone takes 16 n^4 bytes, 16.8 MB here


def count_calls(monkeypatch, module, name, *modules):
    """Wrap ``module.name`` (and its imported copies in ``modules``) to record each call."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in (module, *modules):
        monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_channel_actions_per_check_run(monkeypatch, n):
    # one stacked call for the natural rep (n^2 <= 64), one for the
    # linear_extension probes, five for the two iterated-form probes (three
    # for the stacked chains, one per iterated form), one for the fixed point,
    # and m to grade the witness at the probe m = q - 1 (r^2 - 2r + 3 if not
    # primitive); a fresh form adds n^2 for the streamed range pass
    calls = count_calls(monkeypatch, channel, "apply_linear", checks)
    rng = np.random.default_rng(63 + n)
    for r in (1, 2, 4):
        form = random_channel(rng, n, r)
        q = channel_primitivity_index(form).q_index
        witness = r * r - 2 * r + 3 if q is None else q - 1
        del calls[:]
        assert all(res.ok for res in run_channel_checks(form, rng=rng))
        assert len(calls) <= n * n + 8 + witness
        del calls[:]
        assert all(res.ok for res in run_channel_checks(form, rng=rng))  # range now cached
        assert len(calls) <= 8 + witness


def test_fixed_point_reads_the_validated_stochastic_matrix(monkeypatch):
    # stochastic_rep validates S when it builds it; fixed_point solves on that copy
    calls = count_calls(monkeypatch, stochastic, "make_stochastic", channel)
    for form in (random_channel(np.random.default_rng(65), 3, 4),
                 make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])):
        stochastic_rep(form)
        del calls[:]
        fixed_point(form)
        assert calls == []


def test_stochastic_matrix_is_computed_once_per_form(monkeypatch):
    calls = count_calls(monkeypatch, channel, "_induced_stochastic")
    rng = np.random.default_rng(64)
    for tol in (DEFAULT_TOL, Tolerances(psd_tol=1e-10)):
        for form in (random_channel(rng, 2, 3, tol), random_channel(rng, 3, 2, tol),
                     make_holevo_form(2, [(PLUS, E00), (MINUS, E11)], tol)):
            del calls[:]
            assert all(res.ok for res in run_channel_checks(form, rng))
            ids = [id(f) for f, in calls]  # calls holds every form, so ids stay unique
            assert len(ids) == len(set(ids)) and ids.count(id(form)) == 1
            assert all(f.tol is tol for f, in calls)


def test_checks_read_the_forms_own_psd_tol():
    # lambda_min(R[0]) = -1e-7 passes the form's psd_tol of 1e-6 but not the
    # default 1e-9, so the subset kernel test must cut by the form's
    loose = Tolerances(psd_tol=1e-6)
    form = make_holevo_form(2, [(IDENT / 2, np.diag([1 + 1e-7, -1e-7])), (IDENT / 2, E11)],
                            loose)
    report = channel_primitivity_index(form)
    assert (report.p_index, report.q_index) == (1, 1)
    assert all(res.ok for res in run_channel_checks(form))


def test_no_analysis_of_a_form_takes_tolerances():
    # a form carries the tolerances it was validated under, and nothing else
    # may hand an analysis a second set
    functions = [obj for module in (ebchan, cli) for obj in vars(module).values()
                 if inspect.isfunction(obj)]
    on_forms = []
    for fn in functions:
        params = list(inspect.signature(fn).parameters.values())
        if params and params[0].annotation in (HolevoForm, "HolevoForm"):
            on_forms.append(fn.__name__)
            assert "tol" not in [p.name for p in params], fn.__name__
    assert {"stochastic_rep", "iterated_form", "run_channel_checks",
            "analyze_form", "sweep_positive_iterate"} <= set(on_forms)
    loose = Tolerances(psd_tol=1e-6)
    form = make_holevo_form(2, [(PLUS, E00), (MINUS, E11)], loose)
    assert form.tol is loose
    for m in (1, 2, 3):
        assert iterated_form(form, m).tol is form.tol


def test_stochastic_verdict_is_computed_once_per_check_run(monkeypatch):
    # fixed_point_convergence reads S's primitivity and p from the one
    # channel_primitivity_index report; wrap every module-level copy of the function
    copies = [mod for mod in (checks, primitivity) if hasattr(mod, "primitivity_index")]
    calls = count_calls(monkeypatch, stochastic, "primitivity_index", *copies)
    rng = np.random.default_rng(66)
    for form in (make_holevo_form(2, [(PLUS, E00), (MINUS, E11)]), map_to_diagonal(3),
                 depolarizing(2), random_channel(rng, 3, 4), random_channel(rng, 2, 3)):
        del calls[:]
        assert all(res.ok for res in run_channel_checks(form, rng=rng))
        assert len(calls) == 1
