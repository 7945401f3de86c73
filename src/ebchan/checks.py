"""Cross-validation suite for channels in Holevo form.

Every check recomputes a quantity along two independent routes and compares,
so a bug in either route surfaces as a mismatch rather than silently
propagating.  Used by the ``verify`` CLI command and by the test suite.
"""

from __future__ import annotations

__all__ = ["CheckResult", "run_channel_checks"]

from dataclasses import dataclass

import numpy as np

from .channel import (HolevoForm, apply_linear, compare_nonzero_spectrum, factorization,
                      fixed_point, iterated_form, stochastic_rep)
from .linalg import ROUTE_TOL, _stationary_tol, vec
from .primitivity import (SUBSET_CAP, _channel_index_bound, channel_primitivity_index,
                          strictly_positive_at, sweep_positive_iterate)

CONVERGENCE_TOL = 1e-6

# 2**SWEEP_CAP subset kernels per iterate limit the definition-level sweep.
# Beyond it no check asserts positivity, which decayed iterated weights hide.
SWEEP_CAP = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _result(name: str, ok, detail: str) -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def run_channel_checks(form: HolevoForm, rng=None) -> list:
    """Run the full invariant suite on one channel; returns all results.

    The natural rep K is read once per form, by the range pass whose
    (Q, Q* K) the form caches (``HolevoForm._action_range``): Q* K comes
    from ``apply_linear`` on matrix units, never from A B, and K = Q (Q* K)
    is what that pass checks by its residual; a failed residual raises
    ConsistencyError. K is never held whole. ``linear_extension``
    compares the channel's action with Q (Q* K) vec(X) on 50 random
    complex operators. They are drawn as one (50, 2, n, n) standard-normal
    block, which takes the same stream in the same order as 50 sequential
    (real, imag) pairs of n x n draws, and go through ``apply_linear`` as
    one stacked action; the check reports the worst max |direct - via rep|
    / (1 + max |X|). ``factorization`` reports
    max_j ||(Q* K - (Q* A) B)[:, j]||_2, which bounds max |K - A B| because
    the columns of A lie in range(Q), with the |S - BA| and imaginary-leak
    terms from one B A. ``iterated_form`` draws its two probes (m = 2, 3)
    the same way, as one (2, 2, n, n) block, and composes them as a stack:
    three channel actions for the chains and one per iterated form. A run
    on a form whose range is cached makes 7 ``apply_linear`` calls, none on
    a matrix unit, and m more to grade the witness that m = q - 1 (or
    r^2 - 2r + 3, if not primitive) is not positive yet.

    ``fixed_point_convergence`` squares the compression C = (Q* K) Q whose
    eigenvalues the spectrum check takes: it asks whether the iterates of one
    input state are within ``CONVERGENCE_TOL`` of the fixed point at m = 1,
    2, 4, ... up to 2^32 steps. Whether S is primitive comes from the one
    ``channel_primitivity_index`` report that the primitivity checks read too.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, r = form.n, form.r
    out = []

    closure = np.eye(n, dtype=np.complex128)
    for f in form.effects:
        closure -= f
    defect = float(np.max(np.abs(closure)))
    out.append(_result("povm_closure", defect <= form.tol.stochastic_tol,
                       f"max |sum F - I| = {defect:.3e}"))

    probes = rng.standard_normal((50, 2, n, n))  # (real, imag) per probe, in draw order
    xs = probes[:, 0] + 1j * probes[:, 1]
    flat = xs.reshape(len(xs), n * n)  # row i is vec(X_i)
    direct = apply_linear(form, xs).reshape(flat.shape)
    q, qh_rep = form._action_range
    via_rep = (flat @ qh_rep.T) @ q.T  # row i is Q (Q* K) vec(X_i) = K vec(X_i)
    scale = 1.0 + np.max(np.abs(xs), axis=(1, 2))
    worst = float(np.max(np.max(np.abs(direct - via_rep), axis=1) / scale))
    out.append(_result("linear_extension", worst <= ROUTE_TOL,
                       f"max relative action mismatch = {worst:.3e}"))

    a, b = factorization(form)
    # K - A B = Q (Q* K - (Q* A) B), and no entry of Q v exceeds ||v||_2
    ab_defect = float(np.max(np.linalg.norm(qh_rep - (q.conj().T @ a) @ b, axis=0)))
    ba = b @ a
    ba_defect = float(np.max(np.abs(stochastic_rep(form) - ba.real)))
    imag_leak = float(np.max(np.abs(ba.imag)))
    out.append(_result("factorization", max(ab_defect, ba_defect, imag_leak) <= ROUTE_TOL,
                       f"|rep - AB| <= {ab_defect:.3e} (largest column 2-norm), "
                       f"|S - BA| = {ba_defect:.3e}"))

    # one (real, imag) probe per iterated form, m = 2 and 3, in draw order
    probes = rng.standard_normal((2, 2, n, n))
    xs = probes[:, 0] + 1j * probes[:, 1]
    twice = apply_linear(form, apply_linear(form, xs))
    composed = (twice[0], apply_linear(form, twice[1]))
    worst_iter = 0.0
    for m, x, chained in zip((2, 3), xs, composed):
        at_once = apply_linear(iterated_form(form, m), x)
        scale = 1.0 + float(np.max(np.abs(x)))
        worst_iter = max(worst_iter, float(np.max(np.abs(chained - at_once))) / scale)
    out.append(_result("iterated_form", worst_iter <= ROUTE_TOL,
                       f"max m-fold composition mismatch = {worst_iter:.3e}"))

    spec = compare_nonzero_spectrum(form)
    out.append(_result("nonzero_spectrum", spec.matched,
                       f"{len(spec.channel_nonzero)} vs {len(spec.matrix_nonzero)} eigenvalues, "
                       f"max pair distance = {spec.max_pair_distance:.3e}"))

    fp = fixed_point(form)
    out.append(_result("fixed_point_residual", fp.residual <= _stationary_tol(form.tol),
                       f"|apply(rho*) - rho*| = {fp.residual:.3e}"))
    report = channel_primitivity_index(form)
    if report.s_primitive:
        # primitive channels forget their input. K^m vec(rho) = Q P h with
        # P = C^(m-1), C = Q* K Q and h = Q* K vec(rho); P <- P C P doubles m.
        # Round-off in P grows about as m * eps, so doubling stops before that
        # reaches CONVERGENCE_TOL (m = 2^32), where the distance says no more
        c = qh_rep @ q
        h = qh_rep @ vec(np.diag([2.0] + [1.0] * (n - 1)) / (n + 1))  # rho = diag(2, 1, ...) / tr
        target = vec(fp.rho)
        power, m = np.eye(len(c)), 1
        dist = float(np.max(np.abs(q @ h - target)))
        while dist > CONVERGENCE_TOL and 2 * m * np.finfo(np.float64).eps < CONVERGENCE_TOL:
            power = power @ c @ power
            m *= 2
            dist = float(np.max(np.abs(q @ (power @ h) - target)))
        out.append(_result("fixed_point_convergence", dist <= CONVERGENCE_TOL,
                           f"distance {dist:.3e} after {m} iterations"))

    structural = report.channel_primitive
    if r <= SWEEP_CAP:
        swept, swept_index = sweep_positive_iterate(form)
        agree = (structural == swept) and (report.q_index == swept_index)
        out.append(_result("primitivity_two_routes", agree,
                           f"structural: primitive={structural} q={report.q_index}; "
                           f"sweep: primitive={swept} q={swept_index}"))
    if report.q_index is not None and report.p_index is not None:
        out.append(_result("index_gap", report.bound_abs_diff_ok,
                           f"|q - p| = |{report.q_index} - {report.p_index}|"))

    # the last m without positivity: q - 1, or the index bound r^2 - 2r + 3
    # for a channel that is not primitive; with q = 1 there is none to probe
    probe_m = _channel_index_bound(r) if report.q_index is None else report.q_index - 1
    if r <= SUBSET_CAP and probe_m >= 1:
        res = strictly_positive_at(form, probe_m)
        if res.holds:
            out.append(_result("witness_soundness", False,
                               f"positivity already holds at m = {probe_m}"))
        else:
            image = np.outer(res.state, res.state.conj())
            for _ in range(probe_m):
                image = apply_linear(form, image)
            leak = abs(res.direction.conj() @ image @ res.direction)
            # the kernel cuts leave <phi|R_T|phi> below zero_eig_tol * max(1,
            # lambda_max(R_T)) and psi's value on the other iterated effects,
            # which sum to at most I, below zero_eig_tol; each other factor
            # of a term is at most 1
            states_max = np.linalg.eigvalsh(form.states[list(res.subset)].sum(axis=0))[-1]
            cut = form.tol.zero_eig_tol * (max(1.0, states_max) + 1.0)
            out.append(_result("witness_soundness", leak <= cut,
                               f"claimed-zero matrix element = {leak:.3e} at m = {probe_m}"))
    return out
