"""Independent numpy oracle for ebchan's outputs.

``expectation`` derives, from a channel document alone, the facts a correct
report must show: S = tr(F_i R_j), the matrix index p from powers of the
0/1 pattern, the channel index q from the document's family (q = p for
quantum-classical forms, p = r^2 - 2r + 2 for Wielandt forms, q = 2 for the
projective flip, and for forms whose effects are all positive definite
q = 1 exactly when the states sum to a definite matrix), the rank of the
channel's action from the r x r core of its factors, and the significant
eigenvalues of S. The ``check_*`` functions compare one op's output with
that and return a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import json
import re

import numpy as np

PATTERN_TOL = 1e-10      # entries of S above this count as positive
PD_TOL = 1e-9            # relative eigenvalue floor for "positive definite"
RANK_TOL = 1e-8          # relative singular-value floor for the action's rank
S_TOL = 1e-9
FIXED_POINT_TOL = 1e-8
EIG_FLOOR = 1e-3         # only eigenvalues this large are compared
EIG_TOL = 1e-6


def _matrix(lit):
    return np.array([[complex(re_, im) for re_, im in row] for row in lit])


def pattern_index(s):
    """Least m with (pattern of S)^m > 0, searched up to r^2 - 2r + 2; None if none."""
    p = (np.asarray(s) > PATTERN_TOL).astype(np.int64)
    r = p.shape[0]
    power = p
    for m in range(1, r * r - 2 * r + 3):
        if power.all():
            return m
        power = np.minimum(power @ p, 1)
    return None


def _is_pd(h):
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    return bool(w[0] > PD_TOL * max(1.0, float(w[-1])))


def _action_rank(effects, states):
    # rank(A B) = rank(Ra Rb^T) for A = Qa Ra and B^T = Qb Rb with orthonormal Q's
    n = effects[0].shape[0]
    a = np.column_stack([r.reshape(-1) for r in states])
    b_t = np.column_stack([f.T.reshape(-1) for f in effects])
    r = a.shape[1]
    if r > n * n:
        a_core, b_core = a, b_t
    else:
        a_core = np.linalg.qr(a, mode="r")
        b_core = np.linalg.qr(b_t, mode="r")
    sigma = np.linalg.svd(a_core @ b_core.T, compute_uv=False)
    return int(np.count_nonzero(sigma > RANK_TOL * max(1.0, float(sigma[0]))))


def _significant(values):
    values = np.asarray(values, dtype=np.complex128)
    return values[np.abs(values) >= EIG_FLOOR]


def expectation(text: str, family: str) -> dict:
    doc = json.loads(text)
    effects = [_matrix(p["F"]) for p in doc["pairs"]]
    states = [_matrix(p["R"]) for p in doc["pairs"]]
    n, r = int(doc["n"]), len(effects)
    s = np.einsum("iab,jba->ij", np.stack(effects), np.stack(states)).real
    p = pattern_index(s)
    if family == "flip":
        q = 2
    elif family in ("qc", "wielandt"):
        q = p
    elif family == "pd-effects":
        if not all(_is_pd(f) for f in effects):
            raise ValueError("document of family 'pd-effects' has a singular effect")
        q = 1 if _is_pd(sum(states)) else None
    else:
        raise ValueError(f"no oracle for family {family!r}")
    if family == "wielandt" and p != r * r - 2 * r + 2:
        raise ValueError(f"Wielandt pattern has p = {p}, expected {r * r - 2 * r + 2}")
    return {"n": n, "r": r, "s": s, "p": p, "q": q, "effects": effects, "states": states,
            "rank": _action_rank(effects, states), "eigs": _significant(np.linalg.eigvals(s))}


def _same_multiset(got, want) -> bool:
    got = list(_significant(got))
    if len(got) != len(want):
        return False
    for z in want:
        dist = [abs(z - g) for g in got]
        k = int(np.argmin(dist))
        if dist[k] > EIG_TOL:
            return False
        got.pop(k)
    return True


def _fixed_point_problems(rho, exp, unique) -> list:
    problems = []
    out = sum(np.trace(f @ rho) * r for f, r in zip(exp["effects"], exp["states"]))
    residual = float(np.max(np.abs(out - rho)))
    if residual > FIXED_POINT_TOL:
        problems.append(f"fixed point residual {residual:.3e}")
    if abs(np.trace(rho) - 1.0) > FIXED_POINT_TOL:
        problems.append(f"fixed point trace {np.trace(rho)}")
    if exp["p"] is not None and unique is not True:
        problems.append("primitive S but fixed point not reported unique")
    return problems


def check_machine_report(text: str, exp: dict) -> list:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"machine report is not JSON: {exc}"]
    problems = []
    if (rep.get("n"), rep.get("r")) != (exp["n"], exp["r"]):
        problems.append(f"n, r = {rep.get('n')}, {rep.get('r')}; expected {exp['n']}, {exp['r']}")
        return problems
    s = np.array(rep["stochastic_matrix"], dtype=float)
    if s.shape != exp["s"].shape or np.max(np.abs(s - exp["s"])) > S_TOL:
        problems.append("stochastic matrix differs from tr(F_i R_j)")
    prim = rep["primitivity"]
    if prim["p_index"] != exp["p"] or prim["s_primitive"] != (exp["p"] is not None):
        problems.append(f"p = {prim['p_index']}, expected {exp['p']}")
    if prim["q_index"] != exp["q"] or prim["channel_primitive"] != (exp["q"] is not None):
        problems.append(f"q = {prim['q_index']}, expected {exp['q']}")
    if rep.get("consistent") is not True:
        problems.append("report says consistent: false")
    spec = rep["spectrum_comparison"]
    for side in ("channel_nonzero", "matrix_nonzero"):
        if not _same_multiset([complex(*z) for z in spec[side]], exp["eigs"]):
            problems.append(f"{side} differs from the eigenvalues of S")
    fp = rep["fixed_point"]
    problems += _fixed_point_problems(_matrix(fp["rho"]), exp, fp["unique"])
    rb = rep["holevo_rank_bounds"]
    r = exp["r"]
    if (rb["lower"], rb["upper"], rb["q_upper_from_rank"]) != (exp["rank"], r, r * r - 2 * r + 3):
        problems.append(f"rank bounds {rb}, expected lower {exp['rank']}, upper {r}")
    return problems


def _index_text(value) -> str:
    return "none" if value is None else str(value)


def check_text_report(text: str, exp: dict) -> list:
    problems = []
    if not text.startswith(f"channel: n = {exp['n']}, r = {exp['r']}"):
        problems.append("text report header names the wrong n or r")
    p = re.search(r"matrix primitive: \w+ \(p = (\w+)\)", text)
    if p is None or p.group(1) != _index_text(exp["p"]):
        problems.append(f"text report p = {p and p.group(1)}, expected {exp['p']}")
    q = re.search(r"channel primitive: \w+ \(q = ([^)]+)\)", text)
    if q is None or q.group(1) != _index_text(exp["q"]):
        problems.append(f"text report q = {q and q.group(1)}, expected {exp['q']}")
    if "consistency: ok" not in text:
        problems.append("text report lacks 'consistency: ok'")
    return problems


def check_build(text: str, expect: dict) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"build output is not JSON: {exc}"]
    got = (doc.get("n"), len(doc.get("pairs") or []))
    want = (expect["n"], expect["r"])
    return [] if got == want else [f"built n, r = {got}, expected {want}"]


def check_verify(text: str, expect: dict) -> list:
    verdicts = re.findall(r"^random\[\d+\] \(n = \d+, r = \d+\): (.*)$", text, re.M)
    problems = []
    if len(verdicts) != expect["channels"]:
        problems.append(f"{len(verdicts)} channel verdicts, expected {expect['channels']}")
    bad = [v for v in verdicts if v != "ok"]
    if bad:
        problems.append(f"failed checks: {bad[:3]}")
    if "all invariants pass" not in text:
        problems.append("verify did not report 'all invariants pass'")
    return problems


def check_checks(results, exp: dict) -> list:
    """``results`` is the list of (name, ok, detail) from run_channel_checks."""
    if not results:
        return ["no check results"]
    problems = [f"check {name} failed: {detail}" for name, ok, detail in results if not ok]
    gap = [detail for name, _, detail in results if name == "index_gap"]
    if exp["q"] is None:
        if gap:
            problems.append(f"index_gap reported for a channel with no index: {gap[0]}")
        return problems
    match = re.fullmatch(r"\|q - p\| = \|(\d+) - (\d+)\|", gap[0]) if gap else None
    if match is None:
        problems.append(f"no parsable index_gap result (q = {exp['q']} expected)")
    elif (int(match.group(1)), int(match.group(2))) != (exp["q"], exp["p"]):
        problems.append(f"q, p = {match.group(1)}, {match.group(2)}; "
                        f"expected {exp['q']}, {exp['p']}")
    return problems


def check_op(op: dict, result: dict, expectations: dict) -> list:
    """Problems with one executed op; an exception or nonzero exit is a problem."""
    if result.get("error"):
        return [f"raised: {result['error']}"]
    if result.get("rc", 0) != 0:
        return [f"exit code {result['rc']}: {(result.get('err') or '').strip()[-200:]}"]
    out = result.get("out")
    kind = op["check"]
    if kind == "analyze-machine":
        return check_machine_report(out, expectations[op["doc"]])
    if kind == "analyze-text":
        return check_text_report(out, expectations[op["doc"]])
    if kind == "build":
        return check_build(out, op["expect"])
    if kind == "verify":
        return check_verify(out, op["expect"])
    if kind == "checks":
        return check_checks(out, expectations[op["doc"]])
    raise ValueError(f"unknown check {kind!r}")
