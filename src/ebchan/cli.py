"""Command line interface.

Commands::

    ebchan build <kind> [--n N] [--stochastic FILE] [--kraus FILE] [-o FILE]
    ebchan analyze FILE [--format text|machine] [--psd-tol X]
                        [--zero-eig-tol X] [--match-tol X]
    ebchan iterate FILE --state FILE --steps M
    ebchan verify [FILE | --random N] [--seed K]

Exit codes: 0 success, 1 internal-consistency failure, 2 input/usage error
(out of memory included).
Text output rounds to 6 significant digits; machine output (JSON) keeps
full precision so verdicts are reproducible from the report alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .channel import (FixedPoint, HolevoForm, SpectrumComparison, apply_linear,
                      compare_nonzero_spectrum, depolarizing, fixed_point,
                      holevo_from_rank_one_kraus, map_to_diagonal,
                      qc_from_stochastic, stochastic_rep)
from .checks import run_channel_checks
from .errors import ConsistencyError, EbchanError, ValidationError
from .linalg import DEFAULT_TOL, ROUTE_TOL, Tolerances, _stationary_tol
from .primitivity import (ChannelPrimitivityReport, HolevoRankBounds,
                          channel_primitivity_index, holevo_rank_bounds)
from .sampling import random_channel
from .serialization import (_loads, document_to_form, emit_channel_document,
                            parse_channel_document, parse_kraus_file,
                            parse_state_file, parse_stochastic_file)

BUILD_KINDS = ("depolarizing", "diag", "qc", "from-kraus")


@dataclasses.dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyze command computes for one channel.

    ``render_machine`` writes the fields, and those of the reports nested
    in them, in the order they are declared here: that order is the key
    order of the machine output.
    """

    n: int
    r: int
    stochastic_matrix: np.ndarray
    column_sum_residual: float
    spectrum_comparison: SpectrumComparison
    primitivity: ChannelPrimitivityReport
    fixed_point: FixedPoint
    holevo_rank_bounds: HolevoRankBounds
    tolerances_used: Tolerances


def analyze_form(form: HolevoForm) -> AnalysisReport:
    s = stochastic_rep(form)
    return AnalysisReport(
        n=form.n,
        r=form.r,
        stochastic_matrix=s,
        column_sum_residual=float(np.max(np.abs(s.sum(axis=0) - 1.0))),
        spectrum_comparison=compare_nonzero_spectrum(form),
        primitivity=channel_primitivity_index(form),
        fixed_point=fixed_point(form),
        holevo_rank_bounds=holevo_rank_bounds(form),
        tolerances_used=form.tol)


def report_inconsistencies(report: AnalysisReport) -> list:
    """Internal cross-check failures; any entry turns exit code 0 into 1."""
    problems = []
    if not report.spectrum_comparison.matched:
        problems.append("nonzero spectra of the channel and its matrix disagree")
    bound = _stationary_tol(report.tolerances_used)
    if report.fixed_point.residual > bound:
        problems.append(f"fixed point residual {report.fixed_point.residual:.3e} "
                        f"exceeds {bound:.0e}")
    prim = report.primitivity
    if prim.bound_abs_diff_ok is False:
        problems.append("index gap |q - p| exceeds 1")
    return problems


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _fmt_matrix(arr, indent: str = "  ") -> str:
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        rows = [" ".join(f"{_fmt_complex(z):>22}" for z in row) for row in a]
    else:
        rows = [" ".join(f"{_fmt(x):>10}" for x in row) for row in a]
    return "\n".join(indent + row for row in rows)


def _yesno(flag) -> str:
    return "yes" if flag else "no"


def render_text(report: AnalysisReport, name=None) -> str:
    prim = report.primitivity
    spec = report.spectrum_comparison
    lines = []
    title = f"channel: n = {report.n}, r = {report.r}"
    if name:
        title += f"  ({name})"
    lines.append(title)
    lines.append("stochastic matrix S (columns sum to 1):")
    lines.append(_fmt_matrix(report.stochastic_matrix))
    lines.append(f"column sum residual: {report.column_sum_residual:.3e}")
    lines.append(f"nonzero spectrum: {'matched' if spec.matched else 'MISMATCH'} "
                 f"(max pair distance {spec.max_pair_distance:.3e})")
    lines.append("  channel: " + ", ".join(_fmt_complex(z) for z in spec.channel_nonzero))
    lines.append("  matrix:  " + ", ".join(_fmt_complex(z) for z in spec.matrix_nonzero))
    lines.append("primitivity:")
    p_str = "none" if prim.p_index is None else str(prim.p_index)
    lines.append(f"  matrix primitive: {_yesno(prim.s_primitive)} (p = {p_str})")
    lines.append(f"  sum of states positive definite: {_yesno(prim.sum_R_pd)}")
    if prim.q_method == "bounds-only":
        lo, hi = prim.q_window
        q_str = f"in [{lo}, {hi}] (bounds-only, r above enumeration cap)"
    elif prim.q_index is None:
        q_str = "none"
    else:
        q_str = str(prim.q_index)
    lines.append(f"  channel primitive: {_yesno(prim.channel_primitive)} (q = {q_str})")
    if prim.q_index is not None:
        lines.append(f"  |q - p| <= 1: {_yesno(prim.bound_abs_diff_ok)}; "
                     f"q <= r^2 - 2r + 3 = {report.holevo_rank_bounds.q_upper_from_rank}: "
                     f"{_yesno(prim.holevo_rank_bound_ok)}")
    fp = report.fixed_point
    uniq = "unique" if fp.unique else "not unique"
    lines.append(f"fixed point ({uniq}, residual {fp.residual:.3e}):")
    lines.append(_fmt_matrix(fp.rho))
    rb = report.holevo_rank_bounds
    lines.append(f"pair-count bounds: rank of action = {rb.lower}, pairs given = {rb.upper}, "
                 f"index bound from pairs = {rb.q_upper_from_rank}")
    problems = report_inconsistencies(report)
    if problems:
        lines.append("consistency: FAILED")
        lines.extend("  - " + p for p in problems)
    else:
        lines.append("consistency: ok")
    return "\n".join(lines) + "\n"


def _plain(value):
    """A report value as JSON data.

    A dataclass becomes an object with its keys in field order, a complex
    array nested [re, im] pairs, any other array or numpy scalar its
    ``tolist``, and a tuple a list.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        if np.iscomplexobj(value):
            value = np.stack([value.real, value.imag], axis=-1)
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def render_machine(report: AnalysisReport, name=None) -> str:
    doc = _plain(report)
    doc["consistent"] = not report_inconsistencies(report)
    if name:
        doc["name"] = name
    return json.dumps(doc, indent=2) + "\n"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text at byte {exc.start}: "
                                  f"{exc.reason}") from exc


def _write_output(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _tolerances_from(args) -> Tolerances:
    overrides = {}
    for name in ("psd_tol", "zero_eig_tol", "match_tol"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    return dataclasses.replace(DEFAULT_TOL, **overrides) if overrides else DEFAULT_TOL


def cmd_build(args) -> int:
    kind = args.kind
    if kind in ("depolarizing", "diag"):
        if args.n is None:
            return _usage_error(f"build {kind} requires --n")
        if args.n < 1:
            return _usage_error(f"--n must be a positive integer, got {args.n}")
        nbytes = args.n * args.n * np.dtype(np.complex128).itemsize
        if nbytes > np.iinfo(np.intp).max:
            return _usage_error(f"--n {args.n} needs {args.n} x {args.n} complex arrays of "
                                f"{nbytes} bytes each, more than numpy can address")
        form = depolarizing(args.n) if kind == "depolarizing" else map_to_diagonal(args.n)
        meta = {"builder": kind, "n": str(args.n)}
    elif kind == "qc":
        if args.stochastic is None:
            return _usage_error("build qc requires --stochastic FILE")
        entries = parse_stochastic_file(_read_text(args.stochastic))
        form = qc_from_stochastic(entries)
        meta = {"builder": kind}
    else:  # from-kraus
        if args.kraus is None:
            return _usage_error("build from-kraus requires --kraus FILE")
        operators = parse_kraus_file(_read_text(args.kraus))
        form = holevo_from_rank_one_kraus(operators)
        meta = {"builder": kind}
    _write_output(emit_channel_document(form, metadata=meta), args.output)
    return 0


def cmd_analyze(args) -> int:
    tol = _tolerances_from(args)
    doc = _loads(_read_text(args.file), "channel document")
    form = document_to_form(doc, tol)  # validates 'metadata' as UTF-8 strings to strings
    name = (doc.get("metadata") or {}).get("name")
    report = analyze_form(form)
    if args.format == "machine":
        sys.stdout.write(render_machine(report, name))
    else:
        sys.stdout.write(render_text(report, name))
    return 0 if not report_inconsistencies(report) else 1


def cmd_iterate(args) -> int:
    if args.steps < 1:
        return _usage_error(f"--steps must be >= 1, got {args.steps}")
    form = parse_channel_document(_read_text(args.file))
    rho = parse_state_file(_read_text(args.state))
    if rho.shape != (form.n, form.n):
        return _usage_error(f"state dimension {rho.shape[0]} does not match "
                            f"channel dimension {form.n}")
    s = stochastic_rep(form)
    fp = fixed_point(form)
    c = np.array([np.trace(f @ rho).real for f in form.effects])
    worst_track = 0.0
    for t in range(args.steps + 1):
        dist = float(np.max(np.abs(rho - fp.rho)))
        probs = np.array([np.trace(f @ rho).real for f in form.effects])
        track = float(np.max(np.abs(probs - c)))
        worst_track = max(worst_track, track)
        print(f"step {t}: |rho - rho*|_max = {dist:.6e}")
        print(_fmt_matrix(rho))
        print("  effect probabilities: " + " ".join(_fmt(p) for p in probs)
              + f"   (vector-track residual {track:.3e})")
        if t < args.steps:
            rho = apply_linear(form, rho)
            c = s @ c
    print(f"fixed point residual: {fp.residual:.3e}; "
          f"worst vector-track residual: {worst_track:.3e}")
    if worst_track > ROUTE_TOL:
        print("error: state trajectory and stochastic trajectory disagree",
              file=sys.stderr)
        return 1
    return 0


def _verify_one(label: str, form: HolevoForm, rng, failures: list,
                caught=EbchanError) -> None:
    """Check one channel; an error of class ``caught`` it raises is that channel's failure only."""
    try:
        results = run_channel_checks(form, rng)
    except caught as exc:
        print(f"{label} (n = {form.n}, r = {form.r}): FAILED exception ({exc})")
        failures.append({"channel": label, "check": "exception",
                         "detail": f"{type(exc).__name__}: {exc}"})
        return
    bad = [res for res in results if not res.ok]
    status = "ok" if not bad else "FAILED " + ", ".join(res.name for res in bad)
    print(f"{label} (n = {form.n}, r = {form.r}): {status}")
    for res in bad:
        failures.append({"channel": label, "check": res.name, "detail": res.detail})


def cmd_verify(args) -> int:
    if args.file is not None and args.random is not None:
        return _usage_error("verify takes a channel file or --random N, not both")
    rng = np.random.default_rng(args.seed)
    failures = []
    if args.file is not None:
        form = parse_channel_document(_read_text(args.file))
        # bad input exits 2, as under analyze, wherever the checks find it
        _verify_one(args.file, form, rng, failures, caught=ConsistencyError)
    else:
        count = args.random
        if count is None or count < 1:
            return _usage_error("verify needs a channel file or --random N with N >= 1")
        for i in range(count):
            n = int(rng.integers(2, 4))
            r = int(rng.integers(1, 6))
            try:
                form = random_channel(rng, n, r)
            except EbchanError as exc:
                failures.append({"channel": f"random[{i}]",
                                 "check": "channel_generation", "detail": str(exc)})
                print(f"random[{i}] (n = {n}, r = {r}): FAILED channel_generation ({exc})")
                continue
            _verify_one(f"random[{i}]", form, rng, failures)
    if failures:
        print(json.dumps({"failures": failures}, indent=2))
        return 1
    print("all invariants pass")
    return 0


def _seed(text: str) -> int:
    """Parse ``--seed``: numpy's generator takes only nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebchan",
        description="Entanglement breaking channels in Holevo form: "
                    "build, analyze, iterate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit a channel document for a named builder")
    p_build.add_argument("kind", choices=BUILD_KINDS)
    p_build.add_argument("--n", type=int, help="dimension for depolarizing/diag")
    p_build.add_argument("--stochastic", metavar="FILE",
                         help="stochastic matrix file for kind 'qc'")
    p_build.add_argument("--kraus", metavar="FILE",
                         help="Kraus operator file for kind 'from-kraus'")
    p_build.add_argument("-o", "--output", metavar="FILE",
                         help="write the document here instead of stdout")
    p_build.set_defaults(func=cmd_build)

    p_analyze = sub.add_parser("analyze", help="full analysis of a channel document")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--format", choices=("text", "machine"), default="text")
    p_analyze.add_argument("--psd-tol", type=float, dest="psd_tol")
    p_analyze.add_argument("--zero-eig-tol", type=float, dest="zero_eig_tol")
    p_analyze.add_argument("--match-tol", type=float, dest="match_tol")
    p_analyze.set_defaults(func=cmd_analyze)

    p_iterate = sub.add_parser("iterate", help="apply a channel repeatedly to a state")
    p_iterate.add_argument("file")
    p_iterate.add_argument("--state", required=True, metavar="FILE")
    p_iterate.add_argument("--steps", required=True, type=int, metavar="M")
    p_iterate.set_defaults(func=cmd_iterate)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("file", nargs="?", default=None)
    p_verify.add_argument("--random", type=int, metavar="N",
                          help="verify N randomly generated channels")
    p_verify.add_argument("--seed", type=_seed, default=0,
                          help="seed for all randomness (default 0)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EbchanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory: {exc or type(exc).__name__}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
