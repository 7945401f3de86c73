"""One benchmark worker process: imports ebchan, says "ready", then runs a job.

Run as ``python3 perfbench/worker.py`` with ``PYTHONPATH`` naming the
library's source. The time from spawn to the "ready" line is the set-up
time users pay: interpreter start plus ``import ebchan``. The worker then
reads one line from stdin. An empty line or end of input ends it; otherwise
the line is the path of a job file (JSON) whose ops it runs in a closed
loop, one at a time, before writing one JSON result line to stdout.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import ebchan  # noqa: F401  (the import whose cost set-up measures)

import calib
from spans import Recorder

ROUND_S = 0.25      # seconds of ops between two timings of the reference kernel

# Public functions run_channel_checks is built from, each timed once per form
# in the traced run of a checks workload: (module, function, extra args).
COMPONENTS = [
    ("channel", "natural_rep", ()),
    ("channel", "choi", ()),
    ("channel", "choi_pair_sum", ()),
    ("channel", "factorization", ()),
    ("channel", "stochastic_rep", ()),
    ("channel", "iterated_form", (2,)),
    ("channel", "compare_nonzero_spectrum", ()),
    ("channel", "fixed_point", ()),
    ("primitivity", "channel_primitivity_index", ()),
    ("primitivity", "sweep_positive_iterate", ()),
    ("primitivity", "sum_R_positive_definite", ()),
]


def _error_text(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_cli(argv):
    from ebchan import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def run_op(op, forms):
    try:
        if op["kind"] == "cli":
            return run_cli(op["argv"])
        from ebchan import checks
        results = checks.run_channel_checks(forms[op["doc"]])
        return {"rc": 0, "out": [[res.name, bool(res.ok), res.detail] for res in results]}
    except Exception as exc:  # an op that raises is a failed op, recorded with its error
        return {"error": _error_text(exc)}


def timed(op, forms, label, index):
    t0 = time.perf_counter()
    res = run_op(op, forms)
    res.update(t=time.perf_counter() - t0, i=index, phase=label)
    return res


def run_phase(ops, forms, seconds):
    """Cycle through ``ops`` until ``seconds`` have passed, in rounds.

    A round runs ops for ROUND_S (at least one op) between two timings of
    the reference kernel; each result carries their mean as ``kernel_s``,
    the machine's speed while it ran.
    """
    results = []
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < seconds:
        before = calib.kernel_seconds()
        round_start = time.perf_counter()
        batch = []
        while not batch or (time.perf_counter() - round_start < ROUND_S
                            and time.perf_counter() - start < seconds):
            index = count % len(ops)
            batch.append(timed(ops[index], forms, "timed", index))
            count += 1
        kernel = (before + calib.kernel_seconds()) / 2
        for res in batch:
            res["kernel_s"] = kernel
        results += batch
    return results, time.perf_counter() - start


def run_traced_phase(ops, forms, seconds, recorder):
    """Cycle through ``ops`` until ``seconds`` have passed, each op twice in a row.

    Each op runs untraced and then traced, so the two timings share the
    machine's state and their difference is the tracing overhead.
    """
    results = []
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < seconds:
        index = count % len(ops)
        results.append(timed(ops[index], forms, "untraced", index))
        recorder.op = count
        recorder.install()
        try:
            results.append(timed(ops[index], forms, "traced", index))
        finally:
            recorder.uninstall()
        count += 1
    return results, time.perf_counter() - start


def run_components(forms, recorder):
    """Time each component once per form; returns {component: [seconds, ...]} and errors."""
    times, errors = {}, []
    for doc, form in forms.items():
        for module, func, extra in COMPONENTS:
            fn = getattr(sys.modules.get(f"ebchan.{module}"), func, None)
            if fn is None:
                continue
            recorder.op = f"component:{doc}"
            t0 = time.perf_counter()
            try:
                recorder.span(f"component.{func}", fn, form, *extra)
            except Exception as exc:  # recorded, not fatal: components are diagnostics
                errors.append(f"{func} on {doc}: {_error_text(exc)}")
                continue
            times.setdefault(func, []).append(time.perf_counter() - t0)
    return times, errors


def main():
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line:
        return 0
    with open(line, encoding="utf-8") as fh:
        job = json.load(fh)
    os.chdir(job["inputs_dir"])
    ops = job["ops"]
    from ebchan import serialization
    forms = {}
    for op in ops:
        if op["kind"] == "checks" and op["doc"] not in forms:
            with open(op["doc"], encoding="utf-8") as fh:
                forms[op["doc"]] = serialization.parse_channel_document(fh.read())

    phases = {}
    reply = {}
    if job["trace"]:
        recorder = Recorder()
        results, phases["traced"] = run_traced_phase(ops, forms, job["seconds"], recorder)
        recorder.install()
        try:
            reply["traced_functions"] = recorder.traced_names()
            if forms:
                reply["components"], reply["component_errors"] = run_components(forms, recorder)
        finally:
            recorder.uninstall()
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    else:
        results, phases["timed"] = run_phase(ops, forms, job["seconds"])
    reply.update(results=results, phases=phases,
                 maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
