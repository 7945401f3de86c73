"""Benchmark of ebchan, measured from outside as its users run it.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn. The inputs are generated
from ``--seed`` by ``gen.py`` and written under ``.perfbench_out/``; the
program sees only those documents. Every output is checked by the numpy
oracle in ``oracle.py``. One closed-loop client runs in one worker process
at a time, with BLAS pinned to one thread.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
a separate run wraps calls into the library's public functions in spans and
reports per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Untraced times are
reported at reference speed: each wall time is scaled by a fixed kernel
(``calib.py``) timed around it, which takes out most of a shared machine's
drift. The exit code is 0 when every output was correct, 1 when some op
failed, and 2 when the benchmark could not run (for instance, no
``src/ebchan`` in the current directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import selectors
import statistics
import subprocess
import sys
import time

# BLAS in this process runs the reference kernel; pin it like the workers'
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import numpy as np  # noqa: E402  (after the pinning above)

import calib  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench_out"
SETUP_STARTS = 5          # fresh worker starts per run; setup_s is their median
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
OP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
CLI_PREFIX = ["-m", "ebchan.cli"]

# Workloads whose ops run as fresh `python -m ebchan.cli` processes when untraced.
FRESH_PROCESS = {"cli-small"}

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span it is read from; every other per-layer metric is
# computed below from input sizes and report fields, or timed by a subprocess
LAYER_SPANS = {
    "cli.render_s": "cli.render",
    "serialization.parse_s": "serialization.parse",
    "serialization.emit_s": "serialization.emit",
    "channel.stochastic_rep_s": "channel.stochastic_rep",
    "channel.fixed_point_s": "channel.fixed_point",
    "channel.compare_nonzero_spectrum_s": "channel.compare_nonzero_spectrum",
    "channel.natural_rep_s": "channel.natural_rep",
    "linalg.eig_general_s": "linalg.eig_general",
    "primitivity.holevo_rank_bounds_s": "primitivity.holevo_rank_bounds",
    "primitivity.channel_primitivity_index_s": "primitivity.channel_primitivity_index",
    "primitivity.strictly_positive_at_s": "primitivity.strictly_positive_at",
    "stochastic.primitivity_index_s": "stochastic.primitivity_index",
    "primitivity.sweep_positive_iterate_s": "primitivity.sweep_positive_iterate",
    "channel.iterated_form_s": "channel.iterated_form",
    "channel.choi_s": "channel.choi",
    "checks.run_channel_checks_s": "checks.run_channel_checks",
}

PER_LAYER_UNITS = {
    "env.python_start_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    **{name: "s" for name in LAYER_SPANS},
    "serialization.doc_bytes": "bytes",
    "channel.dense_dim": "count",
    "channel.dense_bytes": "bytes",
    "primitivity.m_tested": "count",
    "primitivity.subset_space": "count",
    "checks.results": "count",
    "checks.failed": "count",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# statistics

def best_times(results, phase):
    """op index -> fastest wall time of that op in ``phase``."""
    best = {}
    for res in results:
        if res["phase"] == phase:
            best[res["i"]] = min(res["t"], best.get(res["i"], float("inf")))
    return best


def scaled_times(results):
    """op index -> median over its timed executions of its time at reference speed.

    Each execution's wall time is scaled by the reference kernel's time
    measured around it (see ``calib``). On a shared machine identical code
    runs up to 1.7x slower for tens of seconds at a time; the kernel slows
    with it, so the ratio keeps the program's cost and drops most of the
    machine's drift.
    """
    by_op = {}
    for res in results:
        if res["phase"] == "timed":
            by_op.setdefault(res["i"], []).append(calib.scaled(res["t"], res["kernel_s"]))
    return {i: statistics.median(ts) for i, ts in by_op.items()}


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). With too few samples for
    that to lie above the median, it falls back to the order statistic with
    a quarter of the samples above it, and says so through the smaller count.
    """
    xs = sorted(samples)
    n = len(xs)
    beyond = TAIL_BEYOND if n - 1 - TAIL_BEYOND > (n - 1) / 2 else (n - 1) // 4
    index = n - 1 - beyond
    pct = 100.0 * index / (n - 1) if n > 1 else 100.0
    return xs[index], pct, beyond


def m_tested(p, q):
    """Iterates channel_primitivity_index tests: the window [max(1,p-1), q], then q+1 if q <= p."""
    if q is None or p is None:
        return 0
    return q - max(1, p - 1) + 1 + (1 if q < p + 1 else 0)


def importtime_cumulative(stderr: str):
    """Cumulative seconds of ``import ebchan`` and of the scipy imports inside it.

    ``-X importtime`` prints one line per module after its children, indented
    by nesting depth. A scipy module counts when its nearest enclosing module
    is not itself a scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    total = next((cum for depth, name, cum in rows if name == "ebchan"), None)
    scipy = 0.0
    for k, (depth, name, cum) in enumerate(rows):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        parent = next((pname for pdepth, pname, _ in rows[k + 1:] if pdepth < depth), None)
        if parent is None or not (parent == "scipy" or parent.startswith("scipy.")):
            scipy += cum
    return total, scipy


# ---------------------------------------------------------------------------
# environment

def worker_env(src):
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = src
    return env


def environment(src):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "cli_argv": [sys.executable, *CLI_PREFIX],
        "PYTHONPATH": src,
    }


# ---------------------------------------------------------------------------
# running

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def write_inputs(workload, seed):
    docs, ops = gen.generate(workload, seed)
    inputs = os.path.abspath(os.path.join(OUT, "inputs", f"{workload}-seed{seed}"))
    os.makedirs(inputs, exist_ok=True)
    hashes = {}
    for name, (text, _) in sorted(docs.items()):
        data = text.encode("utf-8")
        with open(os.path.join(inputs, name), "wb") as fh:
            fh.write(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    digest = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in hashes.items()).encode()).hexdigest()
    with open(os.path.join(inputs, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "sha256": hashes, "digest": digest},
                  fh, indent=1)
    expectations = {name: oracle.expectation(text, family)
                    for name, (text, family) in docs.items() if family != "aux"}
    sizes = {name: len(text.encode("utf-8")) for name, (text, _) in docs.items()}
    return inputs, ops, expectations, sizes, digest


def spawn_worker(env, log):
    """Start a worker; returns (process, spawn-to-"ready" seconds at reference speed).

    The reference kernel is timed just before the spawn and just after the
    "ready" line, while the worker waits for its job.
    """
    before = calib.kernel_seconds()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                            env=env, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if sel.select(timeout=OP_TIMEOUT_S) else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("worker did not start (is src/ebchan importable?)")
    return proc, calib.scaled(ready, (before + calib.kernel_seconds()) / 2)


def finish(proc, line):
    """Send the worker its one input line and wait for it to end; returns its stdout."""
    try:
        out, _ = proc.communicate(input=line, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def setup_time(env, log):
    proc, ready = spawn_worker(env, log)
    finish(proc, "\n")
    return ready


def run_job(env, log, job, job_path):
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc, ready = spawn_worker(env, log)
    out = finish(proc, job_path + "\n")
    if not out.strip():
        raise BenchError("worker printed no result")
    return json.loads(out.strip().splitlines()[-1]), ready


def run_fresh_processes(env, ops, inputs, seconds):
    """Cycle through ``ops`` as fresh CLI processes for ``seconds``.

    The reference kernel is timed before and after each process.
    """
    results = []
    start = time.perf_counter()
    count = 0
    while True:
        op = ops[count % len(ops)]
        before = calib.kernel_seconds()
        t0 = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, *CLI_PREFIX, *op["argv"]], cwd=inputs,
                                  env=env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
            res = {"rc": done.returncode, "out": done.stdout, "err": done.stderr}
        except subprocess.TimeoutExpired:
            res = {"error": f"timed out after {OP_TIMEOUT_S} s"}
        res.update(t=time.perf_counter() - t0, i=count % len(ops), phase="timed")
        res["kernel_s"] = (before + calib.kernel_seconds()) / 2
        results.append(res)
        count += 1
        if time.perf_counter() - start >= seconds:
            return results, time.perf_counter() - start


def timed_subprocess(argv, env, repeats):
    """Median wall seconds of ``argv`` run ``repeats`` times, and the last stderr."""
    times, err = [], ""
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchError(f"{argv[1:]} exited with code {done.returncode}")
        err = done.stderr
    return statistics.median(times), err


def layer_metrics(ops, results, expectations, sizes, spans_list, env):
    traced = [r for r in results if r["phase"] == "traced"]
    op_ids = list(range(len(traced)))
    metrics = {name: spans.busy_per_op(spans_list, span, op_ids)
               for name, span in LAYER_SPANS.items()}

    rows = []
    for res in traced:
        op = ops[res["i"]]
        exp = expectations.get(op.get("doc"))
        dim = exp["n"] ** 2 if exp else 0
        tested = m_tested(exp["p"], exp["q"]) if exp else 0
        if op["kind"] != "cli":
            doc_bytes = 0        # checks ops parse their form before the timed call
        elif op["argv"][0] == "build":
            doc_bytes = len(res.get("out") or "")
        else:
            doc_bytes = sizes.get(op.get("doc"), 0)
        rows.append({
            "serialization.doc_bytes": doc_bytes,
            "channel.dense_dim": dim,
            "channel.dense_bytes": 16 * dim ** 2,
            "primitivity.m_tested": tested,
            "primitivity.subset_space": 2 * 2 ** exp["r"] * tested if exp else 0,
            "checks.results": len(res["out"]) if op["kind"] == "checks" and "out" in res else 0,
        })
    for name in rows[0]:
        metrics[name] = statistics.median(row[name] for row in rows)
    metrics["checks.failed"] = sum(
        1 for res in traced if ops[res["i"]]["kind"] == "checks"
        for _, ok, _ in res.get("out") or () if not ok)
    metrics["trace.overhead_s"] = (statistics.median(best_times(results, "traced").values())
                                   - statistics.median(best_times(results, "untraced").values()))
    metrics["env.python_start_s"], _ = timed_subprocess([sys.executable, "-c", "pass"], env, 5)
    imports = [importtime_cumulative(timed_subprocess(
        [sys.executable, "-X", "importtime", "-c", "import ebchan"], env, 1)[1])
        for _ in range(3)]
    metrics["cli.import_s"] = statistics.median(t for t, _ in imports)
    metrics["cli.import_scipy_s"] = statistics.median(s for _, s in imports)
    return metrics


def run_workload(workload, seed, seconds, trace, src):
    env = worker_env(src)
    inputs, ops, expectations, sizes, digest = write_inputs(workload, seed)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    runs = os.path.abspath(os.path.join(OUT, "runs"))
    os.makedirs(runs, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "inputs_digest": digest, "environment": environment(src)}
    job = {"inputs_dir": inputs, "ops": ops, "seconds": seconds, "trace": bool(trace),
           "spans_path": os.path.join(runs, tag + ".spans.json")}
    job_path = os.path.join(runs, tag + ".job.json")
    with open(os.path.join(runs, tag + ".worker.log"), "w", encoding="utf-8") as log:
        if trace:
            reply, _ = run_job(env, log, job, job_path)
            results = reply["results"]
        else:
            setups = [setup_time(env, log) for _ in range(SETUP_STARTS - 1)]
            if workload in FRESH_PROCESS:
                setups.append(setup_time(env, log))
                results, elapsed = run_fresh_processes(env, ops, inputs, seconds)
            else:
                reply, ready = run_job(env, log, job, job_path)
                setups.append(ready)
                results, elapsed = reply["results"], reply["phases"]["timed"]

    failures = []
    for res in results:
        problems = oracle.check_op(ops[res["i"]], res, expectations)
        if problems:
            failures.append({"op": ops[res["i"]].get("argv") or ops[res["i"]]["doc"],
                             "phase": res["phase"], "problems": problems})
    attempted = len(results)

    if trace:
        with open(job["spans_path"], encoding="utf-8") as fh:
            spans_list = json.load(fh)
        metrics = layer_metrics(ops, results, expectations, sizes, spans_list, env)
        units = PER_LAYER_UNITS
        record["self_time"] = spans.self_time_table(
            [s for s in spans_list if isinstance(s[4], int)])
        record["traced_functions"] = reply.get("traced_functions")
        record["components_median_s"] = {k: statistics.median(v)
                                         for k, v in reply.get("components", {}).items()}
        record["component_errors"] = reply.get("component_errors", [])
        notes = {}
    else:
        per_op = scaled_times(results)
        timed_runs = [r for r in results if r["phase"] == "timed"]
        executions = len(timed_runs)
        value, pct, beyond = tail(per_op.values())
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"op_s.p50": statistics.median(per_op.values()), "op_s.tail": value,
                   "ops_per_s": len(per_op) / sum(per_op.values()),
                   "setup_s": statistics.median(setups), "peak_rss_mb": peak_kb / 1024.0}
        units = END_TO_END
        reps = f"median of {executions / len(per_op):.1f} executions each, at reference speed"
        kernels = [r["kernel_s"] for r in timed_runs]
        notes = {"op_s.p50": f"median of {len(per_op)} ops, {reps}",
                 "op_s.tail": f"p{pct:.1f} of {len(per_op)} ops, {beyond} beyond",
                 "ops_per_s": f"{len(per_op)} ops over their summed times; "
                              f"{executions} executions in {elapsed:.2f} s wall",
                 "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups)}
        record["kernel_s"] = {"min": min(kernels), "median": statistics.median(kernels),
                              "max": max(kernels), "reference": calib.REFERENCE_S}
        record["setup_samples_s"] = setups
        record["tail"] = {"percentile": pct, "beyond": beyond, "ops": len(per_op)}
        record["executions"] = executions
        best = best_times(results, "timed")
        record["raw_wall"] = {"op_s.p50": statistics.median(r["t"] for r in timed_runs),
                              "op_s.p50_best": statistics.median(best.values()),
                              "ops_per_s": executions / elapsed}
    record.update(metrics=metrics, attempted=attempted, failed=len(failures),
                  fail_frac=len(failures) / attempted, failures=failures)
    with open(os.path.join(runs, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"[{workload}] seed {seed}, inputs sha256 {digest[:16]}, "
          f"{'traced' if trace else 'untraced'}, {attempted} ops checked")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"[{workload}] {name} = {value:.6g} {units[name]}{note}")
    print(f"[{workload}] fail_frac = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} ops failed)")
    if trace:
        top = sorted(record["self_time"].items(), key=lambda kv: -kv[1]["self_s"])[:6]
        for name, row in top:
            print(f"[{workload}] self time {name}: {row['self_s']:.4g} s of "
                  f"{row['total_s']:.4g} s in {row['calls']} calls")
    for failure in failures[:10]:
        print(f"[{workload}] FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ebchan", "__init__.py")):
        print("error: run from a checkout of ebchan: no src/ebchan here", file=sys.stderr)
        return 2
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = {w: run_workload(w, args.seed, args.seconds, args.trace, src)
                    for w in workloads}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(outcomes) == 1:
        final = next(iter(outcomes.values()))
    else:
        for workload, outcome in outcomes.items():
            print(f"[{workload}] " + json.dumps(outcome))
        final = {"correct": all(o["correct"] for o in outcomes.values()),
                 "attempted": sum(o["attempted"] for o in outcomes.values()),
                 "failed": sum(o["failed"] for o in outcomes.values()),
                 "metrics": {f"{w}/{name}": m for w, o in outcomes.items()
                             for name, m in o["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
