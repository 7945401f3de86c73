"""Tests of the benchmark's own parts: generator, oracle, span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import hashlib
import io
import json

import pytest

import calib
import gen
import oracle
import run
import spans


def _hashes(workload, seed):
    docs, ops = gen.generate(workload, seed)
    hashes = {name: hashlib.sha256(text.encode()).hexdigest() for name, (text, _) in docs.items()}
    return hashes, ops


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload):
    first, ops = _hashes(workload, 7)
    again, ops_again = _hashes(workload, 7)
    assert first == again and ops == ops_again
    other, _ = _hashes(workload, 8)
    assert other != first


def test_written_inputs_carry_the_same_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = run.write_inputs("subset-q", 3)[-1]
    manifest = json.loads((tmp_path / run.OUT / "inputs" / "subset-q-seed3" / "MANIFEST.json")
                          .read_text())
    assert manifest["digest"] == digest
    assert run.write_inputs("subset-q", 3)[-1] == digest


def _analyze(path, fmt):
    from ebchan import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", str(path), "--format", fmt]) == 0
    return out.getvalue()


@pytest.fixture
def flip(tmp_path):
    text = gen.channel_doc(*gen.flip_pairs())
    path = tmp_path / "flip.json"
    path.write_text(text)
    return path, oracle.expectation(text, "flip")


def test_oracle_accepts_genuine_reports(flip):
    path, exp = flip
    assert (exp["p"], exp["q"]) == (1, 2)
    assert oracle.check_machine_report(_analyze(path, "machine"), exp) == []
    assert oracle.check_text_report(_analyze(path, "text"), exp) == []


@pytest.mark.parametrize("doctor", [
    lambda rep: rep["primitivity"].update(q_index=1),
    lambda rep: rep["primitivity"].update(p_index=2),
    lambda rep: rep.update(consistent=False),
    lambda rep: rep["stochastic_matrix"][0].__setitem__(0, 0.6),
    lambda rep: rep["holevo_rank_bounds"].update(lower=1),
    lambda rep: rep["spectrum_comparison"].update(channel_nonzero=[[0.5, 0.0]]),
    lambda rep: rep["fixed_point"].update(rho=[[[1.0, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [0.0, 0.0]]]),
])
def test_oracle_rejects_doctored_machine_report(flip, doctor):
    path, exp = flip
    rep = json.loads(_analyze(path, "machine"))
    doctor(rep)
    assert oracle.check_machine_report(json.dumps(rep), exp) != []


def test_oracle_rejects_doctored_text_and_failed_ops(flip):
    path, exp = flip
    text = _analyze(path, "text")
    assert oracle.check_text_report(text.replace("(q = 2)", "(q = 1)"), exp) != []
    assert oracle.check_text_report(text.replace("consistency: ok", "consistency: FAILED"),
                                    exp) != []
    op = {"check": "analyze-text", "doc": "flip.json"}
    assert oracle.check_op(op, {"rc": 1, "out": text}, {"flip.json": exp}) != []
    assert oracle.check_op(op, {"error": "ValueError: boom"}, {"flip.json": exp}) != []


def test_oracle_on_checks_and_build_outputs():
    s = gen.wielandt_stochastic(__import__("numpy").random.default_rng(0), 4)
    exp = oracle.expectation(gen.channel_doc(*gen.qc_pairs(s)), "wielandt")
    assert (exp["p"], exp["q"]) == (10, 10)
    good = [["povm_closure", True, "ok"], ["index_gap", True, "|q - p| = |10 - 10|"]]
    assert oracle.check_checks(good, exp) == []
    assert oracle.check_checks([["povm_closure", False, "x"], *good[1:]], exp) != []
    assert oracle.check_checks([good[0], ["index_gap", True, "|q - p| = |9 - 10|"]], exp) != []
    assert oracle.check_checks(good[:1], exp) != []
    built = gen.channel_doc(*gen.diag_pairs(3))
    assert oracle.check_build(built, {"n": 3, "r": 3}) == []
    assert oracle.check_build(built, {"n": 3, "r": 2}) != []


def _span(name, start, end, parent=None, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_covered_child_time():
    trace = [_span("a", 0.0, 10.0), _span("b", 1.0, 3.0, 0), _span("c", 4.0, 8.0, 0),
             _span("d", 5.0, 6.0, 2), _span("a", 12.0, 13.0)]
    assert spans.self_times(trace) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    table = spans.self_time_table(trace)
    assert table["a"] == pytest.approx({"calls": 2, "total_s": 11.0, "self_s": 5.0})


def test_covered_and_busy_time_merge_overlaps():
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    trace = [_span("x", 0.0, 4.0, op=0), _span("x", 1.0, 2.0, 0, op=0),
             _span("x", 0.0, 1.0, op=1), _span("y", 0.0, 9.0, op=2)]
    assert spans.busy_per_op(trace, "x", [0, 1, 2]) == pytest.approx(1.0)


def test_recorder_wraps_every_reference_and_restores_them():
    from ebchan import channel, cli, primitivity
    original = channel.natural_rep
    recorder = spans.Recorder()
    recorder.install()
    assert "channel.natural_rep" in recorder.traced_names()
    assert primitivity.natural_rep is channel.natural_rep is not original
    recorder.op = 0
    cli.analyze_form(channel.depolarizing(2))
    names = [s[0] for s in recorder.spans]
    assert names[0] == "cli.analyze_form" and "channel.natural_rep" in names
    assert all(s[3] is not None for s in recorder.spans[1:])
    recorder.uninstall()
    assert channel.natural_rep is original and primitivity.natural_rep is original


def test_scaled_times_take_each_ops_median_at_reference_speed():
    ref = calib.REFERENCE_S
    results = [
        {"phase": "timed", "i": 0, "t": 1.0, "kernel_s": ref},
        {"phase": "timed", "i": 0, "t": 1.6, "kernel_s": 2 * ref},    # a slow stretch: 0.8
        {"phase": "timed", "i": 0, "t": 0.9, "kernel_s": ref},
        {"phase": "timed", "i": 1, "t": 0.3, "kernel_s": 1.5 * ref},  # 0.2
        {"phase": "traced", "i": 1, "t": 9.0},
    ]
    assert run.scaled_times(results) == pytest.approx({0: 0.9, 1: 0.2})
    assert run.best_times(results, "timed") == pytest.approx({0: 0.9, 1: 0.3})


def test_reference_kernel_takes_time():
    assert calib.kernel_seconds() > 0
    assert calib.scaled(2.0, calib.REFERENCE_S / 2) == pytest.approx(4.0)


def test_tail_keeps_ten_samples_beyond_or_falls_back():
    value, pct, beyond = run.tail(range(30))
    assert (value, beyond) == (19, 10) and pct == pytest.approx(100 * 19 / 29)
    value, _, beyond = run.tail(range(6))
    assert (value, beyond) == (4, 1)


def test_m_tested_counts_the_window_iterates():
    assert run.m_tested(3, 3) == 3      # m = 2, 3, then 4 to confirm
    assert run.m_tested(1, 2) == 2      # m = 1, 2; 2 is the window top
    assert run.m_tested(None, None) == 0


def test_importtime_parse_counts_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.linalg",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |   numpy.x",
        "import time:        10 |        500 | ebchan",
    ])
    assert run.importtime_cumulative(stderr) == pytest.approx((500e-6, 300e-6))
