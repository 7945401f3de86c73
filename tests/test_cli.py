import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ebchan
from ebchan.channel import (depolarizing, make_holevo_form, map_to_diagonal,
                            stochastic_rep)
from ebchan.checks import run_channel_checks
from ebchan.cli import main
from ebchan.errors import ConsistencyError
from ebchan.sampling import random_holevo_form
from ebchan.serialization import (emit_channel_document, matrix_to_literal,
                                  parse_channel_document, state_to_file,
                                  stochastic_to_file)

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


@pytest.fixture
def example_one_file(tmp_path):
    form = make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])
    path = tmp_path / "one.json"
    path.write_text(emit_channel_document(form, metadata={"name": "projective-flip"}))
    return str(path)


@pytest.fixture
def example_two_file(tmp_path):
    form = make_holevo_form(2, [(0.5 * E00, E00), (0.5 * E11, E00),
                                (0.5 * IDENT, E11)])
    path = tmp_path / "two.json"
    path.write_text(emit_channel_document(form))
    return str(path)


def machine_report(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_build_depolarizing_to_file(tmp_path, capsys):
    out = tmp_path / "depol.json"
    assert main(["build", "depolarizing", "--n", "2", "-o", str(out)]) == 0
    form = parse_channel_document(out.read_text())
    assert form.r == 1
    assert np.allclose(form.effects[0], np.eye(2), atol=1e-15)
    assert np.allclose(form.states[0], np.eye(2) / 2, atol=1e-15)


def test_build_writes_stdout_by_default(capsys):
    assert main(["build", "diag", "--n", "3"]) == 0
    form = parse_channel_document(capsys.readouterr().out)
    assert form.n == 3 and form.r == 3
    assert np.allclose(stochastic_rep(form), np.eye(3), atol=1e-12)


def test_build_usage_errors(capsys):
    assert main(["build", "depolarizing"]) == 2
    assert "--n" in capsys.readouterr().err
    assert main(["build", "diag", "--n", "0"]) == 2
    assert "positive" in capsys.readouterr().err
    assert main(["build", "qc"]) == 2
    assert "--stochastic" in capsys.readouterr().err
    assert main(["build", "from-kraus"]) == 2
    assert "--kraus" in capsys.readouterr().err


def test_build_qc_round_trip(tmp_path, capsys):
    s = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.5], [0.5, 0.5, 0.5]])
    src = tmp_path / "s.json"
    src.write_text(stochastic_to_file(s))
    out = tmp_path / "qc.json"
    assert main(["build", "qc", "--stochastic", str(src), "-o", str(out)]) == 0
    form = parse_channel_document(out.read_text())
    assert np.max(np.abs(stochastic_rep(form) - s)) <= 1e-12


def test_build_from_kraus(tmp_path, capsys):
    src = tmp_path / "kraus.json"
    src.write_text(json.dumps({
        "n": 2,
        "operators": [matrix_to_literal(E00), matrix_to_literal(E11)],
    }))
    out = tmp_path / "chan.json"
    assert main(["build", "from-kraus", "--kraus", str(src), "-o", str(out)]) == 0
    assert parse_channel_document(out.read_text()).r == 2

    src.write_text(json.dumps({"n": 2, "operators": [matrix_to_literal(np.eye(2))]}))
    assert main(["build", "from-kraus", "--kraus", str(src)]) == 2
    assert "rank" in capsys.readouterr().err


def test_analyze_text_example_one(example_one_file, capsys):
    assert main(["analyze", example_one_file]) == 0
    out = capsys.readouterr().out
    assert "(projective-flip)" in out
    assert "matrix primitive: yes (p = 1)" in out
    assert "channel primitive: yes (q = 2)" in out
    assert "nonzero spectrum: matched" in out
    assert "consistency: ok" in out


def test_analyze_machine_example_one(example_one_file, capsys):
    assert main(["analyze", example_one_file, "--format", "machine"]) == 0
    doc = machine_report(capsys)
    assert doc["name"] == "projective-flip"
    assert doc["primitivity"]["p_index"] == 1
    assert doc["primitivity"]["q_index"] == 2
    assert doc["consistent"] is True
    assert np.allclose(doc["stochastic_matrix"], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_analyze_machine_example_two(example_two_file, capsys):
    assert main(["analyze", example_two_file, "--format", "machine"]) == 0
    doc = machine_report(capsys)
    assert doc["primitivity"]["p_index"] == 2
    assert doc["primitivity"]["q_index"] == 1
    assert "name" not in doc


def test_analyze_non_primitive_channel(tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(emit_channel_document(map_to_diagonal(3)))
    assert main(["analyze", str(path), "--format", "machine"]) == 0
    doc = machine_report(capsys)
    assert doc["primitivity"]["channel_primitive"] is False
    assert doc["primitivity"]["q_index"] is None
    assert np.array_equal(doc["stochastic_matrix"], np.eye(3))


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1",')
    assert main(["analyze", str(path)]) == 2
    assert "offset" in capsys.readouterr().err


def test_analyze_rejects_invalid_channel(tmp_path, capsys):
    path = tmp_path / "notpovm.json"
    path.write_text(json.dumps({
        "format_version": "1",
        "n": 2,
        "pairs": [{"F": matrix_to_literal(0.9 * np.eye(2)),
                   "R": matrix_to_literal(np.eye(2) / 2)}],
    }))
    assert main(["analyze", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_tolerance_override(example_one_file, capsys):
    assert main(["analyze", example_one_file, "--format", "machine",
                 "--match-tol", "1e-3"]) == 0
    doc = machine_report(capsys)
    assert doc["tolerances_used"]["match_tol"] == 1e-3
    assert doc["tolerances_used"]["psd_tol"] == 1e-9


def test_iterate_flip_example(example_one_file, tmp_path, capsys):
    state = tmp_path / "minus.json"
    state.write_text(state_to_file(MINUS))
    assert main(["iterate", example_one_file, "--state", str(state),
                 "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "step 0" in out and "step 2" in out
    final = [line for line in out.splitlines() if line.startswith("step 2:")][0]
    assert float(final.split("=")[1]) <= 1e-12
    assert "worst vector-track residual" in out


def test_iterate_depolarizing(tmp_path, capsys):
    chan = tmp_path / "depol.json"
    chan.write_text(emit_channel_document(depolarizing(2)))
    state = tmp_path / "e00.json"
    state.write_text(state_to_file(E00))
    assert main(["iterate", str(chan), "--state", str(state), "--steps", "3"]) == 0
    assert "step 3" in capsys.readouterr().out


def test_iterate_dimension_mismatch(example_one_file, tmp_path, capsys):
    state = tmp_path / "big.json"
    state.write_text(state_to_file(np.eye(3) / 3))
    assert main(["iterate", example_one_file, "--state", str(state),
                 "--steps", "1"]) == 2
    assert "dimension" in capsys.readouterr().err


def test_iterate_rejects_zero_steps(example_one_file, tmp_path, capsys):
    state = tmp_path / "minus.json"
    state.write_text(state_to_file(MINUS))
    assert main(["iterate", example_one_file, "--state", str(state),
                 "--steps", "0"]) == 2
    assert "--steps" in capsys.readouterr().err


def test_verify_file(example_one_file, capsys):
    assert main(["verify", example_one_file]) == 0
    assert "all invariants pass" in capsys.readouterr().out


def test_verify_random(capsys):
    assert main(["verify", "--random", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 3
    assert "all invariants pass" in out


def test_verify_bad_document(tmp_path, capsys):
    path = tmp_path / "notpovm.json"
    path.write_text(json.dumps({
        "format_version": "1",
        "n": 2,
        "pairs": [{"F": matrix_to_literal(0.9 * np.eye(2)),
                   "R": matrix_to_literal(np.eye(2) / 2)}],
    }))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "document_validation" in out
    failures = json.loads(out[out.index("{"):])
    assert failures["failures"][0]["check"] == "document_validation"


def test_verify_requires_target(capsys):
    assert main(["verify"]) == 2
    assert "--random" in capsys.readouterr().err


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


@pytest.fixture
def depolarizing_file(tmp_path):
    path = tmp_path / "depol.json"
    assert main(["build", "depolarizing", "--n", "2", "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_analyze_rejects_bad_tolerance(depolarizing_file, value, capsys):
    assert main(["analyze", depolarizing_file, "--psd-tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "psd_tol must be finite and nonnegative" in captured.err


def test_analyze_rejects_zero_eig_tol_zero(depolarizing_file, capsys):
    assert main(["analyze", depolarizing_file, "--zero-eig-tol", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: zero_eig_tol must be positive" in captured.err


def test_verify_random_reports_a_raising_channel_and_goes_on(capsys, monkeypatch):
    seen = []

    def raise_on_second(form, tol, rng):
        seen.append(form)
        if len(seen) == 2:
            raise ConsistencyError("positivity holds at m = 2 but not at m = 3")
        return run_channel_checks(form, tol, rng)

    monkeypatch.setattr("ebchan.cli.run_channel_checks", raise_on_second)
    assert main(["verify", "--random", "4", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    out = captured.out
    assert len(seen) == 4
    lines = [line for line in out.splitlines() if line.startswith("random[")]
    assert [line.split(" ")[0] for line in lines] == [f"random[{i}]" for i in range(4)]
    assert lines[1].endswith(": FAILED exception (positivity holds at m = 2 but not at m = 3)")
    assert all(line.endswith(": ok") for line in lines[::2] + lines[3:])
    assert "Traceback" not in out + captured.err
    failures = json.loads(out[out.index("{"):])["failures"]
    assert failures == [{"channel": "random[1]", "check": "exception",
                         "detail": "ConsistencyError: positivity holds at m = 2 "
                                   "but not at m = 3"}]


def test_internal_consistency_failure_exits_one(example_one_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ConsistencyError("positivity holds at m = 2 but not at m = 3")

    monkeypatch.setattr("ebchan.cli.channel_primitivity_index", fail)
    assert main(["analyze", example_one_file]) == 1
    assert "error: positivity holds" in capsys.readouterr().err


def test_analyze_rejects_nan_entry(tmp_path, capsys):
    doc = json.loads(emit_channel_document(depolarizing(2)))
    doc["pairs"][0]["F"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_every_exported_name_resolves():
    assert len(set(ebchan.__all__)) == len(ebchan.__all__)
    for name in ebchan.__all__:
        assert not isinstance(getattr(ebchan, name), types.ModuleType), name


def fresh_python(code, *args):
    """Last line that ``code`` prints in a fresh interpreter that imports ebchan from here."""
    src = str(Path(ebchan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # numpy is the only dependency; a fresh interpreter shows what importing pulls in
    code = ("import sys, ebchan, ebchan.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code) == "[]"


def test_analyze_loads_no_numpy_random_or_ma(tmp_path):
    # analyze needs neither; numpy 1.x loads both with numpy itself, so only
    # what the run adds beyond a bare import of numpy counts
    paths = []
    for n, r in ((2, 4), (4, 3)):
        form = random_holevo_form(np.random.default_rng(n), n, r)
        q, _ = form._action_range
        assert q.shape[1] == (n * n if r >= n * n else r)  # the exact, then the range route
        paths.append(tmp_path / f"n{n}.json")
        paths[-1].write_text(emit_channel_document(form))
    code = ("import sys, numpy\n"
            "def loaded(): return {m for m in sys.modules if m.startswith(('numpy.random', 'numpy.ma'))}\n"
            "bare = loaded()\n"
            "from ebchan.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    assert main(['analyze', path]) == 0\n"
            "    assert main(['analyze', path, '--format', 'machine']) == 0\n"
            "print(sorted(loaded() - bare))\n")
    assert fresh_python(code, *map(str, paths)) == "[]"
