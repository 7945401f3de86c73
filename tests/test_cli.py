import json
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ebchan
from ebchan import primitivity
from ebchan.channel import (compare_nonzero_spectrum, depolarizing, fixed_point,
                            make_holevo_form, map_to_diagonal, qc_from_stochastic,
                            stochastic_rep)
from ebchan.checks import run_channel_checks
from ebchan.cli import main
from ebchan.errors import ConsistencyError, ValidationError
from ebchan.sampling import random_holevo_form, random_qc_form, wielandt_matrix
from ebchan.serialization import (emit_channel_document, matrix_to_literal,
                                  parse_channel_document)

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


def state_file_text(rho) -> str:
    return json.dumps({"n": len(rho), "rho": matrix_to_literal(rho)})


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


@pytest.mark.parametrize("kind", ["depolarizing", "diag"])
def test_build_rejects_an_n_beyond_numpy_s_address_space(kind, capsys):
    # 16 * (10^9)^2 bytes: numpy itself would refuse, so nothing is allocated either way
    assert main(["build", kind, "--n", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "16000000000000000000 bytes" in captured.err
    assert "more than numpy can address" in captured.err


def test_out_of_memory_exits_two_and_names_the_command(capsys, monkeypatch):
    def out_of_memory(n):
        raise MemoryError(f"Unable to allocate 149. GiB for an array with shape ({n}, {n})")

    monkeypatch.setattr("ebchan.cli.depolarizing", out_of_memory)
    assert main(["build", "depolarizing", "--n", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: build ran out of memory: Unable to allocate 149. GiB "
                            "for an array with shape (100000, 100000)\n")


def test_build_qc_round_trip(tmp_path, capsys):
    s = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.5], [0.5, 0.5, 0.5]])
    src = tmp_path / "s.json"
    src.write_text(json.dumps({"r": 3, "entries": s.tolist()}))
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


def test_machine_report_key_order(example_one_file, capsys):
    # the keys follow the field order of the report dataclasses; pinned so that
    # reordering a field fails here instead of changing the output unnoticed
    assert main(["analyze", example_one_file, "--format", "machine"]) == 0
    doc = machine_report(capsys)
    assert list(doc) == ["n", "r", "stochastic_matrix", "column_sum_residual",
                         "spectrum_comparison", "primitivity", "fixed_point",
                         "holevo_rank_bounds", "tolerances_used", "consistent", "name"]
    assert list(doc["spectrum_comparison"]) == ["channel_nonzero", "matrix_nonzero",
                                                "max_pair_distance", "matched"]
    assert list(doc["primitivity"]) == ["s_primitive", "sum_R_pd", "channel_primitive",
                                        "p_index", "q_index", "bound_abs_diff_ok",
                                        "holevo_rank_bound_ok", "q_method", "q_window"]
    assert list(doc["fixed_point"]) == ["rho", "residual", "unique"]
    assert list(doc["holevo_rank_bounds"]) == ["lower", "upper", "q_upper_from_rank"]
    assert list(doc["tolerances_used"]) == ["psd_tol", "zero_eig_tol", "match_tol",
                                            "stochastic_tol"]
    assert doc["primitivity"]["q_window"] == [1, 2]
    assert np.shape(doc["fixed_point"]["rho"]) == (2, 2, 2)  # [re, im] per entry
    assert np.shape(doc["spectrum_comparison"]["channel_nonzero"]) == (1, 2)


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
    assert "not valid JSON at offset" in capsys.readouterr().err


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
    state.write_text(state_file_text(MINUS))
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
    state.write_text(state_file_text(E00))
    assert main(["iterate", str(chan), "--state", str(state), "--steps", "3"]) == 0
    assert "step 3" in capsys.readouterr().out


def test_iterate_dimension_mismatch(example_one_file, tmp_path, capsys):
    state = tmp_path / "big.json"
    state.write_text(state_file_text(np.eye(3) / 3))
    assert main(["iterate", example_one_file, "--state", str(state),
                 "--steps", "1"]) == 2
    assert "dimension" in capsys.readouterr().err


def test_iterate_rejects_zero_steps(example_one_file, tmp_path, capsys):
    state = tmp_path / "minus.json"
    state.write_text(state_file_text(MINUS))
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


# (n, r) of the 40 channels `verify --random 40 --seed 3` draws. Channel
# generation and the checks share one stream, so each size depends on every
# draw the checks made before it.
VERIFY_SEED3_SIZES = [
    (3, 1), (2, 1), (3, 1), (3, 2), (3, 2), (3, 3), (2, 4), (2, 5), (3, 1), (3, 2),
    (2, 4), (3, 2), (2, 3), (2, 1), (3, 4), (3, 3), (3, 2), (2, 1), (3, 3), (3, 4),
    (3, 3), (2, 3), (2, 4), (3, 1), (3, 3), (2, 2), (3, 2), (3, 3), (3, 1), (2, 2),
    (3, 3), (2, 2), (2, 3), (2, 5), (2, 5), (3, 2), (3, 3), (2, 5), (2, 2), (3, 5),
]


def test_verify_random_keeps_its_stream(capsys):
    assert main(["verify", "--random", "40", "--seed", "3"]) == 0
    expected = [f"random[{i}] (n = {n}, r = {r}): ok"
                for i, (n, r) in enumerate(VERIFY_SEED3_SIZES)]
    assert capsys.readouterr().out.splitlines() == expected + ["all invariants pass"]


def test_verify_bad_document(tmp_path, capsys):
    path = tmp_path / "notpovm.json"
    path.write_text(json.dumps({
        "format_version": "1",
        "n": 2,
        "pairs": [{"F": matrix_to_literal(0.9 * np.eye(2)),
                   "R": matrix_to_literal(np.eye(2) / 2)}],
    }))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: effects sum to I only within 1.000e-01, tolerance 1.0e-10\n"


@pytest.fixture
def stochastic_fault_file(tmp_path):
    # the states validate within psd_tol, but the induced S has an entry of
    # -4.5e-10, beyond stochastic_tol: the fault surfaces after validation
    eps = 9e-10
    form = make_holevo_form(3, [(np.diag([1.0, 0.0, 0.5]), np.diag([1 + eps, 0.0, -eps])),
                                (np.diag([0.0, 1.0, 0.5]), np.diag([0.0, 1 + eps, -eps]))])
    path = tmp_path / "stochastic-fault.json"
    path.write_text(emit_channel_document(form))
    return str(path)


STOCHASTIC_FAULT = ("error: induced matrix is not column-stochastic (corrupted form?): "
                    "entry (0,1) = -4.500e-10 is negative beyond tolerance\n")


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_a_fault_found_after_validation_exits_two(command, stochastic_fault_file, capsys):
    assert main([command, stochastic_fault_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == STOCHASTIC_FAULT


def test_verify_random_reports_a_channel_raising_validation_error_and_goes_on(capsys,
                                                                             monkeypatch):
    seen = []

    def raise_on_first(form, rng):
        seen.append(form)
        if len(seen) == 1:
            raise ValidationError("induced matrix is not column-stochastic")
        return run_channel_checks(form, rng)

    monkeypatch.setattr("ebchan.cli.run_channel_checks", raise_on_first)
    assert main(["verify", "--random", "3", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert len(seen) == 3 and captured.err == ""
    lines = [line for line in captured.out.splitlines() if line.startswith("random[")]
    assert lines[0].endswith(": FAILED exception (induced matrix is not column-stochastic)")
    assert all(line.endswith(": ok") for line in lines[1:]) and len(lines) == 3


@pytest.fixture(params=["key", "value"])
def lone_surrogate_file(request, tmp_path):
    doc = json.loads(emit_channel_document(depolarizing(2)))
    doc["metadata"] = {"name": "\ud800"} if request.param == "value" else {"\ud800": "x"}
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))  # ASCII: the surrogate is a \ud800 escape
    return request.param, str(path)


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_analyze_rejects_a_lone_surrogate_in_metadata(lone_surrogate_file, fmt, capsys):
    part, path = lone_surrogate_file
    assert main(["analyze", path, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: 'metadata' {part} of entry ")
    assert "not encodable as UTF-8: surrogates not allowed" in captured.err


def test_verify_reports_a_lone_surrogate_in_metadata(lone_surrogate_file, capsys):
    part, path = lone_surrogate_file
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: 'metadata' {part} of entry ")
    assert "not encodable as UTF-8: surrogates not allowed" in captured.err


def test_verify_requires_target(capsys):
    assert main(["verify"]) == 2
    assert "--random" in capsys.readouterr().err


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


def test_verify_rejects_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--random", "2", "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be a nonnegative integer, got '-1'" in captured.err


def test_verify_rejects_a_file_with_random(example_one_file, capsys):
    assert main(["verify", example_one_file, "--random", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: verify takes a channel file or --random N, not both" in captured.err


@pytest.mark.parametrize("argv", [
    ["analyze", "{bad}"],
    ["verify", "{bad}"],
    ["iterate", "{good}", "--state", "{bad}", "--steps", "1"],
    ["build", "qc", "--stochastic", "{bad}"],
    ["build", "from-kraus", "--kraus", "{bad}"],
], ids=["analyze", "verify", "iterate-state", "build-qc", "build-from-kraus"])
def test_file_that_is_not_utf8_exits_two(argv, example_one_file, tmp_path, capsys):
    bad = tmp_path / "bin.json"
    bad.write_bytes(b'{"n": \xff\xfe\x00bad')
    argv = [arg.format(bad=bad, good=example_one_file) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {bad} is not UTF-8 text at byte 6: invalid start byte" in captured.err


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


def test_analyze_rejects_psd_tol_of_one(depolarizing_file, capsys):
    # a cut relative to max(1, lambda_max) at 1 leaves no matrix PD
    assert main(["analyze", depolarizing_file, "--psd-tol", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: psd_tol must be below 1, got 1.0" in captured.err


def test_analyze_rejects_zero_eig_tol_of_one(depolarizing_file, capsys):
    # ... and counts every PSD matrix with lambda_max < 1 as singular
    assert main(["analyze", depolarizing_file, "--zero-eig-tol", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: zero_eig_tol must be below 1, got 1.0" in captured.err


def test_analyze_rejects_match_tol_of_one(depolarizing_file, capsys):
    # every eigenvalue compared lies in the closed unit disk
    assert main(["analyze", depolarizing_file, "--match-tol", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: match_tol must be below 1, got 5.0: "
                            "the spectra it matches lie in the closed unit disk\n")


def test_analyze_rejects_match_tol_of_zero(depolarizing_file, capsys):
    # round-off alone sets 0.9999999999999994 apart from 1 on a valid channel
    assert main(["analyze", depolarizing_file, "--match-tol", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: match_tol must be positive, got 0.0: "
                            "round-off alone separates equal eigenvalues\n")


def test_verify_random_reports_a_raising_channel_and_goes_on(capsys, monkeypatch):
    seen = []

    def raise_on_second(form, rng):
        seen.append(form)
        if len(seen) == 2:
            raise ConsistencyError("positivity holds at m = 2 but not at m = 3")
        return run_channel_checks(form, rng)

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


def test_unconverged_eigenvalue_iteration_exits_one(example_one_file, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    assert main(["analyze", example_one_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: eigenvalue iteration did not converge: "
                            "Eigenvalues did not converge\n")


def test_failed_stationary_solve_exits_one(example_one_file, capsys, monkeypatch):
    def negative_solution(lhs, rhs, rcond=None):
        return np.array([-0.5, 1.5]), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", negative_solution)
    assert main(["analyze", example_one_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stationary solve produced entry -5.000e-01 below tolerance\n"


def test_near_singular_state_sum_ends_in_a_verdict(tmp_path, capsys):
    # sum R = diag(2 - 6e-9, 6e-9): PD under psd_tol, singular under the zero
    # cut of the subset tables, which the sum-of-states verdict now shares
    form = make_holevo_form(2, [(IDENT / 2, E00), (IDENT / 2, np.diag([1 - 6e-9, 6e-9]))])
    path = tmp_path / "near-singular.json"
    path.write_text(emit_channel_document(form))
    assert main(["analyze", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  sum of states positive definite: no\n" in captured.out
    assert "  channel primitive: no (q = none)\n" in captured.out
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == (f"{path} (n = 2, r = 2): ok\nall invariants pass\n")


def decayed_wielandt_matrix(r):
    # the Wielandt pattern on r pairs with chord weights (1e-3, 1 - 1e-3)
    s = np.array(wielandt_matrix(r))
    s[0, r - 1], s[1, r - 1] = 1e-3, 1.0 - 1e-3
    return s


@pytest.mark.parametrize("s, q", [
    # S^(m-1) has entries below the kernel cut; the pattern of S^(m-1) does not
    (decayed_wielandt_matrix(4), 10),
    # the pattern counts S's 1e-9 as positive (p = 1); the kernel cut counts
    # the effect diag(1e-9, 0.5) as singular, so q = 2
    ([[1 - 1e-9, 0.5], [1e-9, 0.5]], 2),
], ids=["decayed-wielandt", "tiny-entry"])
def test_analyze_reads_q_off_the_pattern_of_s(s, q, tmp_path, capsys):
    path = tmp_path / "qc.json"
    path.write_text(emit_channel_document(qc_from_stochastic(s)))
    assert main(["analyze", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"  channel primitive: yes (q = {q})\n" in captured.out
    assert captured.out.endswith("consistency: ok\n")


def test_verify_passes_a_slowly_attracting_channel(tmp_path, capsys):
    # on 13 pairs |lambda_2| is about 1 - 1.1e-5: the iterates reach the fixed
    # point after about 2^20 steps, which the attraction check squares its way to
    path = tmp_path / "qc.json"
    path.write_text(emit_channel_document(qc_from_stochastic(decayed_wielandt_matrix(13))))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == f"{path} (n = 13, r = 13): ok\nall invariants pass\n"


def test_analyze_observes_the_lower_side_of_the_index_gap(tmp_path, capsys, monkeypatch):
    # p reported 2 too high on the Wielandt qc form on 4 pairs (p = q = 10):
    # the search tests m = p - 2 = 10, finds it positive and reports q = 10
    index = primitivity.primitivity_index

    def two_too_high(s, tol):
        verdict = index(s, tol)
        return replace(verdict, index=verdict.index + 2)

    monkeypatch.setattr(primitivity, "primitivity_index", two_too_high)
    path = tmp_path / "qc.json"
    path.write_text(emit_channel_document(qc_from_stochastic(wielandt_matrix(4))))
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr().out
    assert "  matrix primitive: yes (p = 12)\n" in out
    assert "  channel primitive: yes (q = 10)\n" in out
    assert out.endswith("consistency: FAILED\n  - index gap |q - p| exceeds 1\n")


def test_analyze_renders_the_bounds_only_window(tmp_path, capsys):
    # r = 21 is above SUBSET_CAP: q is left to the window [max(1, p - 1), p + 1]
    path = tmp_path / "wide.json"
    path.write_text(emit_channel_document(random_holevo_form(np.random.default_rng(0), 2, 21)))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  channel primitive: yes (q = in [1, 2] (bounds-only, r above enumeration cap))\n" in out
    assert out.endswith("consistency: ok\n")
    assert main(["analyze", str(path), "--format", "machine"]) == 0
    report = machine_report(capsys)
    prim = report["primitivity"]
    assert (prim["q_method"], prim["q_index"], prim["q_window"]) == ("bounds-only", None, [1, 2])
    assert report["consistent"] is True


@pytest.mark.parametrize("name, fake, problem", [
    ("compare_nonzero_spectrum",
     lambda form: replace(compare_nonzero_spectrum(form), matched=False),
     "nonzero spectra of the channel and its matrix disagree"),
    ("fixed_point", lambda form: replace(fixed_point(form), residual=1e-9),
     "fixed point residual 1.000e-09 exceeds 1e-10"),
], ids=["spectrum", "fixed-point"])
def test_analyze_exits_one_on_a_failed_cross_check(example_one_file, capsys, monkeypatch,
                                                    name, fake, problem):
    monkeypatch.setattr(f"ebchan.cli.{name}", fake)
    assert main(["analyze", example_one_file]) == 1
    assert capsys.readouterr().out.endswith(f"consistency: FAILED\n  - {problem}\n")
    assert main(["analyze", example_one_file, "--format", "machine"]) == 1
    assert machine_report(capsys)["consistent"] is False


def test_iterate_exits_one_when_the_trajectories_disagree(example_one_file, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr("ebchan.cli.stochastic_rep", lambda form: stochastic_rep(form) + 1e-6)
    state = tmp_path / "rho.json"
    state.write_text(state_file_text(E00))
    assert main(["iterate", example_one_file, "--state", str(state), "--steps", "2"]) == 1
    assert capsys.readouterr().err == "error: state trajectory and stochastic trajectory disagree\n"


def test_verify_file_exits_one_on_a_channel_index_one_too_large(tmp_path, capsys, monkeypatch):
    # r = 13 is above SWEEP_CAP; q = 3, so the claimed q = 4 leaves m = 3
    # positive where the probe needs a witness
    form = random_qc_form(np.random.default_rng(3), 13, zero_fraction=0.6)
    report = primitivity.channel_primitivity_index(form)
    monkeypatch.setattr("ebchan.checks.channel_primitivity_index",
                        lambda form: replace(report, q_index=report.q_index + 1))
    path = tmp_path / "qc13.json"
    path.write_text(emit_channel_document(form))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{path} (n = 13, r = 13): FAILED witness_soundness\n")
    assert json.loads(out[out.index("{"):]) == {"failures": [{
        "channel": str(path), "check": "witness_soundness",
        "detail": "positivity already holds at m = 3"}]}


def test_analyze_rejects_nan_entry(tmp_path, capsys):
    doc = json.loads(emit_channel_document(depolarizing(2)))
    doc["pairs"][0]["F"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


HUGE = 10 ** 400  # a JSON integer no float can hold


def test_analyze_rejects_integer_beyond_float_range(tmp_path, capsys):
    doc = json.loads(emit_channel_document(depolarizing(2)))
    doc["pairs"][0]["R"][1][0] = [0, HUGE]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert "error: pairs[0].R: entry (1,0) is outside the float range" in capsys.readouterr().err


def test_iterate_rejects_state_integer_beyond_float_range(example_one_file, tmp_path, capsys):
    state = tmp_path / "huge.json"
    state.write_text(json.dumps({"n": 2, "rho": [[[1, 0], [0, 0]], [[0, 0], [-HUGE, 0]]]}))
    assert main(["iterate", example_one_file, "--state", str(state), "--steps", "1"]) == 2
    assert "error: rho: entry (1,1) is outside the float range" in capsys.readouterr().err


def test_build_from_kraus_rejects_integer_beyond_float_range(tmp_path, capsys):
    src = tmp_path / "kraus.json"
    src.write_text(json.dumps({"n": 2, "operators": [
        matrix_to_literal(E00), [[[0, 0], [0, 0]], [[0, 0], [1, HUGE]]]]}))
    assert main(["build", "from-kraus", "--kraus", str(src)]) == 2
    assert ("error: operators[1]: entry (1,1) is outside the float range"
            in capsys.readouterr().err)


def test_build_qc_rejects_integer_beyond_float_range(tmp_path, capsys):
    src = tmp_path / "s.json"
    src.write_text(json.dumps({"r": 2, "entries": [[1, 0], [HUGE, 1]]}))
    assert main(["build", "qc", "--stochastic", str(src)]) == 2
    assert ("error: 'entries' must hold real numbers: entry (1,0) is outside the float range"
            in capsys.readouterr().err)


def test_build_qc_rejects_booleans_and_strings(tmp_path, capsys):
    src = tmp_path / "s.json"
    src.write_text('{"r": 2, "entries": [[true, "0"], [false, "1"]]}')
    assert main(["build", "qc", "--stochastic", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: 'entries' must hold real numbers: entry (0,0) is not a number" in captured.err

    src.write_text('{"r": 2, "entries": [[1.0, 0], [0, "1"]]}')
    assert main(["build", "qc", "--stochastic", str(src)]) == 2
    assert "entry (1,1) is not a number" in capsys.readouterr().err


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
