import json
import re

import numpy as np
import pytest

from ebchan import serialization
from ebchan.channel import depolarizing, make_holevo_form
from ebchan.errors import ValidationError
from ebchan.sampling import random_channel
from ebchan.serialization import (FORMAT_VERSION, emit_channel_document,
                                  form_to_document, literal_to_matrix,
                                  matrix_to_literal,
                                  parse_channel_document, parse_kraus_file,
                                  parse_state_file, parse_stochastic_file)

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def example_one_document() -> str:
    form = make_holevo_form(2, [(PLUS, E00), (MINUS, E11)])
    return emit_channel_document(form, metadata={"name": "projective-flip"})


def test_round_trip_is_bit_identical():
    rng = np.random.default_rng(40)
    form = random_channel(rng, 3, 4)
    back = parse_channel_document(emit_channel_document(form))
    assert back.n == form.n and back.r == form.r
    for k in range(form.r):
        assert np.array_equal(back.effects[k], form.effects[k])
        assert np.array_equal(back.states[k], form.states[k])


def test_emitted_document_is_plain_json():
    text = example_one_document()
    doc = json.loads(text)
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["n"] == 2
    assert len(doc["pairs"]) == 2
    assert doc["metadata"] == {"name": "projective-flip"}


def test_parse_example_document():
    form = parse_channel_document(example_one_document())
    assert form.r == 2
    assert np.allclose(form.effects[0], PLUS, atol=1e-15)
    assert np.allclose(form.states[1], E11, atol=1e-15)


def test_matrix_literal_round_trip():
    m = np.array([[1.0 + 2.0j, 0.0], [-0.5j, 3.0]])
    lit = matrix_to_literal(m)
    assert lit[0][0] == [1.0, 2.0]
    assert np.array_equal(literal_to_matrix(lit, "m"), m)


def reference_matrix_to_literal(arr):
    """The entry-by-entry emitter, kept as the oracle."""
    a = np.asarray(arr, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


@pytest.mark.parametrize("n", range(1, 9))
def test_emitted_text_matches_the_per_entry_emitter(n, monkeypatch):
    rng = np.random.default_rng(400 + n)
    forms = [random_channel(rng, n, r) for r in (1, 2, n + 1)] + [depolarizing(n)]
    texts = [emit_channel_document(form, {"name": f"n{n}"}) for form in forms]
    monkeypatch.setattr(serialization, "matrix_to_literal", reference_matrix_to_literal)
    assert texts == [emit_channel_document(form, {"name": f"n{n}"}) for form in forms]


def test_emitted_layout_is_pinned():
    # [re, im] pairs and numeric rows sit on one line; everything else is indented
    assert example_one_document() == (
        '{\n  "format_version": "1",\n  "n": 2,\n  "pairs": [\n    {\n      "F": [\n'
        '        [[0.5, 0.0], [0.5, 0.0]],\n        [[0.5, 0.0], [0.5, 0.0]]\n      ],\n'
        '      "R": [\n        [[1.0, 0.0], [0.0, 0.0]],\n        [[0.0, 0.0], [0.0, 0.0]]\n'
        '      ]\n    },\n    {\n      "F": [\n        [[0.5, 0.0], [-0.5, 0.0]],\n'
        '        [[-0.5, 0.0], [0.5, 0.0]]\n      ],\n      "R": [\n'
        '        [[0.0, 0.0], [0.0, 0.0]],\n        [[0.0, 0.0], [1.0, 0.0]]\n      ]\n'
        '    }\n  ],\n  "metadata": {\n    "name": "projective-flip"\n  }\n}\n')


def test_matrix_literal_keeps_every_float():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, np.inf, -np.inf, np.nan]
    m = np.array([[complex(a, b) for b in values] for a in values])
    lit = matrix_to_literal(m)
    assert json.dumps(lit) == json.dumps(reference_matrix_to_literal(m))
    assert all(type(x) is float for row in lit for cell in row for x in cell)
    assert literal_to_matrix(lit, "m").tobytes() == m.tobytes()


def test_literal_rejects_malformed_entries():
    with pytest.raises(ValidationError, match="nonempty list of rows"):
        literal_to_matrix([], "m")
    with pytest.raises(ValidationError, match="row 1 is not"):
        literal_to_matrix([[[1.0, 0.0]], "oops"], "m")
    with pytest.raises(ValidationError, match=r"row 1 has 2 entries"):
        literal_to_matrix([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "m")
    with pytest.raises(ValidationError, match=r"entry \(0,1\)"):
        literal_to_matrix([[[1.0, 0.0], [1.0]]], "m")
    with pytest.raises(ValidationError, match=r"entry \(0,0\)"):
        literal_to_matrix([[[True, False]]], "m")
    # the first fault in row-major order is named, even when a later row is bad too
    with pytest.raises(ValidationError, match=r"entry \(0,1\) is not a \[re, im\] pair"):
        literal_to_matrix([[[1.0, 0.0], [1.0]], "oops"], "m")
    with pytest.raises(ValidationError, match=r"m: entry \(1,0\) is outside the float range"):
        literal_to_matrix([[[1.0, 0.0]], [[0, -10 ** 400]]], "m")


def test_truncated_json_reports_offset():
    text = example_one_document()[:40]
    with pytest.raises(ValidationError) as info:
        parse_channel_document(text)
    found = re.match(r"channel document is not valid JSON at offset (\d+): ", str(info.value))
    assert found and 0 <= int(found.group(1)) <= len(text)


def test_document_validation_failures():
    good = json.loads(example_one_document())

    bad = dict(good, format_version="2")
    with pytest.raises(ValidationError, match="format_version"):
        parse_channel_document(json.dumps(bad))

    bad = dict(good, n=0)
    with pytest.raises(ValidationError, match="positive integer"):
        parse_channel_document(json.dumps(bad))

    bad = dict(good, pairs=[])
    with pytest.raises(ValidationError, match="nonempty list"):
        parse_channel_document(json.dumps(bad))

    bad = dict(good, metadata={"name": 3})
    with pytest.raises(ValidationError, match="strings to strings"):
        parse_channel_document(json.dumps(bad))

    with pytest.raises(ValidationError, match="JSON object"):
        parse_channel_document("[1, 2]")


def test_wrong_shape_reports_pair_index():
    doc = json.loads(example_one_document())
    doc["pairs"][1]["R"] = matrix_to_literal(np.eye(3))
    with pytest.raises(ValidationError,
                       match=r"^pairs\[1\]\.R has shape \(3, 3\), expected \(2, 2\)$"):
        parse_channel_document(json.dumps(doc))

    doc = json.loads(example_one_document())
    del doc["pairs"][0]["F"]
    with pytest.raises(ValidationError, match=r"^pairs\[0\] must be an object with 'F' and 'R'$"):
        parse_channel_document(json.dumps(doc))


def test_zero_effect_caught_on_parse():
    doc = json.loads(example_one_document())
    doc["pairs"][0]["F"] = matrix_to_literal(np.zeros((2, 2)))
    with pytest.raises(ValidationError, match=r"^F\[0\] is numerically zero$"):
        parse_channel_document(json.dumps(doc))


def test_form_to_document_omits_empty_metadata():
    doc = form_to_document(depolarizing(2))
    assert "metadata" not in doc


def test_stochastic_file_round_trip():
    s = np.array([[0.5, 0.25], [0.5, 0.75]])
    back = parse_stochastic_file(json.dumps({"r": 2, "entries": s.tolist()}))
    assert back.dtype == np.float64
    assert np.array_equal(back, s)


def test_stochastic_file_rejects_bad_documents():
    with pytest.raises(ValidationError, match="JSON object"):
        parse_stochastic_file("[]")
    with pytest.raises(ValidationError, match="'r' must be"):
        parse_stochastic_file('{"r": "two", "entries": []}')
    with pytest.raises(ValidationError, match="2 x 2"):
        parse_stochastic_file('{"r": 2, "entries": [[1.0, 0.0]]}')
    with pytest.raises(ValidationError, match=r"real numbers: entry \(0,0\) is not a number"):
        parse_stochastic_file('{"r": 1, "entries": [["x"]]}')
    for leaf in ("true", '"0"', "null", "[1]", "{}"):
        with pytest.raises(ValidationError, match=r"entry \(1,0\) is not a number"):
            parse_stochastic_file(f'{{"r": 2, "entries": [[1, 0.5], [{leaf}, 0.5]]}}')
    with pytest.raises(ValidationError, match=r"entry \(0,1\) is outside the float range"):
        parse_stochastic_file(f'{{"r": 2, "entries": [[1, {10 ** 400}], [0, 0.5]]}}')
    with pytest.raises(ValidationError, match="^stochastic matrix file is not valid JSON at "
                                              "offset 1: "):
        parse_stochastic_file("{")


def test_state_file_round_trip_and_validation():
    rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]], dtype=complex)
    back = parse_state_file(json.dumps({"n": 2, "rho": matrix_to_literal(rho)}))
    assert np.array_equal(back, rho)

    with pytest.raises(ValidationError, match=r"^rho has trace \(2\+0j\), expected 1$"):
        parse_state_file(json.dumps({"n": 2, "rho": matrix_to_literal(np.eye(2))}))
    with pytest.raises(ValidationError, match="positive integer"):
        parse_state_file('{"n": -1, "rho": [[[1.0, 0.0]]]}')


def test_kraus_file_parsing():
    ops = parse_kraus_file(json.dumps({
        "n": 2,
        "operators": [matrix_to_literal(E00), matrix_to_literal(E11)],
    }))
    assert len(ops) == 2
    assert np.array_equal(ops[0], E00)

    with pytest.raises(ValidationError, match="nonempty list"):
        parse_kraus_file('{"n": 2, "operators": []}')
    with pytest.raises(ValidationError, match=r"operators\[0\]"):
        parse_kraus_file(json.dumps({"n": 2, "operators": [matrix_to_literal(np.eye(3))]}))
