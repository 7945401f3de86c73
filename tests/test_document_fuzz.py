"""Fuzz of the document parsers through the command line.

Valid documents are mutated (wrong types, missing keys, ragged rows,
three-element entries, non-finite numbers, integers beyond the float range,
booleans and out-of-range sizes for ``n``, truncated text) and each one is
run: channel documents through ``ebchan analyze``, stochastic matrix files
through ``build qc``, Kraus files through ``build from-kraus`` and state
files through ``iterate --state``. Every input must end in a result (exit 0),
an internal-consistency failure (exit 1) or a located input error (exit 2):
never an uncaught exception.

The same documents feed an oracle test: the matrix-literal parser must
agree with the entry-by-entry reference it replaced, bit for bit or in the
exception it raises.
"""

import contextlib
import copy
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ebchan import serialization
from ebchan.channel import depolarizing, make_holevo_form
from ebchan.cli import main
from ebchan.errors import ValidationError
from ebchan.sampling import random_channel
from ebchan.serialization import (document_to_form, emit_channel_document,
                                  form_to_document, literal_to_matrix,
                                  matrix_to_literal)

PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)

BASE_DOCUMENTS = [
    form_to_document(make_holevo_form(2, [(PLUS, E00), (MINUS, E11)]), {"name": "flip"}),
    form_to_document(depolarizing(2)),
    form_to_document(random_channel(np.random.default_rng(70), 3, 2)),
]
STOCHASTIC_FILES = [
    {"r": 2, "entries": [[0.5, 1.0], [0.5, 0.0]]},
    {"r": 3, "entries": [[0, 0.25, 1], [1, 0.25, 0], [0, 0.5, 0]]},
]
KRAUS_FILES = [
    {"n": 2, "operators": [matrix_to_literal(E00), matrix_to_literal([[0, 1], [0, 0]])]},
    {"n": 2, "operators": [matrix_to_literal(E00), matrix_to_literal(E11)]},
]
STATE_FILES = [
    {"n": 2, "rho": matrix_to_literal(MINUS)},
    {"n": 2, "rho": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
]
FLIP_TEXT = emit_channel_document(make_holevo_form(2, [(PLUS, E00), (MINUS, E11)]))

NUMBERS = st.one_of(
    st.sampled_from([0, -1, 2, 3, 10 ** 12, -(2 ** 70), 10 ** 400, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
JUNK = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=3),
    st.builds(list), st.builds(dict), st.lists(NUMBERS, max_size=3),
    st.builds(lambda: [[[0.0, 0.0]]]),
)  # containers are built fresh, so a later mutation cannot reach a shared one


def paths(node, prefix=()):
    """Every location in a JSON value, as the key sequence leading to it."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from paths(child, prefix + (key,))


def locate(doc, path):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    return parent, path[-1]


@st.composite
def mutated_documents(draw, bases=BASE_DOCUMENTS):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))[1:]))
        parent, key = locate(doc, path)
        action = draw(st.sampled_from(["replace", "delete", "append", "drop"]))
        target = parent[key]
        if action == "replace":
            parent[key] = draw(JUNK)
        elif action == "delete":
            del parent[key]
        elif isinstance(target, list) and target:
            if action == "append":  # e.g. a three-element entry, an extra row or pair
                target.append(draw(st.one_of(JUNK, st.just(copy.deepcopy(target[-1])))))
            else:  # e.g. a ragged row
                target.pop()
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def run(tmp_dir, text, command):
    """Write ``text`` to a file and run ``command`` with ``{}`` standing for its path."""
    path = tmp_dir / "doc.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(path) if word == "{}" else word for word in command])
    return rc, err.getvalue()


def with_field(key, value, pair=None, matrix=None):
    doc = copy.deepcopy(BASE_DOCUMENTS[0])
    target = doc if pair is None else doc["pairs"][pair]
    if matrix is not None:
        target = target[matrix]
    if value is KeyError:
        del target[key]
    else:
        target[key] = value
    return json.dumps(doc)


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_documents())
@example(text=with_field("n", True))
@example(text=with_field("n", -3))
@example(text=with_field("n", 10 ** 12))
@example(text=with_field("n", 2.0))
@example(text=with_field("pairs", KeyError))
@example(text=with_field("R", KeyError, pair=1))
@example(text=with_field(0, [[0.5, 0.0, 0.0], [0.5, 0.0]], pair=0, matrix="F"))
@example(text=with_field(1, [[0.5, 0.0]], pair=0, matrix="F"))
@example(text=with_field(0, [[float("nan"), 0.0], [0.0, 0.0]], pair=1, matrix="R"))
@example(text=with_field(0, [[1e308, 0.0], [1e308, 0.0]], pair=0, matrix="F"))
@example(text=with_field("metadata", {"name": 3}))
@example(text=with_field(0, [[10 ** 400, 0.0], [0.5, 0.0]], pair=0, matrix="F"))
def test_mutated_documents_never_raise(tmp_path_factory, text):
    rc, err = run(tmp_path_factory.getbasetemp(), text, ["analyze", "{}"])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("bases, command", [
    (STOCHASTIC_FILES, ["build", "qc", "--stochastic", "{}"]),
    (KRAUS_FILES, ["build", "from-kraus", "--kraus", "{}"]),
    (STATE_FILES, ["iterate", "channel.json", "--state", "{}", "--steps", "1"]),
], ids=["build-qc", "build-from-kraus", "iterate-state"])
def test_mutated_auxiliary_files_never_raise(tmp_path_factory, bases, command):
    tmp_dir = tmp_path_factory.mktemp("aux")
    channel = tmp_dir / "channel.json"
    channel.write_text(FLIP_TEXT)
    command = [str(channel) if word == "channel.json" else word for word in command]

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=mutated_documents(bases))
    def check(text):
        rc, err = run(tmp_dir, text, command)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err

    check()


def reference_literal_to_matrix(lit, where: str):
    """The entry-by-entry matrix-literal parser, kept as the oracle."""
    if not isinstance(lit, list) or not lit:
        raise ValidationError(f"{where}: expected a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(lit):
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{where}: row {i} is not a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{where}: row {i} has {len(row)} entries, expected {width}")
        entries = []
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in cell)):
                raise ValidationError(f"{where}: entry ({i},{j}) is not a [re, im] pair")
            entries.append(complex(cell[0], cell[1]))
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its arrays' bytes, or its exception's class and text."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome compared
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    return value.effects.tobytes(), value.states.tobytes()


def assert_same_outcome(new, old):
    """``new`` equals ``old``, except that an OverflowError became a located error.

    The reference raised OverflowError at the first too-large integer, before
    it had checked the rest of the literal; the parser may name a fault there.
    """
    if old[0] is OverflowError:
        assert new[0] is ValidationError
    else:
        assert new == old


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_documents(BASE_DOCUMENTS + KRAUS_FILES + STATE_FILES))
@example(text=with_field(0, [[10 ** 400, 0.0], [0.5, 0.0]], pair=0, matrix="F"))
@example(text=with_field(1, [[0.0, -10 ** 400], [0.5, True]], pair=1, matrix="R"))
@example(text=with_field(1, [[0.0, 10 ** 400], [0.5]], pair=1, matrix="R"))
@example(text=with_field(0, [[0.5, 0.0], [True, 0.0]], pair=0, matrix="F"))
@example(text=with_field(1, "oops", pair=0, matrix="F"))
def test_literal_parser_matches_the_reference(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return
    for path in paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, list):
            assert_same_outcome(outcome(literal_to_matrix, node, "m"),
                                outcome(reference_literal_to_matrix, node, "m"))
    new = outcome(document_to_form, doc)
    with mock.patch.object(serialization, "literal_to_matrix", reference_literal_to_matrix):
        old = outcome(document_to_form, doc)
    assert_same_outcome(new, old)


@pytest.mark.parametrize("value", [0, 1, -7, 2 ** 53 + 1, 10 ** 12, 2 ** 70, -(2 ** 70),
                                   10 ** 308, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                                   0.1, float("inf"), float("nan")])
def test_valid_literals_convert_bitwise_as_the_reference(value):
    literals = [
        [[[value, 0]]],
        [[[0, value]]],
        [[[value, -0.0], [1, value]], [[-value, 2], [value, value]]],
        [[[value, 3.5], [0, 0], [-1, value]]],
    ]
    for lit in literals:
        new = literal_to_matrix(lit, "m")
        old = reference_literal_to_matrix(lit, "m")
        assert new.shape == old.shape and new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()
