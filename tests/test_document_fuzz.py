"""Fuzz of the channel-document parser through ``ebchan analyze``.

Valid documents are mutated (wrong types, missing keys, ragged rows,
three-element entries, non-finite numbers, booleans and out-of-range sizes
for ``n``, truncated text) and each one is analyzed. Every input must end in
a verdict (exit 0), an internal-consistency failure (exit 1) or a located
input error (exit 2): never an uncaught exception.
"""

import contextlib
import copy
import io
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ebchan.channel import depolarizing, make_holevo_form
from ebchan.cli import main
from ebchan.sampling import random_channel
from ebchan.serialization import form_to_document

PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)

BASE_DOCUMENTS = [
    form_to_document(make_holevo_form(2, [(PLUS, E00), (MINUS, E11)]), {"name": "flip"}),
    form_to_document(depolarizing(2)),
    form_to_document(random_channel(np.random.default_rng(70), 3, 2)),
]

NUMBERS = st.one_of(
    st.sampled_from([0, -1, 2, 3, 10 ** 12, -(2 ** 70), 1e308, -1e308, 5e-324]),
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
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
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


def analyze(tmp_dir, text):
    path = tmp_dir / "doc.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["analyze", str(path)])
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
def test_mutated_documents_never_raise(tmp_path_factory, text):
    rc, err = analyze(tmp_path_factory.getbasetemp(), text)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
