"""Flat-file interchange formats.

Channel document (JSON, UTF-8)::

    {
      "format_version": "1",
      "n": 2,
      "pairs": [{"F": <matrix>, "R": <matrix>}, ...],
      "metadata": {"name": "..."}          # optional map of UTF-8 strings
    }

where ``<matrix>`` is an n x n array of two-element ``[re, im]`` arrays.
Floats are emitted with ``repr`` precision, so parse(emit(form)) restores
bit-identical numbers.

Auxiliary formats: stochastic matrix files ``{"r": ..., "entries": [[...]]}``
(row-major real entries), state files ``{"n": ..., "rho": <matrix>}`` and
Kraus files ``{"n": ..., "operators": [<matrix>, ...]}``.

Every number in every format (each ``re``, ``im`` and stochastic entry) is
a JSON integer or float, never ``true``/``false`` or a string, and an
integer must lie within float range (|x| below about 1.8e308). A leaf that
breaks the rule is reported by its (row, column) entry. NaN and infinities
parse, and the matrix checks that follow reject them.
"""

from __future__ import annotations

__all__ = [
    "emit_channel_document", "form_to_document", "parse_channel_document",
    "parse_kraus_file", "parse_state_file", "parse_stochastic_file",
]

import json
from itertools import chain

import numpy as np

from .channel import HolevoForm, make_holevo_form, require_density
from .errors import ValidationError
from .linalg import DEFAULT_TOL, Tolerances

FORMAT_VERSION = "1"
_NUMBER_TYPES = {int, float}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  {json.dumps(k)}: {_render_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        # a row of [re, im] pairs stays on one line; whole-list type passes
        if set(map(type, obj)) == {list} and _numbers_only(chain.from_iterable(obj)):
            return json.dumps(obj)
        items = [f"{pad}  {_render_json(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def matrix_to_literal(arr):
    """n x m complex array -> nested lists of [re, im] pairs."""
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _numbers_only(values) -> bool:
    """Whether every value is an int or a float, not a bool, in one C-level pass."""
    return set(map(type, values)) <= _NUMBER_TYPES


def _float_array(leaves: list, where: str, width: int, per_entry: int = 1):
    """Numeric leaves -> one flat float64 array, by one ``np.array`` call.

    numpy converts an int exactly as ``float(int)`` does and raises
    OverflowError where it does; that becomes a ValidationError naming the
    entry (i, j) of a row-major literal ``width`` entries wide, each entry
    ``per_entry`` leaves long.
    """
    try:
        return np.array(leaves, dtype=np.float64)
    except OverflowError:
        for k, x in enumerate(leaves):
            try:
                float(x)
            except OverflowError:
                i, j = divmod(k // per_entry, width)
                raise ValidationError(
                    f"{where}: entry ({i},{j}) is outside the float range") from None
        raise


def _scan_literal(lit, where: str) -> None:
    """Walk a matrix literal entry by entry and raise at its first fault."""
    width = None
    for i, row in enumerate(lit):
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{where}: row {i} is not a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{where}: row {i} has {len(row)} entries, expected {width}")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2 or not all(map(_is_number, cell)):
                raise ValidationError(f"{where}: entry ({i},{j}) is not a [re, im] pair")


def literal_to_matrix(lit, where: str):
    """Nested [re, im] lists -> complex array, with located failures.

    A well-formed literal is checked in a few whole-literal passes and
    converted by one ``np.array`` call; the entry-by-entry walk runs only
    when a check fails, to name the first bad row or entry.
    """
    if not isinstance(lit, list) or not lit:
        raise ValidationError(f"{where}: expected a nonempty list of rows")
    leaves = None
    if set(map(type, lit)) == {list} and len(set(map(len, lit))) == 1 and lit[0]:
        cells = list(chain.from_iterable(lit))
        if set(map(type, cells)) == {list} and set(map(len, cells)) == {2}:
            leaves = list(chain.from_iterable(cells))
    if leaves is None or not _numbers_only(leaves):
        _scan_literal(lit, where)
        # reached past the walk only by list or number subclasses, which it accepts
        leaves = list(chain.from_iterable(chain.from_iterable(lit)))
    width = len(lit[0])
    flat = _float_array(leaves, where, width, per_entry=2)
    return flat.view(np.complex128).reshape(len(lit), width)


def _positive_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON at offset {exc.pos}: {exc.msg}") from exc


def form_to_document(form: HolevoForm, metadata=None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "n": form.n,
        "pairs": [{"F": matrix_to_literal(f), "R": matrix_to_literal(r)}
                  for f, r in zip(form.effects, form.states)],
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def emit_channel_document(form: HolevoForm, metadata=None) -> str:
    return _render_json(form_to_document(form, metadata)) + "\n"


def document_to_form(doc, tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    if not isinstance(doc, dict):
        raise ValidationError("channel document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version!r}, "
                              f"expected {FORMAT_VERSION!r}")
    n = _positive_int(doc, "n")
    pairs_field = doc.get("pairs")
    if not isinstance(pairs_field, list) or not pairs_field:
        raise ValidationError("'pairs' must be a nonempty list")
    metadata = doc.get("metadata")
    if metadata is not None and (not isinstance(metadata, dict) or
                                 not all(isinstance(k, str) and isinstance(v, str)
                                         for k, v in metadata.items())):
        raise ValidationError("'metadata' must map strings to strings")
    for key, value in (metadata or {}).items():
        for part, text in (("key", key), ("value", value)):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValidationError(
                    f"'metadata' {part} of entry {ascii(key)} is not encodable as UTF-8: "
                    f"{exc.reason} at character {exc.start}") from exc

    pairs = []
    for k, item in enumerate(pairs_field):
        if not isinstance(item, dict) or "F" not in item or "R" not in item:
            raise ValidationError(f"pairs[{k}] must be an object with 'F' and 'R'")
        f = literal_to_matrix(item["F"], f"pairs[{k}].F")
        r = literal_to_matrix(item["R"], f"pairs[{k}].R")
        for name, mat in (("F", f), ("R", r)):
            if mat.shape != (n, n):
                raise ValidationError(
                    f"pairs[{k}].{name} has shape {mat.shape}, expected ({n}, {n})")
        pairs.append((f, r))
    return make_holevo_form(n, pairs, tol)


def parse_channel_document(text: str, tol: Tolerances = DEFAULT_TOL) -> HolevoForm:
    """Parse and fully validate a channel document.

    Every problem raises ValidationError: a syntax error names the
    parser's offset, and a semantic one the offending pair or entry.
    """
    return document_to_form(_loads(text, "channel document"), tol)


def parse_stochastic_file(text: str):
    """Read ``{"r": ..., "entries": [[...], ...]}`` into a float array (unvalidated)."""
    doc = _loads(text, "stochastic matrix file")
    if not isinstance(doc, dict):
        raise ValidationError("stochastic matrix file must be a JSON object")
    r = _positive_int(doc, "r")
    entries = doc.get("entries")
    if (not isinstance(entries, list) or len(entries) != r
            or any(not isinstance(row, list) or len(row) != r for row in entries)):
        raise ValidationError(f"'entries' must be an {r} x {r} array of arrays")
    where = "'entries' must hold real numbers"
    leaves = list(chain.from_iterable(entries))
    if not _numbers_only(leaves):
        for k, x in enumerate(leaves):
            if not _is_number(x):
                i, j = divmod(k, r)
                raise ValidationError(f"{where}: entry ({i},{j}) is not a number")
    return _float_array(leaves, where, r).reshape(r, r)


def parse_state_file(text: str, tol: Tolerances = DEFAULT_TOL):
    """Read and validate ``{"n": ..., "rho": <matrix>}``; returns the density matrix."""
    doc = _loads(text, "state file")
    if not isinstance(doc, dict):
        raise ValidationError("state file must be a JSON object")
    n = _positive_int(doc, "n")
    rho = literal_to_matrix(doc.get("rho"), "rho")
    return require_density(rho, n, tol, name="rho")


def parse_kraus_file(text: str):
    """Read ``{"n": ..., "operators": [<matrix>, ...]}`` into a list of arrays."""
    doc = _loads(text, "Kraus file")
    if not isinstance(doc, dict):
        raise ValidationError("Kraus file must be a JSON object")
    n = _positive_int(doc, "n")
    ops_field = doc.get("operators")
    if not isinstance(ops_field, list) or not ops_field:
        raise ValidationError("'operators' must be a nonempty list of matrix literals")
    ops = []
    for k, lit in enumerate(ops_field):
        op = literal_to_matrix(lit, f"operators[{k}]")
        if op.shape != (n, n):
            raise ValidationError(f"operators[{k}] has shape {op.shape}, expected ({n}, {n})")
        ops.append(op)
    return ops
