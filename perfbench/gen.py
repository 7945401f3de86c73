"""Seeded input documents for the ebchan benchmark.

Everything here is plain numpy, independent of ``ebchan.sampling``, so a
change to the library's own generators cannot change a workload. Each
workload builder takes two ``numpy.random.Generator`` objects, ``shape``
for structure and ``rng`` for values (see ``generate``), and returns
``(docs, ops)``:

* ``docs`` maps a file name to ``(text, family)``; ``family`` tells the
  oracle which closed-form facts hold for the document ('pd-effects',
  'qc', 'wielandt', 'flip', or 'aux' for non-channel files);
* ``ops`` is the list of operations the workload runs, in order. A run
  cycles through the list until its time is up.
"""

from __future__ import annotations

import json

import numpy as np

import oracle

# keeps the effect-normalizing sum invertible for any draw
_EPS_IDENTITY = 1e-6
# seeds the stream that fixes each workload's sizes and zero patterns
SHAPE_SEED = 20210903


def matrix_literal(m):
    """n x n complex array -> nested [re, im] lists, floats kept at full precision."""
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(m, dtype=np.complex128)]


def channel_doc(effects, states) -> str:
    doc = {"format_version": "1", "n": int(np.asarray(effects[0]).shape[0]),
           "pairs": [{"F": matrix_literal(f), "R": matrix_literal(r)}
                     for f, r in zip(effects, states)]}
    return json.dumps(doc) + "\n"


def _hermitize(h):
    return (h + h.conj().T) / 2.0


def _inv_sqrt(h):
    w, v = np.linalg.eigh(_hermitize(h))
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def density(rng, n, rank):
    g = _gaussian(rng, n, rank)
    rho = _hermitize(g @ g.conj().T)
    return rho / np.trace(rho).real


def gaussian_pairs(rng, n, r, ranks=None):
    """Effects from congruence-normalized Gaussian PSD seeds, states of the given ranks.

    Every effect is positive definite, so S > 0 entrywise (p = 1) and the
    channel index is 1 exactly when the states sum to a definite matrix.
    """
    ranks = [n] * r if ranks is None else ranks
    states = [density(rng, n, k) for k in ranks]
    seeds = []
    for _ in range(r):
        g = _gaussian(rng, n, n)
        seeds.append(g @ g.conj().T + (_EPS_IDENTITY / r) * np.eye(n))
    w = _inv_sqrt(sum(seeds))
    effects = [_hermitize(w @ a @ w) for a in seeds]
    polish = _inv_sqrt(sum(effects))
    effects = [_hermitize(polish @ f @ polish) for f in effects]
    return effects, states


def sparse_pattern(shape, r, zero_fraction):
    """Random 0/1 r x r pattern with no zero row or column."""
    keep = shape.random((r, r)) >= zero_fraction
    for j in range(r):
        if not keep[:, j].any():
            keep[shape.integers(r), j] = True
    for i in range(r):
        if not keep[i].any():
            keep[i, shape.integers(r)] = True
    return keep


def stochastic_on(rng, keep):
    """Column-stochastic matrix with Gamma(1) weights on the pattern ``keep``."""
    weights = rng.gamma(shape=1.0, scale=1.0, size=keep.shape) * keep
    return weights / weights.sum(axis=0)


def wielandt_stochastic(rng, r):
    """Cycle k -> k+1 plus the chord r-1 -> 1, with a random split on the last column.

    The pattern's primitivity index attains the classical bound r^2 - 2r + 2.
    """
    s = np.zeros((r, r))
    for k in range(r - 1):
        s[k + 1, k] = 1.0
    w = float(rng.uniform(0.25, 0.75))
    s[0, r - 1] = w
    s[1, r - 1] = 1.0 - w
    return s


def qc_pairs(s):
    """Quantum-classical pairs (diag(row k of S), |k><k|); their induced matrix is S."""
    r = s.shape[0]
    effects = [np.diag(s[k].astype(np.complex128)) for k in range(r)]
    states = [np.diag(np.eye(r)[k].astype(np.complex128)) for k in range(r)]
    return effects, states


def flip_pairs():
    """The 2 x 2 worked example: x-basis measurement steering to z-basis states (p=1, q=2)."""
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=np.complex128)
    return [plus, minus], [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def depolarizing_pairs(n):
    eye = np.eye(n, dtype=np.complex128)
    return [eye], [eye / n]


def diag_pairs(n):
    units = [np.diag(np.eye(n)[k]).astype(np.complex128) for k in range(n)]
    return units, units


def analyze_op(name, fmt="machine"):
    return {"kind": "cli", "argv": ["analyze", name, "--format", fmt], "doc": name,
            "check": "analyze-" + fmt}


def checks_op(name):
    return {"kind": "checks", "doc": name, "check": "checks"}


def _doc(docs, name, pairs, family):
    docs[name] = (channel_doc(*pairs), family)
    return name


def verify_mix_pairs(shape, rng, n, r):
    """One draw of the ``verify --random`` family: n in {2,3}, r in 1..5."""
    if r == n and shape.random() < 0.5:
        keep = sparse_pattern(shape, n, float(shape.uniform(0.2, 0.7)))
        return qc_pairs(stochastic_on(rng, keep)), "qc"
    ranks = [int(shape.integers(1, n + 1)) for _ in range(r)]
    return gaussian_pairs(rng, n, r, ranks), "pd-effects"


def cli_small(shape, rng):
    docs = {}
    n, r = int(shape.integers(2, 5)), int(shape.integers(1, 6))
    ranks = [int(shape.integers(1, n + 1)) for _ in range(r)]
    analyzed = [
        _doc(docs, "depolarizing-2.json", depolarizing_pairs(2), "pd-effects"),
        _doc(docs, "diag-3.json", diag_pairs(3), "qc"),
        _doc(docs, "flip.json", flip_pairs(), "flip"),
        _doc(docs, f"gaussian-{n}x{r}.json", gaussian_pairs(rng, n, r, ranks), "pd-effects"),
        _doc(docs, "qc-4.json", qc_pairs(stochastic_on(rng, sparse_pattern(shape, 4, 0.4))),
             "qc"),
        _doc(docs, "wielandt-5.json", qc_pairs(wielandt_stochastic(rng, 5)), "wielandt"),
    ]
    ops = [analyze_op(name, ("text", "machine")[k % 2]) for k, name in enumerate(analyzed)]

    s = stochastic_on(rng, sparse_pattern(shape, 4, 0.3))
    docs["stochastic-4.json"] = (json.dumps({"r": 4, "entries": s.tolist()}) + "\n", "aux")
    n = 3
    basis, _ = np.linalg.qr(_gaussian(rng, n, n))
    kraus = []
    for k in range(n):
        a = _gaussian(rng, n, 1)[:, 0]
        kraus.append(np.outer(a / np.linalg.norm(a), basis[:, k].conj()))
    docs["kraus-3.json"] = (json.dumps({"n": n, "operators": [matrix_literal(v) for v in kraus]})
                            + "\n", "aux")
    dim = int(shape.integers(2, 5))
    verify_seed = int(shape.integers(1 << 16))
    ops += [
        {"kind": "cli", "argv": ["build", "depolarizing", "--n", str(dim)], "check": "build",
         "expect": {"n": dim, "r": 1}},
        {"kind": "cli", "argv": ["build", "diag", "--n", str(dim)], "check": "build",
         "expect": {"n": dim, "r": dim}},
        {"kind": "cli", "argv": ["build", "qc", "--stochastic", "stochastic-4.json"],
         "check": "build", "expect": {"n": 4, "r": 4}},
        {"kind": "cli", "argv": ["build", "from-kraus", "--kraus", "kraus-3.json"],
         "check": "build", "expect": {"n": n, "r": n}},
        {"kind": "cli", "argv": ["verify", "--random", "20", "--seed", str(verify_seed)],
         "check": "verify", "expect": {"channels": 20}},
    ]
    return docs, ops


def dense_analyze(shape, rng):
    docs = {}
    names = [_doc(docs, f"gaussian-32x8-{k}.json", gaussian_pairs(rng, 32, 8), "pd-effects")
             for k in range(2)]
    return docs, [analyze_op(name) for name in names]


def subset_q(shape, rng):
    """Primitive sparse qc forms only: the q search is what this workload is for."""
    docs = {}
    while len(docs) < 6:
        keep = sparse_pattern(shape, 12, 0.6)
        if oracle.pattern_index(keep) is not None:
            _doc(docs, f"qc-12-{len(docs)}.json", qc_pairs(stochastic_on(rng, keep)), "qc")
    return docs, [analyze_op(name) for name in docs]


def verify_sweep(shape, rng):
    """60 draws of the verify mix, six per (n, r), and Wielandt forms r = 6, 7, 8.

    A Wielandt form follows every 20 draws, so a run cut at any point has
    about the same mix.
    """
    docs = {}
    mix = [(n, r) for n in (2, 3) for r in range(1, 6)] * 6
    mix = [mix[i] for i in shape.permutation(len(mix))]
    ops = []
    for i, (n, r) in enumerate(mix):
        pairs, family = verify_mix_pairs(shape, rng, n, r)
        ops.append(checks_op(_doc(docs, f"mix-{i}-n{n}-r{r}.json", pairs, family)))
        if i % 20 == 19:
            r = 6 + i // 20
            name = _doc(docs, f"wielandt-{r}.json", qc_pairs(wielandt_stochastic(rng, r)),
                        "wielandt")
            ops.append(checks_op(name))
    return docs, ops


WORKLOADS = {
    "cli-small": cli_small,
    "dense-analyze": dense_analyze,
    "subset-q": subset_q,
    "verify-sweep": verify_sweep,
}


def generate(workload: str, seed: int):
    """Documents and ops of one workload; the same (workload, seed) gives the same bytes.

    The seed draws the entries of every matrix. Sizes, ranks, families and
    zero patterns come from a stream fixed per workload, so the work an
    input asks for is the same under every seed and run-to-run spread
    reflects the program, not the draw.
    """
    stream = list(WORKLOADS).index(workload)
    shape = np.random.default_rng([SHAPE_SEED, stream])
    rng = np.random.default_rng([seed, stream])
    return WORKLOADS[workload](shape, rng)
