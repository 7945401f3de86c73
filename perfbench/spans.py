"""Spans around calls into ebchan's public functions, and their arithmetic.

Nothing inside the library is instrumented: ``Recorder.install`` replaces
each traced function, in every ebchan module that holds a reference to it,
with a wrapper that records a span. A span is the list
``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (None at the top) and ``op`` the id of the op it belongs to.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (defining module, function) -> span name. Functions a version of the
# library lacks are skipped, and their layer then reads 0.
TRACED = {
    ("serialization", "parse_channel_document"): "serialization.parse",
    ("serialization", "emit_channel_document"): "serialization.emit",
    ("cli", "analyze_form"): "cli.analyze_form",
    ("cli", "render_text"): "cli.render",
    ("cli", "render_machine"): "cli.render",
    ("channel", "stochastic_rep"): "channel.stochastic_rep",
    ("channel", "fixed_point"): "channel.fixed_point",
    ("channel", "compare_nonzero_spectrum"): "channel.compare_nonzero_spectrum",
    ("channel", "natural_rep"): "channel.natural_rep",
    ("channel", "choi"): "channel.choi",
    ("channel", "iterated_form"): "channel.iterated_form",
    ("linalg", "eig_general"): "linalg.eig_general",
    ("stochastic", "primitivity_index"): "stochastic.primitivity_index",
    ("primitivity", "channel_primitivity_index"): "primitivity.channel_primitivity_index",
    ("primitivity", "strictly_positive_at"): "primitivity.strictly_positive_at",
    ("primitivity", "sweep_positive_iterate"): "primitivity.sweep_positive_iterate",
    ("primitivity", "holevo_rank_bounds"): "primitivity.holevo_rank_bounds",
    ("checks", "run_channel_checks"): "checks.run_channel_checks",
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = None

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                  self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _find_patches(self, package):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        patches = []
        for (module, func), name in TRACED.items():
            original = getattr(sys.modules.get(f"{package}.{module}"), func, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            patches += [(mod, attr, original, wrapper, name)
                        for mod in modules for attr, value in list(vars(mod).items())
                        if value is original]
        return patches

    def install(self, package="ebchan"):
        """Route every module's reference to a traced function through a span."""
        if self._patches is None:
            self._patches = self._find_patches(package)
        for mod, attr, _, wrapper, _ in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _, _ in self._patches or ():
            setattr(mod, attr, original)

    def traced_names(self):
        return sorted({name for *_, name in self._patches or ()})


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] is not None:
            children[span[3]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        inner = [(max(start, k[1]), min(end, k[2])) for k in kids if k[2] > start and k[1] < end]
        out.append((end - start) - covered(inner))
    return out


def self_time_table(spans) -> dict:
    """name -> {calls, total_s, self_s} summed over all spans of that name."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return table


def busy_per_op(spans, name, ops) -> float:
    """Median over ``ops`` of the time some span called ``name`` was open in that op."""
    by_op = {op: [] for op in ops}
    for span in spans:
        if span[0] == name and span[4] in by_op:
            by_op[span[4]].append((span[1], span[2]))
    return statistics.median(covered(v) for v in by_op.values()) if by_op else 0.0
