from types import SimpleNamespace

import numpy as np
import pytest

from ebchan import primitivity


def least_positive_m(form):
    """Definition-level oracle: the least m <= r^2 - 2r + 3 whose iterate is positive, or None.

    One linear scan of ``strictly_positive_at``, which shares no table with
    ``channel_primitivity_index``.
    """
    for m in range(1, form.r * form.r - 2 * form.r + 4):
        if primitivity.strictly_positive_at(form, m).holds:
            return m
    return None


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Recorder for one-line acceptance verdicts, echoed after the run."""
    def record(line: str) -> None:
        request.config._acceptance_lines.append(line)
    return record


@pytest.fixture
def kernel_batches(monkeypatch):
    """Counter of the subset kernel test's batches for the rest of the test.

    ``calls`` counts the batches whose extremes ``primitivity._extremes``
    took, ``sums`` the subset sums in them (one per row of a batch), and
    ``largest`` the most sums in one batch. ``eigvalsh`` counts the calls
    to np.linalg.eigvalsh: one per batch of matrices, none for a batch of
    diagonals. ``reset()`` sets all four to 0 to start a new count.
    """
    counter = SimpleNamespace()
    counter.reset = lambda: vars(counter).update(calls=0, sums=0, largest=0, eigvalsh=0)
    counter.reset()
    extremes, eigvalsh = primitivity._extremes, np.linalg.eigvalsh

    def counting_extremes(sums):
        counter.calls += 1
        counter.sums += len(sums)
        counter.largest = max(counter.largest, len(sums))
        return extremes(sums)

    def counting_eigvalsh(a, *args, **kwargs):
        counter.eigvalsh += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(primitivity, "_extremes", counting_extremes)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return counter


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
