import math
from types import SimpleNamespace

import numpy as np
import pytest


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Recorder for one-line acceptance verdicts, echoed after the run."""
    def record(line: str) -> None:
        request.config._acceptance_lines.append(line)
    return record


@pytest.fixture
def eigvalsh_solves(monkeypatch):
    """Counter of np.linalg.eigvalsh use for the rest of the test.

    ``calls`` counts the calls, ``matrices`` the matrices solved: the
    product of each argument's leading dimensions, 1 for a single matrix.
    ``largest`` is the most matrices that one call solved. Set all three to
    0 to start a new count.
    """
    counter = SimpleNamespace(calls=0, matrices=0, largest=0)
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved = math.prod(np.shape(a)[:-2])
        counter.calls += 1
        counter.matrices += solved
        counter.largest = max(counter.largest, solved)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return counter


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
