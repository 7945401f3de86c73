"""README's library example runs and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text()
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_gives_its_stated_values():
    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert np.allclose(namespace["S"], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    report = namespace["report"]
    assert (report.p_index, report.q_index) == (1, 2)
    rho = namespace["fixed_point"](namespace["form"]).rho
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
