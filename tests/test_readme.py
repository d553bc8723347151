"""The README's Python examples run and give the values their comments state."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def run_block(code):
    """(namespace, printed lines) of one block run on its own."""
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), namespace)
    return namespace, printed.getvalue().splitlines()


def test_readme_holds_the_two_examples():
    assert len(BLOCKS) == 2


def test_library_example_reaches_the_soft_threshold_solution():
    namespace, _ = run_block(BLOCKS[0])
    assert "# soft-threshold solution [1.5, 1.5, 0.0]" in BLOCKS[0]
    assert np.allclose(namespace["report"].x, [1.5, 1.5, 0.0], rtol=0.0, atol=1e-9)


def test_finite_sum_example_prints_its_stated_values():
    _, printed = run_block(BLOCKS[1])
    assert printed == ["converged 0.411302", "['0.411537', '0.411531', '0.411513']"]
    for line in printed:
        assert f"# {line}" in BLOCKS[1]
