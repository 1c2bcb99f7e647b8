"""The README's examples run as written and print what it says they print."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_prints_its_stated_error():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, f"{README}:Library use", "exec"), {})
    # the README's comment reads ~2.3e-2
    assert float(printed.getvalue()) == pytest.approx(2.305e-2, rel=0.01)
