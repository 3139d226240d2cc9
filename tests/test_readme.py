"""README's fenced Python blocks run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def run_block(block: str) -> str:
    """What ``block`` prints, run in a fresh namespace."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    return out.getvalue()


def test_python_blocks_run_and_the_training_example_prints_its_product():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    printed = {block: run_block(block) for block in blocks}
    training = [block for block in blocks if "fit(" in block]
    assert len(training) == 1
    assert printed[training[0]] == "CCCl\n"
