"""README's "Library example" runs, and every value its comments name is the value
its line computes.

A commented line ``expr  # v = f`` holds when ``expr`` evaluates to v and every
further ``= f`` part, read at the example's n = 2 and rank 2, to the same value;
``diag(...)`` and ``sqrt(...)`` in a comment mean what they mean in numpy.
"""

import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
COMMENT_NAMES = {"diag": lambda *d: np.diag(d), "sqrt": math.sqrt, "n": 2, "rank": 2}


def example_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no Library example block"
    return block.group(1).splitlines()


def comment_values(comment: str) -> list:
    """Each ``=``-separated part of a comment, evaluated, ``^`` read as a power."""
    return [eval(part.replace("^", "**"), {"__builtins__": {}}, dict(COMMENT_NAMES))
            for part in comment.split("=")]


def test_the_library_example_computes_the_values_its_comments_name():
    namespace = {}
    checked = []
    for line in example_lines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        got = eval(code.strip(), namespace)
        for want in comment_values(comment):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15, err_msg=line)
        checked.append(comment.strip())
    assert len(checked) == 6, checked
