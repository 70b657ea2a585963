"""The README's library sketch runs and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_sketch_prints_its_commented_outputs():
    with open(README) as fh:
        block = re.search(r"## Library sketch\n\n```python\n(.*?)```", fh.read(), re.S).group(1)
    want = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    assert len(want) == 3
    assert out.getvalue().splitlines() == want
