"""The README's library sketch runs and prints what its comments say, and its command lines parse."""

import contextlib
import io
import os
import re
import shlex

from persuade.cli import build_parser

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


def test_command_lines_parse():
    """Every `persuade ...` line of the README's bash blocks parses, so the README cannot
    document a flag the command line does not take."""
    with open(README) as fh:
        blocks = re.findall(r"```bash\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("persuade ")]
    assert len(lines) == 10
    for line in lines:
        assert build_parser().parse_args(shlex.split(line)[1:]).func is not None, line
