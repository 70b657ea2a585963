"""The README's library sketch runs and prints what its comments say, its command lines parse,
and its learn config passes the checks `learn` runs on a config."""

import contextlib
import io
import os
import re
import shlex

import pytest

import persuade.cli
from persuade.cli import build_parser, main
from persuade.io import write_game
from persuade.reference import didactic_game

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


def test_learn_config_block_passes_the_config_checks(tmp_path, monkeypatch):
    """The documented learn config passes every check `learn` runs on a config, each listed
    architecture's constructor included: the run stops at the dataset sampling that follows
    the checks, so nothing is trained."""
    with open(README) as fh:
        block = re.search(r"A learn config pins everything the pipeline needs:\n\n```json\n(.*?)```", fh.read(), re.S)
    cfg_path, game_path = tmp_path / "config.json", tmp_path / "didactic.json"
    cfg_path.write_text(block.group(1))
    write_game(game_path, didactic_game())

    class Checked(Exception):
        pass

    def stop(*args):
        raise Checked

    monkeypatch.setattr(persuade.cli, "load_or_sample_dataset", stop)
    with pytest.raises(Checked):
        main(["learn", "--game", str(game_path), "--config", str(cfg_path), "--out", str(tmp_path / "run")])
