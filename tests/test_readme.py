"""The README's library sketch runs and prints what its comments say, its command lines parse,
and its learn config passes the checks `learn` runs on a config."""

import contextlib
import io
import json
import os
import re
import shlex

import numpy as np

from persuade.cli import ARCH_FIELDS, LEARN_FIELDS, _integer, _learn_section, _real, _widths, build_parser
from persuade.equilibria import check_local_eps
from persuade.learning import EgConfig, TrainConfig, init_surrogate
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


def test_learn_config_block_passes_the_config_checks():
    """The documented learn config holds only config fields, each of a value `cmd_learn`
    accepts, and builds every architecture it lists; nothing is trained."""
    with open(README) as fh:
        block = re.search(r"A learn config pins everything the pipeline needs:\n\n```json\n(.*?)```", fh.read(), re.S)
    cfg = json.loads(block.group(1))
    assert set(cfg) <= set(LEARN_FIELDS)
    _learn_section(cfg, "train", TrainConfig, None)
    _learn_section(cfg, "eg", EgConfig, None)
    _integer(cfg["sample_count"], "sample_count", 1)
    check_local_eps(_real(cfg["eps"], "eps"))
    arch_kwargs = {k: _integer(v, k, 1) if k == "lower_layers" else _widths(v, k)
                   for k, v in cfg.items() if k in ARCH_FIELDS}
    assert set(cfg) - {"train", "eg", "sample_count", "eps", "architectures", *arch_kwargs} == set()
    for arch in cfg["architectures"]:
        init_surrogate(didactic_game(), arch, np.random.default_rng(0), **arch_kwargs)
