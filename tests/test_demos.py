"""Every demo script and the README's library tour run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty glob would skip every case below


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ, MPLBACKEND="Agg")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the suite's own rule (pyproject.toml): a RuntimeWarning is a failure
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_library_tour_runs():
    # the tour's asserts are the README's claims; the tour is its one python block
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_lines_parse():
    # a README that still passes a removed flag fails here, not in a user's shell
    from csemri.cli import build_parser

    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S).group(1)
    lines = [line.split("#")[0].split() for line in block.replace("\\\n", " ").splitlines()]
    lines = [words for words in lines if words]
    commands = [words[1:] for words in lines if words[0] == "csemri"]
    assert len(commands) == len(lines)  # every line of the block is a csemri command
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).fn is not None
