"""The README's examples run, and print what the README says they print."""

import json
import re
import shlex
from pathlib import Path

import pytest

import mlmckit
from mlmckit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
PLAIN_BLOCKS = re.findall(r"^```\n(.*?)^```$", README, re.M | re.S)


@pytest.mark.parametrize(
    "block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))]
)
def test_python_blocks_run(block, capsys):
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    if 'plan_for_strategy("S1", params)' in block:
        # The block's last comment is the output it promises.
        promised = block.rstrip().splitlines()[-1].removeprefix("# ")
        assert promised == "22.40625 finest-solve equivalents vs 59.0"
        assert out == promised + "\n"


def test_every_python_block_is_checked():
    # Planning, pilot and the plug-in skeleton.
    assert len(PYTHON_BLOCKS) == 3
    assert sum('plan_for_strategy("S1", params)' in b for b in PYTHON_BLOCKS) == 1


def test_plan_table_matches_the_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the command writes plans.json
    i = next(i for i, b in enumerate(PLAIN_BLOCKS) if b.startswith("mlmckit plan "))
    argv = shlex.split(PLAIN_BLOCKS[i])[1:]
    assert main(argv) == 0
    assert capsys.readouterr().out == PLAIN_BLOCKS[i + 1]
    assert (tmp_path / "plans.json").exists()


def test_report_table_matches_the_cli(tmp_path, capsys, monkeypatch):
    # Reports that hold the numbers of the README's rows print its table:
    # the header, the rule and every row.
    monkeypatch.chdir(tmp_path)
    command, *table = next(
        b for b in PLAIN_BLOCKS if b.startswith("$ mlmckit report ")
    ).splitlines()
    keys = ("estimate", "estimated_std_error", "a_priori_error_bound", "realized_load")
    for row in table[2:]:
        path, strategy, *values = row.split()
        report = dict(zip(keys, (None if v == "-" else float(v) for v in values)))
        (tmp_path / path).write_text(json.dumps({**report, "plan": {"strategy": strategy}}))
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out.splitlines() == table


def test_every_public_name_resolves():
    for name in mlmckit.__all__:
        assert hasattr(mlmckit, name), name
    assert [n for n in mlmckit.__all__ if n.startswith("plan")] == ["plan_for_strategy"]
