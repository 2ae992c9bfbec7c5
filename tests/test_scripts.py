"""The experiment script runs end to end on the smallest budget and prints
its table."""

import re

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize("script, table", [
    ("ablation_table.py", [rf"{row} +\d\.\d{{3}} +\d\.\d{{3}}"
                           for row in ("raw", "uniform", "spl", "hard_acl", "soft_acl")]),
], ids=["ablation_table"])
def test_script_prints_its_table(script, table):
    done = run_python(str(ROOT / "scripts" / script), "--seeds", "1", "--epochs", "1")
    assert done.returncode == 0 and done.stderr == "", done.stderr
    tail = done.stdout.splitlines()[-len(table):]
    assert len(tail) == len(table), done.stdout
    assert all(re.fullmatch(pattern, line) for pattern, line in zip(table, tail)), done.stdout
