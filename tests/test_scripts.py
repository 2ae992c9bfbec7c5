"""The experiment scripts run end to end on the smallest budget and print
their tables."""

import re

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize("script, table", [
    ("ablation_table.py", [rf"{mode} +\d\.\d{{3}} +\d\.\d{{3}}"
                           for mode in ("uniform", "spl", "hard_acl", "soft_acl")]),
    ("run_sbm_experiment.py", [r"mean raw +\d\.\d{3}", r"mean soft_acl +\d\.\d{3}",
                               r"mean gain +[+-]\d\.\d{3}"]),
], ids=["ablation_table", "run_sbm_experiment"])
def test_script_prints_its_table(script, table):
    done = run_python(str(ROOT / "scripts" / script), "--seeds", "1", "--epochs", "1")
    assert done.returncode == 0 and done.stderr == "", done.stderr
    tail = done.stdout.splitlines()[-len(table):]
    assert len(tail) == len(table), done.stdout
    assert all(re.fullmatch(pattern, line) for pattern, line in zip(table, tail)), done.stdout
