"""The benchmark end to end: one pass of each workload on seed 1, every
output checked by the benchmark's own oracles (brute-force vertex sets,
HiGHS, sympy)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """bench/*.py copied beside a link to src/, so that a run writes
    nothing under the repository's bench/."""
    top = tmp_path_factory.mktemp("checkout")
    (top / "bench").mkdir()
    for name in os.listdir(os.path.join(ROOT, "bench")):
        if name.endswith(".py"):
            shutil.copy(os.path.join(ROOT, "bench", name), top / "bench" / name)
    os.symlink(os.path.join(ROOT, "src"), top / "src")
    return top


@pytest.mark.parametrize(
    "workload, out_terms", [("coords", 895), ("bounds", 1176), ("certify", 111)]
)
def test_one_pass(checkout, workload, out_terms):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["metrics"]["out_terms"]["value"] == out_terms
