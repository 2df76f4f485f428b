"""The scripts under scripts/ run from a checkout without PYTHONPATH."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Every file scripts/run_reference_scenarios.py writes, relative to its output directory.
REFERENCE_OUTPUTS = [
    "reference_portfolio.json",
    "dist/pmf.csv", "dist/report.json",
    "cond_A/conditional_A.csv", "cond_A/scenario_A.json",
    "cond_A_writeoff/conditional_A_writeoff.csv", "cond_A_writeoff/scenario_A_writeoff.json",
    "cond_A_C/conditional_A_C.csv", "cond_A_C/scenario_A_C.json",
    "mc/mc_losses.csv", "mc/mc_result.json",
    "compare_A/compare_A.csv", "compare_A/compare_A.json",
]


@pytest.fixture
def clean_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def test_reference_scenarios_script_writes_every_output(tmp_path, clean_env):
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reference_scenarios.py"), str(out)],
        cwd=tmp_path, env=clean_env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in REFERENCE_OUTPUTS:
        path = out / name
        assert path.is_file() and path.stat().st_size > 0, name
        if name.endswith(".json"):
            json.loads(path.read_text())
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) \
        == sorted(REFERENCE_OUTPUTS)
