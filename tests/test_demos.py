"""Smoke tests: the demos run end to end against the library in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_pipeline_tour_sharded_merge_matches():
    proc = run_demo("pipeline_tour.py")
    assert proc.returncode == 0, proc.stderr
    assert "sharded merge equals single pass: True" in proc.stdout


@pytest.mark.parametrize(
    "name", ["contagion_metrics.py", "classifier_agreement.py", "forecast_walkthrough.py"]
)
def test_demo_exits_zero(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
