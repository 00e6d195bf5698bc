"""Smoke test: every demo script runs to completion against the current API."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = (
    "01_cost_model_and_rates",
    "02_profile_clustering_loophole",
    "03_rate_band_tariffs",
    "04_sensitivity_and_diversity",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_rate_band_demo_stdout_is_reproducible(capsys):
    outputs = []
    for _ in range(2):
        runpy.run_path(str(DEMO_DIR / "03_rate_band_tariffs.py"), run_name="__main__")
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
