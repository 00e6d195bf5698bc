"""Every demo script runs against the current API and prints the same stdout.

The digests pin each demo's stdout (stderr excluded) byte for byte, so a
refactor of the library cannot silently change what a demo reports.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
# sha256 of `python demos/<name>.py` stdout
DEMOS = {
    "01_cost_model_and_rates":
        "35a4092fc9633a43130205aae354557044dd523b8203d7539d6fea470b147c1b",
    "02_profile_clustering_loophole":
        "2638ca75217f148434c777a8c44f9b4f0d9166a6abe1b09607aa6ad31f081a11",
    "03_rate_band_tariffs":
        "a23bfd54ff2c49f2d4bfff587527a3369ba7e096464be4942107e7bc7aaefa85",
    "04_sensitivity_and_diversity":
        "96c8a5e7c808b41a09ce5e57410db622d2f2a03d6b38bb0b6f4bb1fdca50ec77",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMOS[name]


def test_rate_band_demo_stdout_is_reproducible(capsys):
    outputs = []
    for _ in range(2):
        runpy.run_path(str(DEMO_DIR / "03_rate_band_tariffs.py"), run_name="__main__")
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
