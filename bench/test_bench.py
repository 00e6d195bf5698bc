"""Self-test of the benchmark at tiny n.

    python3 -m pytest bench/test_bench.py -q

Not part of the repository's test suite (pytest collects `tests/` only).
It checks that every workload emits exactly the metrics BENCHMARK.json
names, that a corrupted artifact counts as a failed operation, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

TINY_N = 100
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def program():
    run.import_program()


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_is_emitted(name, trace):
    result, record = run.benchmark(WORKLOADS[name].scaled(TINY_N), seed=3,
                                   seconds=0, trace=trace)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0
    assert record["passes"][0]["artifacts"]
    if trace and name == "profile-audit":
        # three efforts matrices per vulnerability command, as exact counts
        assert result["metrics"]["vulnerability.effort_matrix.calls"]["value"] == 3


def _drop_last_row(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _zero_strict_cr(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        uid, cr, best, benefit = line.rstrip("\n").split(",")
        if cr:
            lines[i] = f"{uid},0,{best},{benefit}\n"
            break
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("name, artifact, corrupt, failing_op", [
    ("band-tariff", "rates_gkc.csv", _drop_last_row, "rates_gkc one finite row per user"),
    ("strict-audit", "disguise_reports.csv", _zero_strict_cr, "strict cr >= pairwise cr"),
])
def test_corrupted_artifact_counts_as_failed_op(monkeypatch, name, artifact, corrupt,
                                                failing_op):
    real_check = run.check_pass

    def check_corrupted(workload, out, *args):
        corrupt(out / artifact)
        return real_check(workload, out, *args)

    monkeypatch.setattr(run, "check_pass", check_corrupted)
    result, record = run.benchmark(WORKLOADS[name].scaled(TINY_N), seed=3,
                                   seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(failing_op in f["op"] for f in record["failures"])


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "strict-audit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
