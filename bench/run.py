"""Benchmark of the gridrates pipeline, driven through its CLI in-process.

    python3 bench/run.py --workload profile-audit --seed 1 --seconds 30 --trace 0

One single-threaded process per run. The run sets up several times (a
fresh interpreter imports gridrates, then `datagen` generates the
workload's corpus from the seed; the median is the set-up time), then
runs the workload's command chain through `gridrates.cli.main` in passes
until `--seconds` would be exceeded (at least one pass), checks each
pass's artifacts outside the timed region, and prints one JSON object as
the last line of stdout:

* `--trace 0`: end-to-end metrics (medians over the passes after the
  first, which warms the process up; `pipeline_ref` is the passes' median
  time over the median time of a reference computation timed before each);
* `--trace 1`: per-layer metrics from spans around the layers' public
  functions, plus the tracing overhead against one untraced pass.

The full record (environment, per-command times, check outcomes, the
sha256 of every result artifact, every span's totals) is written to
`.bench_work/results/`. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported: the run is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from checks import check_pass, result_artifacts
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3

# per-layer metrics: self seconds, call counts and inclusive seconds of spans
SELF_TIMES = (
    "profiles.ingest_csv", "profiles.write_csv", "profiles.generate_corpus",
    "profiles.normalize_matrix",
    "model.price_curve", "model.mci_matrix",
    "kmeans.kmeans_profiles", "kmeans.sigma",
    "robust.mci_table", "robust.gkc", "robust.skc", "robust.criterion_check",
    "vulnerability.effort_matrix", "vulnerability.switch_efforts",
    "vulnerability.min_switch_effort_strict", "vulnerability.theta_sweep",
    "vulnerability.disguise_reports", "vulnerability.measure_smoothness",
    "vulnerability.reports_to_json", "vulnerability.write_reports_csv",
    "cli.load_clustering", "cli.clustering_to_json", "cli.write_table",
    "cli.write_json",
)
CALL_COUNTS = (
    "profiles.ingest_csv", "profiles.normalize_matrix", "model.mci_matrix",
    "kmeans.kmeans_profiles", "robust.gkc", "vulnerability.effort_matrix",
    "vulnerability.switch_efforts", "vulnerability.min_switch_effort_strict",
)
COMMANDS = ("price", "cluster", "vulnerability", "sensitivity", "diversity")
WALL_TIMES = ("cli.load_clustering", "vulnerability.effort_matrix") + tuple(
    f"cli.{c}" for c in COMMANDS)
# measured on the set-up's datagen calls; every other layer metric on the passes
SETUP_LAYER_METRICS = ("profiles.write_csv.s", "profiles.generate_corpus.s")


class ProgramMissing(Exception):
    """The program's sources are not in the checkout."""


def import_program() -> float:
    """Import gridrates from the checkout's src/; returns the seconds taken."""
    start = perf_counter()
    if not (SRC / "gridrates" / "__init__.py").is_file():
        raise ProgramMissing(f"no gridrates package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import gridrates.cli

    if Path(gridrates.cli.__file__).resolve().parent != SRC / "gridrates":
        raise ProgramMissing(f"gridrates imported from {gridrates.cli.__file__}, not {SRC}")
    return perf_counter() - start


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to start and import gridrates.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import gridrates.cli"],
                   cwd=ROOT, env=env, check=True)
    return perf_counter() - start


def reference_s() -> float:
    """Seconds of a fixed computation that calls no gridrates code.

    It mixes the kinds of work a pass does: interpreter loops, numpy
    arithmetic, building and serializing records, formatting and parsing
    CSV text. The host's speed drifts by a quarter and more over minutes;
    timed next to every pass, this shows how fast the host ran the pass.
    """
    import numpy as np

    start = perf_counter()
    points = np.random.default_rng(0).random((2000, 24))
    dist = np.stack([((points - center) ** 2).sum(axis=1) for center in points[:30]], axis=1)
    labels = dist.argmin(axis=1)
    records = [{"user": f"u{i:05d}", "cluster": int(labels[i]),
                "cost": float(points[i, 0]), "shares": [float(v) for v in points[i, :4]]}
               for i in range(2000)]
    for _ in range(4):
        json.dumps(records)
    lines = [",".join("%.9g" % v for v in row) for row in points]
    total = sum(float(v) for line in lines for v in line.split(","))
    for i in range(50_000):
        total += (i % 13) * 0.5
    return perf_counter() - start


def unit_of(name: str) -> str:
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("label_fixpoint"):
        return "bool"
    if name.endswith((".s", "_s", ".s_per_iter")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run of a workload: set-up, passes, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float, tracer=None):
        from gridrates import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.dir = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.ops_attempted = 0
        self.ops_failed = 0
        self.failures: list = []
        self.setup_s: list = []
        self.passes: list = []
        self.untraced_pass = None

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops_attempted += 1
        if not ok:
            self.ops_failed += 1
            self.failures.append({"op": name, "detail": detail})

    def _cli(self, argv, run_id, command) -> tuple:
        """Run one CLI command; returns (exit code, wall seconds)."""
        gc.collect()
        tracer = self.tracer
        if tracer is None:
            span = contextlib.nullcontext()
        else:
            tracer.run_id, tracer.command = run_id, command
            span = tracer.span(f"cli.{command}")
        try:
            with span:
                start = perf_counter()
                rc = self.cli.main(argv)
                elapsed = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.run_id = tracer.command = None
        return rc, elapsed

    def setup(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.workload.config(self.seed)), encoding="utf-8")
        digests = []
        for rep in range(SETUP_REPS):
            out = self.dir / f"setup{rep}"
            import_s = fresh_import_s()
            rc, elapsed = self._cli(
                ["datagen", "--config", str(self.config), "--out", str(out)],
                f"setup{rep}", "datagen")
            self.op(f"datagen rep {rep} exits 0", rc == 0, f"exit {rc}")
            self.setup_s.append(import_s + elapsed)
            corpus = out / "corpus.csv"
            digests.append(hashlib.sha256(corpus.read_bytes()).hexdigest()
                           if corpus.is_file() else None)
        self.op("datagen reproducible", len(set(digests)) == 1 and digests[0] is not None,
                f"corpus digests {digests}")
        self.corpus = self.dir / "setup0" / "corpus.csv"
        self.corpus_sha256 = digests[0]
        with open(self.corpus, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            self.user_ids = {line.split(",", 1)[0] for line in fh}
        self.horizon = len(header) - 1

    def run_pass(self, index: int, traced: bool) -> dict:
        reference = reference_s()
        out = self.dir / f"pass{index}"
        run_id = f"pass{index}" if traced else None
        commands = []
        for command in self.workload.commands:
            argv = [command[0], "--config", str(self.config), "--out", str(out),
                    "--corpus", str(self.corpus)]
            argv += [arg.format(out=out) for arg in command[1:]]
            rc, elapsed = self._cli(argv, run_id, command[0])
            label = " ".join(command[:3]).replace(str(out) + "/", "")
            commands.append({"command": command[0], "label": label,
                             "exit": rc, "seconds": elapsed})
            self.op(f"pass {index}: {label} exits 0", rc == 0, f"exit {rc}")
        for name, ok, detail in check_pass(
                self.workload, out, self.corpus, self.user_ids, self.horizon):
            self.op(f"pass {index}: {name}", ok, detail)
        artifacts = result_artifacts(out)
        shutil.rmtree(out)
        return {
            "run_id": run_id,
            "commands": commands,
            "pipeline_s": sum(c["seconds"] for c in commands),
            "reference_s": reference,
            "output_bytes": sum(a["bytes"] for a in artifacts.values()),
            "artifacts": artifacts,
        }

    def measure(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            # one untraced pass gives the base for the tracing overhead
            tracer.uninstall()
            self.untraced_pass = self.run_pass(len(self.passes), traced=False)
            tracer.install()
        start = perf_counter()
        while True:
            index = len(self.passes) + (self.untraced_pass is not None)
            self.passes.append(self.run_pass(index, traced=tracer is not None))
            elapsed = perf_counter() - start
            if elapsed + self.passes[-1]["pipeline_s"] > self.seconds:
                break
        first = self.passes[0]["artifacts"]
        for p in self.passes[1:]:
            self.op(f"{p['run_id'] or 'pass'} artifacts identical to the first pass",
                    p["artifacts"] == first)

    def execute(self) -> None:
        try:
            if self.tracer is not None:
                self.tracer.install()
            self.setup()
            self.measure()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict:
        passes = self.passes[1:] or self.passes  # the first pass warms the process up
        return {
            "pipeline_ref": median([p["pipeline_s"] for p in passes])
                            / median([p["reference_s"] for p in passes]),
            "setup_s": median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output_mb": median([p["output_bytes"] for p in passes]) / 1e6,
        }

    def per_layer(self) -> dict:
        tracer = self.tracer
        per_pass = [layer_metrics(tracer, p["run_id"]) for p in self.passes]
        metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
        per_setup = [layer_metrics(tracer, f"setup{rep}") for rep in range(SETUP_REPS)]
        for name in SETUP_LAYER_METRICS:
            metrics[name] = median([m[name] for m in per_setup])
        traced = median([p["pipeline_s"] for p in self.passes])
        metrics["trace.overhead_s"] = traced - self.untraced_pass["pipeline_s"]
        metrics["trace.spans"] = median([
            sum(e["calls"] for e in tracer.summary(p["run_id"]).values())
            for p in self.passes])
        return metrics


def layer_metrics(tracer, run_id) -> dict:
    """Per-layer metrics of one traced pass (or set-up rep)."""
    summary = tracer.summary(run_id)

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    m = {f"{name}.s": get(name, "self_s") for name in SELF_TIMES}
    m.update({f"{name}.calls": int(get(name, "calls")) for name in CALL_COUNTS})
    m.update({f"{name}.wall_s": get(name, "wall_s") for name in WALL_TIMES})
    m["cli.self.s"] = sum(get(f"cli.{c}", "self_s") for c in COMMANDS)

    m["profiles.ingest.rows"] = tracer.fact(run_id, "profiles.ingest.rows")
    m["profiles.ingest.excluded"] = tracer.fact(run_id, "profiles.ingest.excluded")
    kmeans_calls = tracer.facts.get((run_id, "kmeans.calls"), [])
    if kmeans_calls:
        _, n_iter, fixpoint = max(kmeans_calls)  # the largest call: the tariff's
        total_iters = sum(c[1] for c in kmeans_calls)
        m["kmeans.n_iter"] = n_iter
        m["kmeans.label_fixpoint"] = int(fixpoint)
        m["kmeans.s_per_iter"] = get("kmeans.kmeans_profiles", "wall_s") / total_iters
    else:
        m["kmeans.n_iter"] = m["kmeans.label_fixpoint"] = 0
        m["kmeans.s_per_iter"] = 0.0
    m["robust.k"] = tracer.fact(run_id, "robust.k", reduce=max)
    pairs = tracer.fact(run_id, "vulnerability.effort_pairs")
    effort_wall = get("vulnerability.effort_matrix", "wall_s")
    m["vulnerability.effort_pairs"] = pairs
    m["vulnerability.effort_pairs_per_s"] = pairs / effort_wall if effort_wall else 0.0
    m["vulnerability.reports_json.bytes"] = tracer.fact(
        run_id, "vulnerability.reports_json.bytes")
    m["vulnerability.reachable_pairs"] = tracer.fact(run_id, "vulnerability.reachable_pairs")
    return m


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "gridrates").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def benchmark(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0):
    """Run one benchmark run; returns (result line, full record)."""
    run = Run(workload, seed, seconds, Tracer() if trace else None)
    run.execute()
    metrics = run.per_layer() if trace else run.end_to_end()
    result = {
        "correct": run.ops_failed == 0,
        "attempted": run.ops_attempted,
        "failed": run.ops_failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "import_s": import_s, "setup_s": run.setup_s,
        "corpus_sha256": run.corpus_sha256,
        "passes": run.passes, "untraced_pass": run.untraced_pass,
        "failures": run.failures, "result": result,
    }
    if trace:
        record["spans"] = {p["run_id"]: run.tracer.summary(p["run_id"]) for p in run.passes}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), import_s)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(f"bench: record written to {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
