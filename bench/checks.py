"""Output checks run on a pass's artifacts, outside the timed region.

Each check is one operation of the run: `check_pass` returns one
(name, ok, detail) triple per check, and every check that is not ok counts
one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def read_table(path) -> tuple[list, list]:
    """(header, rows) of a CLI result table, skipping its config-hash comment."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [line for line in lines if not line.startswith("#")]
    return body[0].split(","), [line.split(",") for line in body[1:]]


def result_artifacts(out_dir) -> dict:
    """sha256 and size of every result file in a directory, `meta_*` excluded."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.is_file() and not path.name.startswith("meta_"):
            data = path.read_bytes()
            out[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                              "bytes": len(data)}
    return out


def _rates(out, method, user_ids):
    header, rows = read_table(out / f"rates_{method}.csv")
    ids = [row[0] for row in rows]
    finite = all(math.isfinite(float(row[2])) for row in rows)
    ok = header == ["user_id", "cluster", "rate"] and finite and (
        len(ids) == len(user_ids) and set(ids) == user_ids)
    return ok, f"{len(ids)} rows for {len(user_ids)} users, all finite={finite}"


def _criterion(out, method):
    meta = json.loads((out / f"meta_cluster_{method}.json").read_text(encoding="utf-8"))
    return meta.get("criterion_ok") is True, f"criterion_ok={meta.get('criterion_ok')}"


def _sweep(out):
    _, rows = read_table(out / "vulnerability_sweep.csv")
    pct = [float(row[1]) for row in rows]
    in_range = all(0.0 <= p <= 100.0 for p in pct)
    monotone = all(b >= a for a, b in zip(pct, pct[1:]))
    return bool(rows) and in_range and monotone, (
        f"{len(pct)} thetas, in [0,100]={in_range}, non-decreasing={monotone}")


def _smoothness(out):
    doc = json.loads((out / "smoothness.json").read_text(encoding="utf-8"))
    return doc["n_violations"] == 0, f"n_violations={doc['n_violations']}"


def _sensitivity(out):
    _, rows = read_table(out / "sensitivity.csv")
    by_a: dict = {}
    for rho, a, kappa in rows:
        by_a.setdefault(a, []).append((float(rho), int(kappa)))
    bad = []
    for a, pts in by_a.items():
        kappas = [kappa for _, kappa in sorted(pts)]
        if any(later > earlier for earlier, later in zip(kappas, kappas[1:])):
            bad.append(a)
    return bool(rows) and not bad, f"{len(rows)} rows, kappa rises with rho at a={bad}"


def _price(out, horizon):
    _, rows = read_table(out / "price.csv")
    finite = all(math.isfinite(float(v)) for row in rows for v in row[1:])
    return len(rows) == horizon and finite, f"{len(rows)} slots, all finite={finite}"


def _diversity(out, drill):
    _, rows = read_table(out / "sigma.csv")
    in_range = all(0.0 <= float(row[3]) <= 2.0 for row in rows)
    present = all((out / f"subclusters_{j}.json").is_file() for j in drill)
    return bool(rows) and in_range and present, (
        f"{len(rows)} clusters, sigma in [0,2]={in_range}, drill files={present}")


def _reports(out, user_ids):
    _, rows = read_table(out / "disguise_reports.csv")
    return len(rows) == len(user_ids), f"{len(rows)} report rows for {len(user_ids)} users"


def _strict_dominates(out, corpus, clustering_path):
    """Every user's strict cr is >= its pairwise cr (strict admission is harder)."""
    from gridrates.config import CSV_FLOAT_FMT
    from gridrates.kmeans import Clustering
    from gridrates.profiles import ingest_csv
    from gridrates.vulnerability import disguise_reports

    clustering = Clustering.from_json(Path(clustering_path).read_text(encoding="utf-8"))
    pop = ingest_csv(corpus).population
    pairwise = {r.user_id: r.cr for r in disguise_reports(clustering, 0.0, pop=pop)}
    _, rows = read_table(out / "disguise_reports.csv")
    inf = float("inf")
    below = []
    for uid, cr, _, _ in rows:
        strict_cr = float(cr) if cr else inf
        # compare at the CSV's precision; rounding keeps the order
        pair_cr = pairwise[uid]
        pair_cr = float(CSV_FLOAT_FMT % pair_cr) if pair_cr < inf else inf
        if strict_cr < pair_cr:
            below.append(uid)
    ok = len(rows) == len(pairwise) and not below
    return ok, f"{len(below)} of {len(rows)} users have strict cr < pairwise cr"


def check_pass(workload, out: Path, corpus: Path, user_ids: set, horizon: int) -> list:
    """Checks on the artifacts of every command the workload ran in `out`."""
    results = []

    def run(name, fn, *args):
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail = False, f"{exc.__class__.__name__}: {exc}"
        results.append((name, bool(ok), detail))

    for command in workload.commands:
        sub = command[0]
        if sub == "price":
            run("price finite per slot", _price, out, horizon)
        elif sub == "cluster":
            method = command[command.index("--method") + 1]
            run(f"rates_{method} one finite row per user", _rates, out, method, user_ids)
            if method in ("gkc", "skc"):
                run(f"{method} band criterion", _criterion, out, method)
        elif sub == "vulnerability":
            clustering = command[command.index("--clustering") + 1].format(out=out)
            run("sweep pct in [0,100], non-decreasing", _sweep, out)
            run("one disguise report per user", _reports, out, user_ids)
            if json.loads(Path(clustering).read_text(encoding="utf-8"))["kind"] == "rate":
                run("no smoothness violations", _smoothness, out)
            if "--strict" in command:
                run("strict cr >= pairwise cr", _strict_dominates, out, corpus, clustering)
        elif sub == "sensitivity":
            run("kappa non-increasing in rho", _sensitivity, out)
        elif sub == "diversity":
            drill = [int(v) for v in command[command.index("--drill") + 1].split(",")]
            run("sigma in [0,2] and drill files", _diversity, out, drill)
    return results
