"""Experiment pipeline CLI.

Subcommands: datagen, price, cluster, vulnerability, sensitivity,
diversity, verify. All results are plain CSV/JSON for external plotting;
result tables are byte-reproducible from (config, inputs) and carry the
config hash, while wall-clock data goes to meta_* sidecar files only.

Exit codes: 0 ok, 1 validation error, 2 runtime error, 3 failed verify.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import CSV_FLOAT_FMT, DEFAULT_K, RunConfig
from .errors import ConfigError
from .kmeans import kmeans_profiles, sigma
from .model import CostModel, PriceCurve, price_curve
from .profiles import Population, aggregate, generate_corpus, ingest_csv, write_csv
from .robust import criterion_check, gkc, mci_table, minimal_certified, skc
from .tariff import ASSIGNMENT_METRICS, Tariff
from .vulnerability import Audit, ReportFiles, smoothness_bound

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        raise ConfigError(message)


def _write_table(path, header, rows: list, cfg_hash) -> None:
    """A result table; each column's format (float or text) is its first row's."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = ",".join(CSV_FLOAT_FMT if isinstance(v, (float, np.floating)) else "%s"
                           for v in rows[0]) + "\n"
            fh.writelines(fmt % tuple(row) for row in rows)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


@contextmanager
def _stage(record: dict, name: str):
    """Add the seconds the block takes to record[name], for the sidecar."""
    start = time.perf_counter()
    yield
    record[name] = record.get(name, 0.0) + time.perf_counter() - start


def _setup(args) -> tuple[RunConfig, Path, dict]:
    """Every command's first step: the config file overridden by each flag
    whose argparse dest is a config key, the created --out directory, and
    the command's meta sidecar, started with empty `stages`."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = cfg.with_overrides(**{key: value for key, value in vars(args).items()
                                if key in RunConfig.__dataclass_fields__})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, {"stages": {}}


def _write_meta(out_dir: Path, command: str, cfg: RunConfig, meta: dict) -> None:
    doc = {
        "command": command,
        "config_hash": cfg.hash(),
        # the process's peak resident memory so far; Linux reports KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"gridrates": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        **meta,
    }
    _write_json(out_dir / f"meta_{command}.json", doc)


def _load_inputs(args, cfg: RunConfig, meta: dict):
    """Every corpus command's `load` stage: the corpus (generated from the
    config without --corpus), its load, the config's price curve, and the
    --clustering tariff or None. The sidecar gets the corpus size, the rows
    its ingest dropped and the rows it read with csv.reader, the slow path,
    and the count and minimum of the curve's prices <= 0 (what `price_curve`
    warns of), or None when it has none."""
    with _stage(meta["stages"], "load"):
        if args.corpus:
            result = ingest_csv(args.corpus)
            pop, dropped, csv_rows = result.population, result.excluded_rows, result.csv_rows
        else:
            pop, dropped, csv_rows = generate_corpus(cfg.corpus_spec()), [], 0
        load = aggregate(pop)
        curve = price_curve(cfg.cost_model(), load)
        tariff = (_load_clustering(args.clustering, cfg, pop, curve)
                  if getattr(args, "clustering", None) else None)
    bad = curve.prices[curve.prices <= 0]
    meta.update(n_users=pop.n_users, n_excluded=len(dropped), csv_rows=csv_rows,
                excluded_by_reason=dict(Counter(reason for _, reason in dropped)),
                nonpositive_prices={"n": bad.size, "min": bad.min()} if bad.size else None)
    return pop, load, curve, tariff


def _load_clustering(path, cfg: RunConfig, pop: Population, curve: PriceCurve) -> Tariff:
    """A tariff JSON, rebuilt and checked on the corpus and the config's
    price curve and rho it is applied to (`Tariff.from_json`)."""
    try:
        return Tariff.from_json(Path(path).read_text(encoding="utf-8"), pop, curve, cfg.rho)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_datagen(args) -> int:
    cfg, out, meta = _setup(args)
    with _stage(meta["stages"], "compute"):
        pop = generate_corpus(cfg.corpus_spec())
    with _stage(meta["stages"], "write"):
        write_csv(pop, out / "corpus.csv")
    meta.update(n_users=pop.n_users, horizon=pop.horizon)
    _write_meta(out, "datagen", cfg, meta)
    return 0


def cmd_price(args) -> int:
    cfg, out, meta = _setup(args)
    pop, load, prices, _ = _load_inputs(args, cfg, meta)
    with _stage(meta["stages"], "compute"):
        rows = [(t, load.loads[t], prices.prices[t]) for t in range(pop.horizon)]
    with _stage(meta["stages"], "write"):
        _write_table(out / "price.csv", ["t", "load", "price"], rows, cfg.hash())
    _write_meta(out, "price", cfg, meta)
    return 0


def _write_user_rates(path, tariff: Tariff, cfg_hash) -> None:
    order = np.argsort(tariff.user_ids, kind="stable")   # code-point order of ids
    labels = tariff.labels[order].tolist()
    rates = [CSV_FLOAT_FMT % price for price in tariff.prices.tolist()]   # once per cluster
    rows = list(zip(tariff.user_ids[order].tolist(), labels,
                    [rates[label] for label in labels]))
    _write_table(path, ["user_id", "cluster", "rate"], rows, cfg_hash)


def _kmeans_facts(tariff: Tariff) -> dict:
    """Whether the tariff's k-means run converged, and how many empty
    clusters it reseeded, for the meta sidecar."""
    return {"n_iter": tariff.n_iter,
            "label_fixpoint": bool(tariff.label_fixpoint),
            "inertia": tariff.inertia,
            "empty_cluster_repairs": tariff.empty_cluster_repairs}


def cmd_cluster(args) -> int:
    cfg, out, meta = _setup(args)
    meta["method"] = args.method
    pop, _, prices, _ = _load_inputs(args, cfg, meta)
    with _stage(meta["stages"], "compute"):
        if args.method == "gkc":
            with _stage(meta, "wall_time_s"):
                tariff = gkc(mci_table(pop, prices), cfg.rho)
            meta["minimal_certified"] = minimal_certified(tariff)
        else:
            # skc refines the k-means tariff; its base is timed apart
            key = "wall_time_s" if args.method == "profile" else "base_wall_time_s"
            with _stage(meta, key):
                tariff = kmeans_profiles(pop, k=cfg.baseline_k(), prices=prices,
                                         seed=cfg.seed, metric=cfg.metric)
            meta.update(_kmeans_facts(tariff))
            if args.method == "skc":
                with _stage(meta, "wall_time_s"):
                    tariff = skc(pop, prices, cfg.rho, tariff)
                meta["skc_max_depth"] = tariff.split_depth

        meta["n_clusters"] = tariff.k
        if tariff.centers is None:
            ok, worst = criterion_check(tariff)
            meta["criterion_ok"] = bool(ok)
            meta["criterion_worst_gap"] = worst
    with _stage(meta["stages"], "write"):
        (out / f"clustering_{args.method}.json").write_text(
            tariff.to_json() + "\n", encoding="utf-8")
        _write_user_rates(out / f"rates_{args.method}.csv", tariff, cfg.hash())
    _write_meta(out, f"cluster_{args.method}", cfg, meta)
    return 0


def cmd_vulnerability(args) -> int:
    cfg, out, meta = _setup(args)
    pop, _, _, tariff = _load_inputs(args, cfg, meta)
    thetas = cfg.theta_grid()
    theta_ref = float(thetas[-1])
    bound = smoothness_bound(cfg.rho, theta_ref)

    # one pass over chunks of users in id order: each chunk's efforts are
    # built once, read by every report, and its reports written before the
    # next chunk is built
    with _stage(meta["stages"], "compute"):
        audit = Audit(tariff, pop, args.strict, thetas, theta_ref, bound)
    with ReportFiles(out / "disguise_reports.csv", out / "disguise_reports.json") as files:
        for rows in audit.chunks():
            with _stage(meta["stages"], "compute"):
                reports = audit.add(rows)
            with _stage(meta["stages"], "write"):
                files.write(reports)

    header = ["theta", "pct_strategic"] + [f"n_{j}" for j in range(tariff.k)]
    table_rows = [
        (theta, pct, *counts.tolist()) for theta, pct, counts in audit.sweep_rows()
    ]
    with _stage(meta["stages"], "write"):
        _write_table(out / "vulnerability_sweep.csv", header, table_rows, cfg.hash())
        _write_json(out / "smoothness.json", {
            "config_hash": cfg.hash(),
            "theta": theta_ref,
            "delta_observed": audit.delta_observed,
            "band_bound": bound,
            "n_reachable_pairs": audit.n_reachable,
            "n_violations": audit.n_violations,
            "worst_pairs": audit.worst_pairs(),
        })
    meta.update(theta_ref=theta_ref, strict=args.strict,
                admission_metric="rate" if tariff.centers is None else tariff.metric,
                effort_s=audit.effort_s,
                n_effort_pairs=len(tariff.labels) * (tariff.k - 1),
                n_exact_pairs=audit.n_exact_pairs,
                n_unreachable_pairs=audit.n_unreachable,
                n_reported_efforts=files.n_reported,
                n_reachable_pairs=audit.n_reachable)
    _write_meta(out, "vulnerability", cfg, meta)
    return 0


def _parse_list(text: str, kind, flag: str) -> list:
    """Comma-separated values of one kind; blank entries are skipped."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad {flag} {text!r}; expected comma-separated "
                          f"{kind.__name__}s") from None


def _parse_grid(text: str | None, flag: str) -> list | None:
    """A grid flag's values, or None when the flag is not given."""
    if text is None:
        return None
    grid = _parse_list(text, float, flag)
    if not grid:
        raise ConfigError(f"{flag} {text!r} holds no value; expected comma-separated floats")
    return grid


def cmd_sensitivity(args) -> int:
    rho_grid = _parse_grid(args.rho_grid, "--rho-grid")
    a_grid = _parse_grid(args.a_grid, "--a-grid")
    cfg, out, meta = _setup(args)
    rho_grid = rho_grid or list(np.round(np.geomspace(0.05, 5.0, 20), 9))
    a_grid = a_grid or [cfg.a / 2, cfg.a, cfg.a * 2]
    pop, loads, _, _ = _load_inputs(args, cfg, meta)
    rows = []
    nonpositive_a = []   # the grid's curvatures whose price curve has a price <= 0
    with _stage(meta["stages"], "compute"):
        for a in a_grid:
            curve = price_curve(CostModel(a, cfg.b, cfg.c), loads)
            if np.any(curve.prices <= 0):
                nonpositive_a.append(a)
            table = mci_table(pop, curve)
            for rho in rho_grid:
                rows.append((rho, a, gkc(table, float(rho)).k))
    with _stage(meta["stages"], "write"):
        _write_table(out / "sensitivity.csv", ["rho", "a", "kappa"], rows, cfg.hash())
    meta.update(nonpositive_prices_a=nonpositive_a, rho_points=len(rho_grid),
                a_points=len(a_grid))
    _write_meta(out, "sensitivity", cfg, meta)
    return 0


def cmd_diversity(args) -> int:
    drill = _parse_list(args.drill, int, "--drill") if args.drill else []
    repeated = [j for j, n in Counter(drill).items() if n > 1]
    if repeated:
        raise ConfigError(f"--drill index {repeated[0]} is given more than once")
    if args.drill_k < 1:
        raise ConfigError(f"--drill-k must be >= 1, got {args.drill_k}")
    cfg, out, meta = _setup(args)
    pop, _, prices, tariff = _load_inputs(args, cfg, meta)
    with _stage(meta["stages"], "compute"):
        sig = sigma(tariff, pop)
        sizes = np.bincount(tariff.labels, minlength=tariff.k).tolist()
        rows = [(j, sizes[j], tariff.prices[j], sig[j]) for j in range(tariff.k)]
        inner = {}
        for j in drill:
            if not 0 <= j < tariff.k:
                raise ConfigError(f"--drill index {j} out of range (k={tariff.k})")
            member_ids = tariff.member_ids(j)
            sub = Population(member_ids, pop.consumption[pop.rows_of(member_ids)])
            k_sub = min(args.drill_k, sub.n_users)
            inner[j] = kmeans_profiles(sub, k=k_sub, prices=prices, seed=cfg.seed)
    with _stage(meta["stages"], "write"):
        _write_table(out / "sigma.csv", ["cluster", "size", "price", "sigma"], rows,
                     cfg.hash())
        for j, sub_tariff in inner.items():
            (out / f"subclusters_{j}.json").write_text(
                sub_tariff.to_json() + "\n", encoding="utf-8")
    meta.update(drilled=drill,
                drill_kmeans={str(j): _kmeans_facts(sub) for j, sub in inner.items()})
    _write_meta(out, "diversity", cfg, meta)
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_all

    cfg, out, meta = _setup(args)   # validates config; its hash is recorded
    with _stage(meta["stages"], "compute"):
        results = run_all(out_dir=out, emit=print)
    rows = [(r.number, r.name, "pass" if r.passed else "fail") for r in results]
    with _stage(meta["stages"], "write"):
        _write_table(out / "acceptance_report.csv",
                     ["criterion", "name", "verdict"], rows, cfg.hash())
    meta["results"] = [
        {"criterion": r.number, "passed": r.passed, "detail": r.detail,
         "elapsed_s": r.elapsed}
        for r in results
    ]
    _write_meta(out, "verify", cfg, meta)
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"verify: FAILED criteria {failed}", file=sys.stderr)
        return 3
    print(f"verify: all {len(results)} criteria passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridrates", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("datagen", help="write a synthetic corpus CSV")
    common(p)
    p.add_argument("--kind", dest="corpus_kind", choices=tuple(DEFAULT_K))
    p.add_argument("--n", dest="n_users", type=int, metavar="N", help="number of users")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("price", help="emit the slot load and price table")
    common(p)
    p.add_argument("--corpus", help="corpus CSV (generated from config if omitted)")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("cluster", help="run a clustering pipeline")
    common(p)
    p.add_argument("--corpus")
    p.add_argument("--method", required=True, choices=["profile", "skc", "gkc"])
    p.add_argument("--k", type=int, help="baseline profile cluster count")
    p.add_argument("--rho", type=float, help="rate-band tolerance")
    p.add_argument("--metric", choices=ASSIGNMENT_METRICS)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("vulnerability", help="theta sweep of strategic users")
    common(p)
    p.add_argument("--corpus")
    p.add_argument("--clustering", required=True, help="clustering JSON artifact")
    p.add_argument("--theta-max", dest="theta_max", type=float)
    p.add_argument("--theta-step", dest="theta_step", type=float)
    p.add_argument("--strict", action="store_true",
                   help="admission must beat every center, not only the user's own "
                        "(profile tariffs only)")
    p.set_defaults(func=cmd_vulnerability)

    p = sub.add_parser("sensitivity", help="cluster count over rho and curvature grids")
    common(p)
    p.add_argument("--corpus")
    p.add_argument("--rho-grid", dest="rho_grid", help="comma-separated rho values")
    p.add_argument("--a-grid", dest="a_grid", help="comma-separated curvature values")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("diversity", help="per-cluster diversity and drill-down")
    common(p)
    p.add_argument("--corpus")
    p.add_argument("--clustering", required=True)
    p.add_argument("--drill", help="comma-separated cluster indices to sub-cluster")
    p.add_argument("--drill-k", dest="drill_k", type=int, default=6)
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:   # bad input; see gridrates.errors
        print(f"gridrates: validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit 2 by contract
        print(f"gridrates: runtime error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
