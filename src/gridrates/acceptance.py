"""End-to-end acceptance checks for the pricing and clustering pipeline.

Each check is self-contained with fixed seeds, measures what it claims
(identities, optimality, guarantees, trends, timing), and reports one
pass/fail verdict. `run_all` executes the full gate; the `verify` CLI
command and the test suite both drive these functions.
"""

from __future__ import annotations

import filecmp
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT_A, DEFAULT_B
from .kmeans import kmeans_profiles
from .model import CostModel, PriceCurve, SystemLoad, mci_matrix, price_curve
from .profiles import aggregate, generate_corpus, residential_spec, commercial_spec
from .robust import MciTable, criterion_check, gkc, mci_table, minimal_clusters_oracle, skc
from .vulnerability import measure_smoothness, min_switch_effort, smoothness_bound, theta_sweep

DEFAULT_COST = CostModel(DEFAULT_A, DEFAULT_B)


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.elapsed = float(self.elapsed)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{verdict}] {self.name}: {self.detail}"


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _best_of(fns: dict, repeats: int = 3, budget_s: float = 0.0) -> dict:
    """Fastest call of each function, timed in turn round after round.

    Rounds repeat until there are `repeats` of them and `budget_s` has
    passed, so every function is sampled across the same stretch of time
    and a slow spell of the host falls on all of them alike.
    """
    best = dict.fromkeys(fns, math.inf)
    rounds = 0
    start = time.perf_counter()
    while rounds < repeats or time.perf_counter() - start < budget_s:
        for key, fn in fns.items():
            tic = time.perf_counter()
            fn()
            best[key] = min(best[key], time.perf_counter() - tic)
        rounds += 1
    return best


def _reference_population(n: int = 10_000, seed: int = 606, pool: int = 50_000):
    """One 50k draw whose leading slices serve as the size-sweep corpora."""
    pop = generate_corpus(residential_spec(pool, seed=seed))
    reference = pop.subset(n)
    prices = price_curve(DEFAULT_COST, aggregate(reference))
    return pop, reference, prices


# --------------------------------------------------------------------------
# 1. billing identity
# --------------------------------------------------------------------------

def check_billing_identity() -> CheckResult:
    def run():
        rng = np.random.default_rng(101)
        loads = rng.uniform(3.5e5, 6.0e5, size=24)
        prices = price_curve(DEFAULT_COST, SystemLoad(loads)).prices
        profiles = rng.uniform(0.0, 3.0, size=(10_000, 24))
        profiles[:, 0] += 1e-6  # no zero rows
        totals = profiles.sum(axis=1)
        bills = profiles @ prices
        recovered = mci_matrix(PriceCurve(prices), profiles) * totals
        err = np.abs(recovered - bills) / (1.0 + np.abs(bills))
        return float(err.max())

    worst, elapsed = _timed(run)
    passed = worst <= 1e-9 and elapsed < 1.0
    return CheckResult(
        1, "billing identity on 10,000 random pairs",
        passed, f"worst relative error {worst:.2e}, {elapsed:.2f}s", elapsed,
    )


# --------------------------------------------------------------------------
# 2. greedy covering optimality
# --------------------------------------------------------------------------

def check_greedy_optimality(n_instances: int = 500, n_edge: int = 500) -> CheckResult:
    def uniform_instances():
        rng = np.random.default_rng(202)
        for _ in range(n_instances):
            n = int(rng.integers(1, 501))
            values = np.sort(rng.uniform(0.0, 50.0, size=n))
            yield values, float(rng.uniform(0.05, 8.0))

    def edge_instances():
        # 2 to 4 rates, each on the band edge r + 2*rho of the one before or
        # one ulp either side; the first rate runs up to 1e5
        rng = np.random.default_rng(203)
        for _ in range(n_edge):
            rho = float(rng.uniform(0.05, 8.0))
            values = [10.0 ** rng.uniform(0.0, 5.0)]
            for step in rng.integers(-1, 2, size=int(rng.integers(1, 4))):
                edge = values[-1] + 2 * rho
                values.append(np.nextafter(edge, step * np.inf) if step else edge)
            yield np.array(values), rho

    def mismatches(instances):
        tables = ((MciTable(np.array([f"u{i:04d}" for i in range(values.size)]), values), rho)
                  for values, rho in instances)
        return sum(gkc(table, rho).k != minimal_clusters_oracle(table, rho)
                   for table, rho in tables)

    (uniform, edge), elapsed = _timed(
        lambda: (mismatches(uniform_instances()), mismatches(edge_instances())))
    passed = uniform + edge == 0 and elapsed < 30.0
    return CheckResult(
        2, f"greedy cluster count optimal on {n_instances} random and {n_edge} "
           f"band-edge instances",
        passed, f"{uniform} random and {edge} band-edge mismatches vs exact partition "
                f"search, {elapsed:.1f}s", elapsed,
    )


# --------------------------------------------------------------------------
# 3. rate-band criterion
# --------------------------------------------------------------------------

def check_band_criterion(n_seeds: int = 100) -> CheckResult:
    def run():
        worst_gap = 0.0
        failures = 0
        rho = 0.5
        for seed in range(n_seeds):
            spec = residential_spec(
                200, seed=seed, total_range=(800.0 * 50, 1800.0 * 50))
            pop = generate_corpus(spec)
            prices = price_curve(DEFAULT_COST, aggregate(pop))
            base = kmeans_profiles(pop, k=8, prices=prices, seed=seed)
            refined = skc(pop, prices, rho, base)
            greedy = gkc(mci_table(pop, prices), rho)
            for clustering in (refined, greedy):
                ok, gap = criterion_check(clustering)
                worst_gap = max(worst_gap, gap)
                failures += 0 if ok else 1
        return failures, worst_gap

    (failures, worst_gap), elapsed = _timed(run)
    passed = failures == 0
    return CheckResult(
        3, f"band criterion exact for refine+greedy over {n_seeds} seeds",
        passed, f"{failures} failures, worst gap {worst_gap:.12f} (rho 0.5)", elapsed,
    )


# --------------------------------------------------------------------------
# 4. price-gap guarantee for band clusterings
# --------------------------------------------------------------------------

def check_gap_guarantee() -> CheckResult:
    def run():
        worst_margin = -math.inf  # delta - bound, should stay <= 0
        cases = 0
        corpora = [
            generate_corpus(residential_spec(2000, seed=s, total_range=(4000.0, 9000.0)))
            for s in (0, 1, 2)
        ] + [
            generate_corpus(commercial_spec(2000, seed=0, total_range=(4000.0, 9000.0)))
        ]
        for pop in corpora:
            prices = price_curve(DEFAULT_COST, aggregate(pop))
            table = mci_table(pop, prices)
            base = kmeans_profiles(pop, k=8, prices=prices, seed=0)
            for rho in (0.25, 0.5, 1.0):
                for banded in (gkc(table, rho), skc(pop, prices, rho, base)):
                    for theta in (0.05, 0.1, 0.2, 0.5):
                        bound = smoothness_bound(rho, theta)
                        delta = measure_smoothness(banded, theta=theta).delta_observed
                        worst_margin = max(worst_margin, delta - bound)
                        cases += 1
        return cases, worst_margin

    (cases, worst_margin), elapsed = _timed(run)
    passed = worst_margin <= 1e-12
    return CheckResult(
        4, "price-gap guarantee rho*(1 + 1/(1-theta)) for band clusterings",
        passed, f"{cases} cases, worst delta-bound margin {worst_margin:.3e}", elapsed,
    )


# --------------------------------------------------------------------------
# 5. switch effort vs dense grid
# --------------------------------------------------------------------------

def _first_feasible_on_grid(grid, d, c_own, c_target) -> float:
    """grid[argmax(margin >= 0)], evaluated in chunks from mu=0 up to the first hit."""
    for start in range(0, grid.size, 1000):
        mu = grid[start:start + 1000]
        blends = (1.0 - mu)[:, None] * d[None, :] + mu[:, None] * c_target[None, :]
        lhs = np.abs(blends - c_own[None, :]).sum(axis=1)
        rhs = (1.0 - mu) * np.abs(d - c_target).sum()
        feasible = lhs - rhs >= 0.0
        if feasible.any():
            return float(mu[np.argmax(feasible)])
    return float(grid[0])


def check_switch_effort_oracle(n_triples: int = 1000) -> CheckResult:
    def run():
        rng = np.random.default_rng(505)
        grid = np.arange(0.0, 1.0 + 1e-5, 1e-5)
        worst = 0.0
        for _ in range(n_triples):
            raw = rng.uniform(0.0, 1.0, size=(3, 24)) + 1e-9
            d, c_own, c_target = raw / raw.sum(axis=1, keepdims=True)
            exact = min_switch_effort(d, c_own, c_target)
            approx = _first_feasible_on_grid(grid, d, c_own, c_target)
            worst = max(worst, abs(exact - approx))
        # analytic case: a user on its own center needs exactly half
        raw = rng.uniform(0.0, 1.0, size=(2, 24)) + 1e-9
        c_own, c_target = raw / raw.sum(axis=1, keepdims=True)
        center_case = min_switch_effort(c_own, c_own, c_target)
        return worst, center_case

    (worst, center_case), elapsed = _timed(run)
    passed = worst <= 1e-5 and center_case == 0.5
    return CheckResult(
        5, f"switch effort matches 1e-5 grid oracle on {n_triples} triples",
        passed, f"worst |exact-grid| {worst:.2e}, center case {center_case}", elapsed,
    )


# --------------------------------------------------------------------------
# 6. refinement vs greedy covering: counts, times, size trends
# --------------------------------------------------------------------------

def check_refine_vs_greedy() -> CheckResult:
    pool, reference, prices = _reference_population()
    rho = 0.5
    start = time.perf_counter()

    base = kmeans_profiles(reference, k=30, prices=prices, seed=7)
    refined = skc(reference, prices, rho, base)
    table = mci_table(reference, prices)
    greedy = gkc(table, rho)

    times = _best_of({
        "refine": lambda: skc(reference, prices, rho, base),
        "greedy": lambda: gkc(mci_table(reference, prices), rho),
    })
    t_refine, t_greedy = times["refine"], times["greedy"]

    # size trend at a band width where the bounded-support synthetic corpus
    # has not yet saturated the refinement's leaf count
    sweep_rho = 0.3
    greedy_counts, refined_counts = [], []
    for n in (1000, 10_000, 50_000):
        sub = pool.subset(n)
        sub_table = mci_table(sub, prices)  # fixed reference price curve
        greedy_counts.append(gkc(sub_table, sweep_rho).k)
        sub_base = kmeans_profiles(sub, k=30, prices=prices, seed=7)
        refined_counts.append(skc(sub, prices, sweep_rho, sub_base).k)

    elapsed = time.perf_counter() - start
    band = (max(greedy_counts) - min(greedy_counts)) / min(greedy_counts)
    refined_grows = refined_counts[0] < refined_counts[1] < refined_counts[2]
    passed = (
        refined.k >= greedy.k
        and t_greedy < t_refine
        and band < 0.20
        and refined_grows
    )
    detail = (
        f"counts refine {refined.k} >= greedy {greedy.k}; "
        f"time greedy {t_greedy * 1e3:.1f}ms < refine {t_refine * 1e3:.1f}ms; "
        f"greedy counts {greedy_counts} band {band:.1%}; refine counts {refined_counts}"
    )
    return CheckResult(6, "refinement vs greedy on 10k corpus and size sweep",
                       passed, detail, elapsed)


# --------------------------------------------------------------------------
# 7. sensitivity of cluster count to rho and cost curvature
# --------------------------------------------------------------------------

def check_sensitivity() -> CheckResult:
    def run():
        pop = generate_corpus(residential_spec(5000, seed=707, total_range=(1600.0, 3600.0)))
        loads = aggregate(pop)
        rho_grid = np.geomspace(0.05, 5.0, 20)
        a_values = [DEFAULT_COST.a / 2, DEFAULT_COST.a, DEFAULT_COST.a * 2]
        counts = {}
        for a in a_values:
            model = CostModel(a, DEFAULT_COST.b)
            table = mci_table(pop, price_curve(model, loads))
            counts[a] = [gkc(table, float(r)).k for r in rho_grid]
        monotone_rho = all(
            all(x >= y for x, y in zip(seq, seq[1:])) for seq in counts.values()
        )
        monotone_a = all(
            counts[a_values[0]][i] <= counts[a_values[1]][i] <= counts[a_values[2]][i]
            for i in range(len(rho_grid))
        )
        at_default = int(np.argmin(np.abs(rho_grid - 0.5)))
        ratio = counts[a_values[2]][at_default] / counts[a_values[1]][at_default]
        return monotone_rho, monotone_a, ratio, counts[a_values[1]][at_default]

    (monotone_rho, monotone_a, ratio, kappa), elapsed = _timed(run)
    passed = monotone_rho and monotone_a and 1.5 <= ratio <= 2.5
    return CheckResult(
        7, "cluster count monotone in rho/curvature; doubling curvature ~doubles it",
        passed,
        f"monotone(rho) {monotone_rho}, monotone(a) {monotone_a}, "
        f"kappa(2a)/kappa(a) {ratio:.2f} at kappa {kappa}",
        elapsed,
    )


# --------------------------------------------------------------------------
# 8. strategic-user percentage monotone, zero at theta=0
# --------------------------------------------------------------------------

def check_vulnerability_monotonicity() -> CheckResult:
    def run():
        pop = generate_corpus(residential_spec(2000, seed=808, total_range=(4000.0, 9000.0)))
        prices = price_curve(DEFAULT_COST, aggregate(pop))
        clustering = kmeans_profiles(pop, k=24, prices=prices, seed=808, metric="l1")
        thetas = np.round(np.arange(0, 41) * 0.005, 10)
        rows = theta_sweep(clustering, thetas, pop=pop)
        pcts = [pct for _, pct, _ in rows]
        counts = np.vstack([c for _, _, c in rows])
        monotone = all(b >= a for a, b in zip(pcts, pcts[1:])) and np.all(
            np.diff(counts, axis=0) >= 0)
        return clustering.label_fixpoint, pcts[0], pcts[-1], monotone

    (fixpoint, at_zero, at_max, monotone), elapsed = _timed(run)
    passed = fixpoint and at_zero == 0.0 and monotone
    return CheckResult(
        8, "strategic-user percentage: 0 at theta=0, non-decreasing in theta",
        passed,
        f"fixpoint {fixpoint}, pct(0)={at_zero:.2f}, pct(0.2)={at_max:.1f}, "
        f"monotone {monotone}",
        elapsed,
    )


# --------------------------------------------------------------------------
# 9. greedy covering scaling
# --------------------------------------------------------------------------

def check_scaling() -> CheckResult:
    def run():
        rng = np.random.default_rng(909)
        covers = {}
        for n in (10_000, 100_000, 1_000_000):
            values = rng.uniform(0.0, 30.0, size=n)
            # ids are bookkeeping; rank labels keep the timed region to the
            # algorithmic core (sort, validate, cover)
            ids = np.array([f"u{i:07d}" for i in range(n)])

            def sort_and_cover(values=values, ids=ids):
                gkc(MciTable(user_ids=ids, mcis=np.sort(values, kind="stable")), 0.5)

            covers[n] = sort_and_cover
        # each step ratio divides two timings, so the sizes are timed in
        # turn over a fixed budget rather than one after the other
        return _best_of(covers, repeats=5, budget_s=3.0)

    times, elapsed = _timed(run)
    ratios = [times[100_000] / times[10_000], times[1_000_000] / times[100_000]]
    passed = times[1_000_000] < 5.0 and all(r <= 15.0 for r in ratios)
    return CheckResult(
        9, "greedy covering sorts-and-covers 1e6 rates in < 5 s, ~n log n",
        passed,
        f"t(1e6)={times[1_000_000]:.2f}s, step ratios "
        f"{ratios[0]:.1f}x, {ratios[1]:.1f}x (cap 15x)",
        elapsed,
    )


# --------------------------------------------------------------------------
# 10. byte-identical artifacts
# --------------------------------------------------------------------------

def check_determinism(out_dir) -> CheckResult:
    from . import cli  # late import; the verify command lives there

    def run():
        out_dir.mkdir(parents=True, exist_ok=True)
        config_path = out_dir / "verify_config.json"
        config_path.write_text(
            '{"n_users": 500, "seed": 11, "k": 10,\n'
            ' "corpus_overrides": {"total_range": [16000.0, 36000.0]}}\n'
        )
        mismatched = []
        produced = []
        for run_name in ("determinism_a", "determinism_b"):
            run_dir = out_dir / run_name
            run_dir.mkdir(parents=True, exist_ok=True)
            for argv in (
                ["datagen", "--out", str(run_dir)],
                ["price", "--corpus", str(run_dir / "corpus.csv"), "--out", str(run_dir)],
                ["cluster", "--corpus", str(run_dir / "corpus.csv"),
                 "--method", "profile", "--out", str(run_dir)],
                ["cluster", "--corpus", str(run_dir / "corpus.csv"),
                 "--method", "gkc", "--out", str(run_dir)],
                ["cluster", "--corpus", str(run_dir / "corpus.csv"),
                 "--method", "skc", "--out", str(run_dir)],
                ["vulnerability", "--corpus", str(run_dir / "corpus.csv"),
                 "--clustering", str(run_dir / "clustering_profile.json"),
                 "--out", str(run_dir)],
                ["sensitivity", "--corpus", str(run_dir / "corpus.csv"),
                 "--out", str(run_dir)],
                ["diversity", "--corpus", str(run_dir / "corpus.csv"),
                 "--clustering", str(run_dir / "clustering_gkc.json"),
                 "--drill", "0", "--out", str(run_dir)],
            ):
                code = cli.main(argv + ["--config", str(config_path)])
                if code != 0:
                    raise RuntimeError(f"command {argv[0]} exited {code}")
        dir_a = out_dir / "determinism_a"
        dir_b = out_dir / "determinism_b"
        for path_a in sorted(dir_a.iterdir()):
            if path_a.name.startswith("meta_"):
                continue  # timings live here by design
            produced.append(path_a.name)
            path_b = dir_b / path_a.name
            if not path_b.exists() or not filecmp.cmp(path_a, path_b, shallow=False):
                mismatched.append(path_a.name)
        return produced, mismatched

    (produced, mismatched), elapsed = _timed(run)
    passed = bool(produced) and not mismatched
    return CheckResult(
        10, "pipeline artifacts byte-identical across repeated runs",
        passed,
        f"{len(produced)} artifacts compared, mismatches: {mismatched or 'none'}",
        elapsed,
    )


ALL_CHECKS = [
    check_billing_identity,
    check_greedy_optimality,
    check_band_criterion,
    check_gap_guarantee,
    check_switch_effort_oracle,
    check_refine_vs_greedy,
    check_sensitivity,
    check_vulnerability_monotonicity,
    check_scaling,
]


def run_all(out_dir=None, emit=print) -> list[CheckResult]:
    """Run every acceptance criterion; returns the result list."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if emit:
            emit(result.line())
    out_dir = Path(out_dir) if out_dir is not None else Path("acceptance_artifacts")
    result = check_determinism(Path(out_dir))
    results.append(result)
    if emit:
        emit(result.line())
    return results
