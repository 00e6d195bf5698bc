"""The benchmark's workloads: one generated corpus and a chain of CLI commands each.

Every workload draws its corpus with `datagen` from the benchmark seed and
hands the program nothing but that CSV. A corpus of n users gets the
generator's default `total_range` scaled by 1e4/n (the rule stated next to
`DEFAULT_TOTAL_RANGE` in `gridrates.profiles`), so every corpus keeps the
price curve and tariff sizes of the default 1e4-user corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_N = 10_000
# the generator's DEFAULT_TOTAL_RANGE, which is sized for DEFAULT_N users
DEFAULT_TOTAL_RANGE = (800.0, 1800.0)
RHO = 0.5


@dataclass(frozen=True)
class Workload:
    """A residential corpus of `n` users and the commands timed on it.

    Each command is the CLI argument list after the subcommand's common
    flags (`--config`, `--out`, `--corpus`), which the runner adds; `{out}`
    names the pass's output directory, where earlier commands left their
    artifacts.
    """

    name: str
    why: str
    n: int
    k: int
    commands: tuple

    def config(self, seed: int) -> dict:
        doc = {"seed": seed, "n_users": self.n, "k": self.k, "rho": RHO,
               "corpus_kind": "residential"}
        if self.n != DEFAULT_N:
            doc["corpus_overrides"] = {
                "total_range": [v * DEFAULT_N / self.n for v in DEFAULT_TOTAL_RANGE]}
        return doc

    def scaled(self, n: int) -> "Workload":
        """The same command chain on an n-user corpus (for self-tests)."""
        return replace(self, n=n)


PROFILE_AUDIT = Workload(
    name="profile-audit",
    why="loophole audit of the k-means tariff; the profile effort kernel "
        "(effort_matrix, built 3x per command) dominates",
    n=2_500, k=30,
    commands=(
        ("cluster", "--method", "profile"),
        ("vulnerability", "--clustering", "{out}/clustering_profile.json"),
        ("diversity", "--clustering", "{out}/clustering_profile.json", "--drill", "0,5"),
    ),
)

BAND_TARIFF = Workload(
    name="band-tariff",
    why="robust gkc/skc tariffs; closed-form efforts bypass the profile kernel, "
        "time goes to per-user reports and their JSON",
    n=2_500, k=30,
    commands=(
        ("cluster", "--method", "gkc"),
        ("cluster", "--method", "skc"),
        ("vulnerability", "--clustering", "{out}/clustering_skc.json"),
        ("sensitivity",),
    ),
)

CORPUS_SCALE = Workload(
    name="corpus-scale",
    why="5e4-user corpus: CSV ingest dominates every command; no k-means "
        "and no effort kernel",
    n=50_000, k=30,
    commands=(
        ("price",),
        ("cluster", "--method", "gkc"),
    ),
)

STRICT_AUDIT = Workload(
    name="strict-audit",
    why="the only workload on the pure-Python strict effort path "
        "(min_switch_effort_strict)",
    n=100, k=8,
    commands=(
        ("cluster", "--method", "profile"),
        ("vulnerability", "--clustering", "{out}/clustering_profile.json", "--strict"),
    ),
)

WORKLOADS = {w.name: w for w in (PROFILE_AUDIT, BAND_TARIFF, CORPUS_SCALE, STRICT_AUDIT)}
