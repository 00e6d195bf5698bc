"""Quadratic system cost model, marginal-cost prices, and per-user rate impact.

The operator's cost of serving total load L at one slot is
C(L) = a/2 * L**2 + b*L + c, so the marginal price is p = a*L + b.
A user's marginal cost impact (its rate) is the price-weighted average of
its normalized consumption: rate = sum_t p[t]*l[t] / sum_t l[t].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PriceWarning, ZeroProfile

#: default relative tolerance for floating-point identity checks
REL_TOL = 1e-9


@dataclass(frozen=True)
class CostModel:
    """Quadratic acquisition-cost coefficients (a: curvature, b: linear, c: fixed)."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"cost curvature a must be > 0, got {self.a}")
        if self.c < 0:
            raise ValueError(f"fixed cost c must be >= 0, got {self.c}")


@dataclass(frozen=True)
class SystemLoad:
    """Total consumption per slot over one pricing horizon."""

    loads: np.ndarray

    def __post_init__(self):
        loads = np.asarray(self.loads, dtype=float)
        if loads.ndim != 1 or loads.size < 1:
            raise ValueError("loads must be a non-empty 1-D vector")
        if np.any(loads < 0):
            raise ValueError("slot loads must be non-negative")
        object.__setattr__(self, "loads", loads)


@dataclass(frozen=True)
class PriceCurve:
    """Per-slot marginal price over one horizon."""

    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1 or prices.size < 1:
            raise ValueError("prices must be a non-empty 1-D vector")
        object.__setattr__(self, "prices", prices)


def total_cost(model: CostModel, load: SystemLoad) -> float:
    """Operator's total cost over the horizon, sum_t C(L_t)."""
    loads = load.loads
    return float(np.sum(0.5 * model.a * loads**2 + model.b * loads + model.c))


def price_curve(model: CostModel, load: SystemLoad) -> PriceCurve:
    """Marginal price per slot, p_t = a*L_t + b.

    Non-positive prices are possible for small loads when b < 0; they are
    reported with a warning but kept, since every downstream formula stays
    well defined.
    """
    prices = model.a * load.loads + model.b
    n_bad = int(np.sum(prices <= 0))
    if n_bad:
        warnings.warn(
            f"{n_bad} of {prices.size} slot prices are <= 0 "
            f"(min {prices.min():.6g}); check load scale vs. cost coefficients",
            PriceWarning,
            stacklevel=2,
        )
    return PriceCurve(prices)


def mci(prices: PriceCurve, profile) -> float:
    """Marginal cost impact: the user's load-share-weighted average price.

    rate = sum_t p_t * l_t / ||l||_1. Scale-invariant in the profile, and
    always between min(p) and max(p). The pipeline rates users with
    `mci_matrix`; this one-profile form is the reference it is tested against.
    """
    p = prices.prices if isinstance(prices, PriceCurve) else np.asarray(prices, float)
    l = np.asarray(profile, dtype=float)
    if l.shape != p.shape:
        raise ValueError(f"profile has {l.size} slots, price curve has {p.size}")
    total = l.sum()
    if total <= 0:
        raise ZeroProfile("profile has zero total consumption; rate undefined")
    return float(np.dot(p, l) / total)


def mci_matrix(prices: PriceCurve, consumption: np.ndarray) -> np.ndarray:
    """Vectorized `mci` over an (N, T) consumption matrix."""
    p = prices.prices if isinstance(prices, PriceCurve) else np.asarray(prices, float)
    consumption = np.asarray(consumption, dtype=float)
    totals = consumption.sum(axis=1)
    if np.any(totals <= 0):
        bad = int(np.argmax(totals <= 0))
        raise ZeroProfile(f"profile at row {bad} has zero total consumption")
    return consumption @ p / totals


def billing_identity_check(prices: PriceCurve, profile, rel_tol: float = REL_TOL) -> bool:
    """Check that rate * total consumption reproduces the marginal-cost bill.

    The identity is algebraic, so this should hold for every valid input up
    to floating-point rounding.
    """
    p = prices.prices if isinstance(prices, PriceCurve) else np.asarray(prices, float)
    l = np.asarray(profile, dtype=float)
    bill = float(np.dot(p, l))
    recovered = mci(prices, profile) * l.sum()
    return abs(recovered - bill) <= rel_tol * (1.0 + abs(bill))
