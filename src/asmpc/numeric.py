"""Scalar field, mask distributions, and tolerance knobs.

Every secret, share, and wire payload is a finite binary64 float.
Masks come from bounded symmetric intervals: additive masks uniform on
[-additive_bound, additive_bound]; multiplicative masks uniform in
magnitude on [mult_floor, mult_bound] with an equiprobable sign, so a
multiplicative mask is never zero and never so small that dividing by it
explodes.  Masking over a bounded interval is statistical, not perfect;
bounds are configurable because the useful interval depends on the value
range flowing through a given program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InvalidSecret


@dataclass(frozen=True)
class RandomnessPolicy:
    """Bounds for mask generation plus an optional seed for reproducibility.

    Defaults keep products of masked values well inside double range for
    secrets up to roughly a million.
    """

    additive_bound: float = 2.0 ** 20
    mult_bound: float = 2.0 ** 10
    mult_floor: float = 2.0 ** -10
    seed: int | None = None

    def __post_init__(self):
        if not (self.additive_bound > 0 and math.isfinite(self.additive_bound)):
            raise ValueError("additive_bound must be a positive finite real")
        if not (self.mult_bound > 0 and math.isfinite(self.mult_bound)):
            raise ValueError("mult_bound must be a positive finite real")
        if not (0 < self.mult_floor < self.mult_bound):
            raise ValueError("mult_floor must satisfy 0 < mult_floor < mult_bound")


@dataclass(frozen=True)
class TolerancePolicy:
    """Engine-wide thresholds.

    delta: comparison zero test, applied to revealed multiplicative share
    magnitudes.  zero_guard: denominators below this abort a resharing.
    oracle_rel_tol: acceptance tolerance for protocol-vs-plaintext checks.
    """

    delta: float = 1e-9
    oracle_rel_tol: float = 1e-9
    zero_guard: float = 1e-30

    def __post_init__(self):
        if not (self.delta > 0 and self.oracle_rel_tol > 0 and self.zero_guard > 0):
            raise ValueError("tolerances must be positive")
        if not self.zero_guard < self.delta:
            raise ValueError("zero_guard must be smaller than delta")


class MaskSource:
    """Stateful mask generator owned by a single party (or the dealer).

    Draws are deterministic given the policy seed; distinct owners must
    hold distinct sources.
    """

    def __init__(self, policy: RandomnessPolicy):
        self.policy = policy
        self._rng = random.Random(policy.seed)

    def additive(self) -> float:
        p = self.policy
        return self._rng.uniform(-p.additive_bound, p.additive_bound)

    def multiplicative(self) -> float:
        p = self.policy
        # Sign first, magnitude second; the draw order is part of the
        # reproducibility contract.
        sign = 1.0 if self._rng.random() < 0.5 else -1.0
        return sign * self._rng.uniform(p.mult_floor, p.mult_bound)


def ensure_finite(value: float, what: str = "value") -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidSecret(f"{what} must be finite, got {value!r}")
    return value


def arcsine_series_coefficients(terms: int) -> list[float]:
    """Coefficients c_k of the odd-power arcsine expansion
    sum_k c_k x^(2k+1), computed by an overflow-safe recurrence."""
    if terms < 1:
        raise ValueError("need at least one series term")
    coeffs = [1.0]
    for k in range(terms - 1):
        coeffs.append(coeffs[-1] * (2 * k + 1) ** 2 / ((2 * k + 2) * (2 * k + 3)))
    return coeffs
