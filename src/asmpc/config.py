"""Flat key=value config files for mask bounds and tolerances.

Recognized keys: mask.additive_bound, mask.mult_bound, mask.mult_floor,
tol.delta, tol.zero_guard.  Lines starting with # are comments.  The CLI
exposes flags of the same (dotted) names; flags win over the file.
"""

from __future__ import annotations

from .numeric import RandomnessPolicy, TolerancePolicy

CONFIG_KEYS = (
    "mask.additive_bound",
    "mask.mult_bound",
    "mask.mult_floor",
    "tol.delta",
    "tol.zero_guard",
)


def load_config_file(path) -> dict[str, float]:
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad number {text!r}")
    return values


def build_policies(values: dict[str, float], seed: int | None = None,
                   ) -> tuple[RandomnessPolicy, TolerancePolicy]:
    base_mask = RandomnessPolicy()
    base_tol = TolerancePolicy()
    mask = RandomnessPolicy(
        additive_bound=values.get("mask.additive_bound", base_mask.additive_bound),
        mult_bound=values.get("mask.mult_bound", base_mask.mult_bound),
        mult_floor=values.get("mask.mult_floor", base_mask.mult_floor),
        seed=seed,
    )
    tol = TolerancePolicy(
        delta=values.get("tol.delta", base_tol.delta),
        zero_guard=values.get("tol.zero_guard", base_tol.zero_guard),
    )
    return mask, tol
