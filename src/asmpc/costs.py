"""Published round and communication budgets for the protocol catalog.

Every expectation is computed from the formulas here, never hand-entered
per run.  `exact` distinguishes equalities from upper bounds (secant and
cosecant are published as a bound; our composition measures below it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .transport import SCALAR_BITS


@dataclass(frozen=True)
class CostExpectation:
    rounds: int
    bits: int
    exact: bool = True

    def matches(self, rounds: int, bits: int) -> bool:
        if self.exact:
            return rounds == self.rounds and bits == self.bits
        return rounds <= self.rounds and bits <= self.bits


def expected_cost(op: str, n: int, options: dict,
                  l: int = SCALAR_BITS) -> CostExpectation:
    """Expectation for an op on n inputs with the planner's resolved
    options (`order`, `positive_domain`, `strategy_resolved`)."""
    order = int(options.get("order", 15))
    positive_domain = bool(options.get("positive_domain", False))
    strategy = options.get("strategy_resolved", "pairwise")
    if op == "linear":
        return CostExpectation(0, 0)
    if op == "mul":
        return CostExpectation(1, 4 * l)
    if op == "mulres":
        return CostExpectation(1, 2 * l)
    if op == "addres":
        return CostExpectation(2, 2 * l)
    if op == "cmp":
        return CostExpectation(3, 2 * l + 2)
    if op == "exp":
        return CostExpectation(1, 2 * l)
    if op == "log":
        return CostExpectation(2, 2 * l)
    if op == "pow":
        return CostExpectation(3, (2 * n + 2) * l)
    if op == "div":
        return CostExpectation(3, 6 * l)
    if op == "prod":
        if strategy == "power":
            return CostExpectation(3, (2 * n + 2) * l)
        return CostExpectation(math.ceil(math.log2(n)), (4 * n - 4) * l)
    if op in ("sin", "cos"):
        return CostExpectation(1, 4 * l)
    if op in ("tan", "cot"):
        return CostExpectation(4, 14 * l)
    if op in ("sec", "csc"):
        return CostExpectation(4, 12 * l, exact=False)
    if op in ("asin", "acos"):
        if order < 2:
            return CostExpectation(0, 0)
        return CostExpectation(3, 4 * (order - 1) * l)
    if op == "atan":
        extra = 3 if order > 1 else 0
        return CostExpectation(5 + extra, 12 * l + 4 * (order - 1) * l)
    if op == "pre":
        if positive_domain:
            return CostExpectation(3, 4 * l)
        return CostExpectation(4, 4 * l + 2)
    if op == "pse":
        return CostExpectation(5, 8 * l + 2)
    raise KeyError(f"no cost expectation for op {op!r}")


def expected_for_node(node, l: int = SCALAR_BITS) -> CostExpectation:
    """Expectation for a resolved plan node."""
    return expected_cost(node.op, len(node.args), node.options, l)
