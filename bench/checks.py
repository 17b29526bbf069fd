"""Checks every benchmark session must pass.

Each check returns a list of failure messages (empty when it passes), so
a session can report all that went wrong.  None compares against stored
output: values are checked against references computed from the secrets,
comparison outcomes against the sign of the operands' difference, and
costs against the hand-entered table in `asmpc.costs`.
"""

from __future__ import annotations

from asmpc.costs import expected_for_node

# The repo's documented acceptance tolerance (DEFAULT_TOLERANCE in
# tests/helpers.py), relative to max(1, |reference|).
REL_TOL = 1e-9


def check_values(revealed: dict, references: dict, comparisons: dict) -> list:
    failures = []
    for ref, want in references.items():
        if ref not in revealed:
            failures.append(f"{ref}: not revealed")
            continue
        got = revealed[ref]
        if not abs(got - want) <= REL_TOL * max(1.0, abs(want)):
            failures.append(f"{ref}: revealed {got!r}, reference {want!r}")
    for ref, want in comparisons.items():
        if ref not in revealed:
            failures.append(f"{ref}: not revealed")
        elif int(revealed[ref]) != want:
            failures.append(f"{ref}: comparison revealed {int(revealed[ref])}, "
                            f"expected {want}")
    return failures


def check_parties(out1, out2) -> list:
    failures = []
    if out1.revealed != out2.revealed:
        differ = sorted(ref for ref in set(out1.revealed) | set(out2.revealed)
                        if out1.revealed.get(ref) != out2.revealed.get(ref))
        failures.append(f"parties revealed different values for {differ[:5]}")
    if out1.transcript.canonical_bytes() != out2.transcript.canonical_bytes():
        failures.append("parties' canonical transcripts differ")
    return failures


def check_costs(plan, node_costs: dict) -> list:
    """Measured (rounds, bits) per node against `costs.expected_for_node`:
    equal, or within the bound where the table gives one (sec, csc)."""
    failures = []
    for pn in plan.nodes:
        expected = expected_for_node(pn.node)
        rounds, bits = node_costs.get(pn.node.out, (0, 0))
        if not expected.matches(rounds, bits):
            relation = "==" if expected.exact else "<="
            failures.append(
                f"{pn.node.out} ({pn.node.op}): measured ({rounds}, {bits}), "
                f"table {relation} ({expected.rounds}, {expected.bits})")
    return failures


def check_rounds(plan, rounds: int) -> list:
    if rounds != plan.steps:
        return [f"session took {rounds} rounds, plan has {plan.steps} steps"]
    return []


def check_session(workload, result) -> list:
    """All checks on one session's outcome."""
    plan, out1, out2 = result.plan, result.out1, result.out2
    return (check_values(out1.revealed, workload.references(result.secrets),
                         workload.comparisons(result.secrets))
            + check_parties(out1, out2)
            + check_costs(plan, out1.transcript.node_costs())
            + check_rounds(plan, out1.transcript.rounds))
