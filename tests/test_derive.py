"""Facts derived from the scripts against the hand-entered cost table.

`protocols.derive` counts each op's phases and triple demand from its
script; `costs.py` states the published rounds and bits independently.
Every op is planned at each input count it accepts, run once in
lockstep on exactly the dealt triples it derived, and held to both.
"""

import dataclasses

import pytest

from asmpc import MaskSource, generate_triples, stage_inputs
from asmpc.costs import expected_cost
from asmpc.engine import run_local
from asmpc.errors import PlanError
from asmpc.program import parse_program, plan
from asmpc.protocols import OP_SPECS

from helpers import BALANCED, split_records


def _options(op, n):
    """Option texts to cover for op on n inputs."""
    if op == "linear":
        return [f"coeffs=[{', '.join(['2'] * n)}], bias=0.5"]
    if op == "pow":
        return [f"exponents=[{', '.join(['2', '-1'][i % 2] for i in range(n))}]"]
    if op == "prod":
        return [f"strategy={s}" for s in ("pairwise", "power", "auto")]
    if op in ("asin", "acos", "atan"):
        return [f"order={order}" for order in (1, 2, 15)]
    if op == "pre":
        return [f"alpha=0.5, positive_domain={flag}"
                for flag in ("true", "false")]
    return [""]


def _cases():
    for op in OP_SPECS:
        for n in range(1, 9):
            for opts in _options(op, n):
                refs = ", ".join(f"x{i}" for i in range(n))
                yield op, f"f = {op}({refs}{', ' + opts if opts else ''})"


@pytest.mark.parametrize("op", sorted(OP_SPECS))
def test_derived_facts_match_the_cost_table(op):
    covered = 0
    for case_op, text in _cases():
        if case_op != op:
            continue
        try:
            plan_obj = plan(parse_program(text))
        except PlanError:
            continue  # an input count the op does not accept
        covered += 1
        (pn,) = plan_obj.nodes
        want = expected_cost(op, pn.n, pn.node.options)
        if want.exact:
            assert pn.phases == want.rounds, text
        else:
            assert pn.phases <= want.rounds, text

        masks = MaskSource(dataclasses.replace(BALANCED, seed=3))
        st1, st2 = generate_triples(len(pn.std_ids), len(pn.resh_ids), masks, 1)
        secrets = {ref: 0.5 + 0.05 * i
                   for i, ref in enumerate(plan_obj.program.inputs)}
        in1, in2 = split_records(stage_inputs(secrets, masks,
                                              plan_obj.input_kinds))
        run = run_local(plan_obj, in1, in2, st1, st2)
        rounds, bits = run.transcript.node_costs().get("f", (0, 0))
        assert rounds == pn.phases, text
        assert want.matches(rounds, bits), (text, rounds, bits)
        for store in (st1, st2):
            assert store.cursors == (len(pn.std_ids), len(pn.resh_ids)), text
    assert covered, f"no input count in 1..8 plans for {op}"


@pytest.mark.parametrize("text, phases", [
    ("f = pow(x, exponents=[2000])", 3),
    ("f = pre(x, alpha=-2000)", 4),
    ("f = exp(x, base=1e300)", 1),
])
def test_extreme_options_still_plan(text, phases):
    # The dry run's probe shares stay at 1.0, so no option overflows it.
    (pn,) = plan(parse_program(text)).nodes
    assert pn.phases == phases
