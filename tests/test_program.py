import math

import pytest

from asmpc.errors import InvalidBase, PlanError
from asmpc.program import parse_program, plan


def test_parse_basics():
    program = parse_program(
        "# demo\n"
        "f = mul(x, y)\n"
        "\n"
        "g = pow(f, exponents=[2])  # square it\n"
    )
    assert [n.op for n in program.nodes] == ["mul", "pow"]
    assert program.nodes[0].args == ("x", "y")
    assert program.nodes[1].options == {"exponents": [2]}
    assert program.inputs == ["x", "y"]
    # First-use order, each input once, whatever the order of later uses.
    program = parse_program("f = mul(y, x)\ng = mul(x, z)\nh = mul(f, y)")
    assert program.inputs == ["y", "x", "z"]


def test_parse_constants_and_values():
    program = parse_program(
        "a = exp(x, base=e)\n"
        "b = linear(x, coeffs=[-1.5], bias=pi)\n"
        "c = prod(x, y, strategy=power)\n"
        "d = pre(x, alpha=0.5, positive_domain=true)\n")
    assert program.nodes[0].options["base"] == math.e
    assert program.nodes[1].options["bias"] == math.pi
    assert program.nodes[2].options["strategy"] == "power"
    assert program.nodes[3].options["positive_domain"] is True


@pytest.mark.parametrize("text", [
    "f = mul(x y)",                  # missing comma separa
    "f == mul(x, y)",
    "f = mul(x, y",
    "f = mul(x, y, exponents=[1,)",
    "f = mul(x, y)\nf = mul(x, y)",  # duplicate out
    "g = mul(f, f)\nf = mul(x, y)",  # ref used before defined, then redefined
    "f = mul(2x, y)",
])
def test_parse_errors(text):
    with pytest.raises(PlanError):
        parse_program(text)


def test_plan_single_mul():
    p = plan(parse_program("f = mul(x, y)"))
    assert (p.steps, p.standard_count, p.resharing_count) == (1, 1, 0)


def test_plan_sin_parallel_reshares():
    p = plan(parse_program("f = sin(x)"))
    assert (p.steps, p.standard_count, p.resharing_count) == (1, 0, 2)


def test_plan_pow_three_inputs():
    p = plan(parse_program("f = pow(x, y, z, exponents=[1, 1, 1])"))
    assert (p.steps, p.standard_count, p.resharing_count) == (3, 0, 4)


def test_independent_nodes_share_steps():
    p = plan(parse_program("f = mul(x, y)\ng = mul(z, w)"))
    assert p.steps == 1
    assert p.nodes[0].start == p.nodes[1].start == 1


def test_dependent_nodes_stack_steps():
    p = plan(parse_program("f = mul(x, y)\ng = div(f, z)\nh = cmp(g, x)"))
    assert [(pn.start, pn.end) for pn in p.nodes] == [(1, 1), (2, 4), (5, 7)]
    assert p.steps == 7


def test_local_nodes_occupy_no_steps():
    p = plan(parse_program("f = linear(x, coeffs=[2], bias=0)\ng = mul(f, x)"))
    assert p.nodes[0].phases == 0
    assert p.nodes[1].start == 1
    assert p.steps == 1


def test_triple_ids_assigned_in_order():
    p = plan(parse_program("f = mul(x, y)\ng = sin(x)\nh = mul(f, g)"))
    assert p.nodes[0].std_ids == (0,)
    assert p.nodes[1].resh_ids == (0, 1)
    assert p.nodes[2].std_ids == (1,)


def test_kind_inference_for_mulres():
    p = plan(parse_program("f = mulres(u)"))
    assert p.input_kinds == {"u": "M"}


def test_kind_conflict_rejected():
    with pytest.raises(PlanError):
        plan(parse_program("f = mulres(u)\ng = mul(u, u)"))


def test_addres_output_feeds_mulres():
    p = plan(parse_program("u = addres(x)\nf = mulres(u)"))
    assert p.input_kinds == {"x": "A"}
    assert p.steps == 3


def test_public_outcome_cannot_feed_arithmetic():
    with pytest.raises(PlanError):
        plan(parse_program("c = cmp(x, y)\nf = mul(c, x)"))


def test_unsupported_op():
    with pytest.raises(PlanError):
        plan(parse_program("f = frobnicate(x)"))


@pytest.mark.parametrize("text,error", [
    ("f = pow(x, exponents=[0.5])", PlanError),
    ("f = pow(x, y, exponents=[1])", PlanError),
    ("f = linear(x, coeffs=[1, 2])", PlanError),
    ("f = exp(x, base=-2)", InvalidBase),
    ("f = log(x, base=1)", InvalidBase),
    ("f = prod(x)", PlanError),
    ("f = asin(x, order=0)", PlanError),
    ("f = pre(x)", PlanError),
    ("f = mul(x, y, base=2)", PlanError),
])
def test_op_validation(text, error):
    with pytest.raises(error):
        plan(parse_program(text))


def test_product_strategy_resolution():
    rounds3 = plan(parse_program("f = prod(a, b, c)"), optimize="rounds")
    comm3 = plan(parse_program("f = prod(a, b, c)"), optimize="comm")
    assert rounds3.nodes[0].node.options["strategy_resolved"] == "pairwise"
    assert comm3.nodes[0].node.options["strategy_resolved"] == "power"
    eight = "f = prod(a, b, c, d, e2, f2, g2, h2)"
    assert plan(parse_program(eight)).nodes[0].node.options[
        "strategy_resolved"] == "power"


def test_digest_tracks_program_and_mode():
    p1 = plan(parse_program("f = mul(x, y)"))
    p2 = plan(parse_program("f = mul(x, z)"))
    p3 = plan(parse_program("f = prod(x, y, z)"), optimize="rounds")
    p4 = plan(parse_program("f = prod(x, y, z)"), optimize="comm")
    assert p1.digest() != p2.digest()
    assert p3.digest() != p4.digest()
    assert p1.digest() == plan(parse_program("f = mul(x, y)")).digest()
