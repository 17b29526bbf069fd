import dataclasses
import threading
from pathlib import Path

import pytest

import asmpc.program
from asmpc import (
    MaskSource,
    RandomnessPolicy,
    generate_triples,
    make_inproc_pair,
    stage_inputs,
)
from asmpc.engine import (
    PartyContext,
    execute,
    inputs_from_records,
    run_local,
    run_over_channels,
)
from asmpc.errors import (
    NearZeroDenominator,
    PlanError,
    ProtocolDesync,
    TripleExhausted,
)
from asmpc.program import load_program, parse_program, plan
from asmpc.protocols import OP_SPECS, Step, Value
from asmpc.transport import Channel, Frame, Tag, tcp_connect, tcp_listen_ephemeral

from helpers import BALANCED, catalog_run, crafted_resharing_store, plan_for, split_records

DEMO = (
    "p = mul(x, y)\n"
    "q = div(p, y)\n"
    "r = sin(p)\n"
    "s = linear(p, q, coeffs=[1, -1], bias=0.5)\n"
    "c = cmp(s, x)\n"
)

SECRETS = dict(x=1.5, y=2.0)


def _stage(seed=77, counts=None, plan_obj=None):
    plan_obj = plan_obj or plan_for(DEMO)
    masks = MaskSource(RandomnessPolicy(
        additive_bound=BALANCED.additive_bound,
        mult_bound=BALANCED.mult_bound,
        mult_floor=BALANCED.mult_floor, seed=seed))
    st1, st2 = generate_triples(plan_obj.standard_count,
                                plan_obj.resharing_count, masks, 1)
    in1, in2 = split_records(stage_inputs(SECRETS, masks))
    return plan_obj, in1, in2, st1, st2


def test_lockstep_matches_plan_steps():
    plan_obj, in1, in2, st1, st2 = _stage()
    run = run_local(plan_obj, in1, in2, st1, st2)
    assert run.transcript.rounds == plan_obj.steps
    assert run.reveal("p") == pytest.approx(3.0, rel=1e-9)
    assert run.reveal("q") == pytest.approx(1.5, rel=1e-9)


def test_empty_program_runs_no_frames():
    plan_obj = plan_for("f = linear(x, coeffs=[2], bias=0)")
    masks = MaskSource(BALANCED)
    st1, st2 = generate_triples(0, 0, masks, 1)
    run = run_local(plan_obj, {"x": Value("A", 1.0)}, {"x": Value("A", 1.5)},
                    st1, st2)
    assert run.transcript.rounds == 0
    assert run.transcript.entries == []
    assert run.reveal("f") == 5.0


def test_missing_input_is_a_plan_error():
    plan_obj, in1, in2, st1, st2 = _stage()
    del in1["x"]
    with pytest.raises(PlanError):
        run_local(plan_obj, in1, in2, st1, st2)


def test_wrong_kind_input_is_a_plan_error():
    plan_obj, in1, in2, st1, st2 = _stage()
    in1["x"] = Value("M", in1["x"].value)
    with pytest.raises(PlanError):
        run_local(plan_obj, in1, in2, st1, st2)


def test_triple_exhaustion_propagates():
    plan_obj, in1, in2, st1, st2 = _stage()
    st1.standard.clear()
    with pytest.raises(TripleExhausted):
        run_local(plan_obj, in1, in2, st1, st2)


def test_channel_run_matches_lockstep_transcript():
    plan_obj, in1, in2, st1, st2 = _stage(seed=101)
    local = run_local(plan_obj, in1, in2, st1, st2)

    plan_obj, in1, in2, st1, st2 = _stage(seed=101)
    ch1, ch2 = make_inproc_pair()
    out1, out2 = run_over_channels(plan_obj, in1, in2, st1, st2, ch1, ch2)
    assert out1.transcript.canonical_bytes() == out2.transcript.canonical_bytes()
    assert out1.transcript.canonical_bytes() == local.transcript.canonical_bytes()


def test_tcp_run_matches_inproc_transcript():
    plan_obj, in1, in2, st1, st2 = _stage(seed=202)
    ch1, ch2 = make_inproc_pair()
    inproc1, _ = run_over_channels(plan_obj, in1, in2, st1, st2, ch1, ch2)

    plan_obj, in1, in2, st1, st2 = _stage(seed=202)
    port, accept = tcp_listen_ephemeral("127.0.0.1", 1)
    holder = {}

    def serve():
        holder["ch"] = accept()

    t = threading.Thread(target=serve)
    t.start()
    client = tcp_connect("127.0.0.1", port, 1, timeout=5.0)
    t.join()
    tcp1, tcp2 = run_over_channels(plan_obj, in1, in2, st1, st2,
                                   holder["ch"], client)
    assert tcp1.transcript.canonical_bytes() == inproc1.transcript.canonical_bytes()
    assert tcp1.transcript.account() == tcp2.transcript.account()


def test_fixed_seeds_give_bit_identical_runs():
    first = run_local(*_stage(seed=55))
    second = run_local(*_stage(seed=55))
    assert first.transcript.canonical_bytes() == second.transcript.canonical_bytes()
    assert {k: v.value for k, v in first.env_p1.items()} == \
        {k: v.value for k, v in second.env_p1.items()}


def test_reveal_over_channels():
    plan_obj, in1, in2, st1, st2 = _stage(seed=303)
    ch1, ch2 = make_inproc_pair()
    out1, out2 = run_over_channels(plan_obj, in1, in2, st1, st2, ch1, ch2,
                                   reveal=("p", "c"))
    assert out1.revealed["p"] == pytest.approx(3.0, rel=1e-9)
    assert out2.revealed["p"] == pytest.approx(3.0, rel=1e-9)
    assert out1.revealed["c"] == out2.revealed["c"]
    # Reveal traffic must not change the protocol accounting.
    assert out1.transcript.account() == \
        run_local(*_stage(seed=303)).transcript.account()
    share_frames = [e for e in out1.transcript.entries if e.tag is Tag.SHARE]
    assert len(share_frames) == 2  # p from each party; c is already public
    # A lockstep run reveals through the same exchange.
    local = run_local(*_stage(seed=303), reveal=("p", "c"))
    assert local.transcript.canonical_bytes() == out1.transcript.canonical_bytes()
    assert local.revealed == out1.revealed


def test_mismatched_programs_desync_at_hello():
    plan_a = plan_for("f = mul(x, y)")
    plan_b = plan_for("f = mul(y, x)")
    masks = MaskSource(BALANCED)
    st1, st2 = generate_triples(1, 0, masks, 1)
    in1, in2 = split_records(stage_inputs(dict(x=1.0, y=2.0), masks))
    ch1, ch2 = make_inproc_pair()
    errors = {}

    def party(plan_obj, pid, channel, inputs, store):
        try:
            execute(plan_obj, PartyContext(pid, store), inputs, channel)
        except Exception as exc:  # noqa: BLE001
            errors[pid] = exc
        finally:
            channel.close()

    t1 = threading.Thread(target=party, args=(plan_a, 1, ch1, in1, st1))
    t2 = threading.Thread(target=party, args=(plan_b, 2, ch2, in2, st2))
    t1.start(); t2.start(); t1.join(); t2.join()
    assert isinstance(errors[1], ProtocolDesync)
    assert isinstance(errors[2], ProtocolDesync)


def test_abort_reaches_the_peer_over_channels():
    st1, st2 = crafted_resharing_store(a=1.0, b=-2.0, c1=0.0, c2=-2.0)
    plan_obj = plan_for("u = addres(x)")
    ch1, ch2 = make_inproc_pair()
    with pytest.raises(NearZeroDenominator):
        run_over_channels(plan_obj, {"x": Value("A", 2.0)},
                          {"x": Value("A", 1.0)}, st1, st2, ch1, ch2)


def test_peer_abort_arrives_before_the_rest_of_a_step():
    # Party 1 waits on party 2's step-1 frame; party 2 fails before
    # sending it, so its abort frame comes in its place and then the
    # channel closes.
    plan_obj, in1, in2, st1, st2 = _stage()
    del in2["x"]
    ch1, ch2 = make_inproc_pair()
    with pytest.raises(PlanError):
        run_over_channels(plan_obj, in1, in2, st1, st2, ch1, ch2)


@pytest.mark.parametrize("hello", [
    b"hello:{", b"hello:{}", b"hello:[]",
    pytest.param(b"hello:" + b"[" * 100_000, id="deeply-nested")])
def test_malformed_hello_desyncs(hello):
    plan_obj, in1, _, st1, _ = _stage()
    ch1, peer = make_inproc_pair()
    peer.send(Frame(1, 0, Tag.CONTROL, hello))
    with pytest.raises(ProtocolDesync):
        execute(plan_obj, PartyContext(1, st1), in1, ch1)


class CountingChannel(Channel):
    def __init__(self, inner):
        self.inner, self.sent = inner, 0

    def send(self, frame):
        self.sent += 1
        self.inner.send(frame)

    def recv(self):
        return self.inner.recv()

    def close(self):
        self.inner.close()


def test_each_party_sends_one_frame_per_step():
    demo = Path(__file__).resolve().parents[1] / "programs" / "demo.prog"
    plan_obj = plan(load_program(demo))
    ch1, ch2 = (CountingChannel(ch) for ch in make_inproc_pair())
    out1, _ = run_over_channels(*_stage(plan_obj=plan_obj), ch1, ch2,
                                reveal=("q", "t", "h", "z", "f"))
    assert out1.transcript.rounds == plan_obj.steps
    # The hello, one frame per step and the reveal frame.
    assert ch1.sent == ch2.sent == 1 + plan_obj.steps + 1


def test_inputs_from_records():
    masks = MaskSource(BALANCED)
    records = stage_inputs({"x": 2.0}, masks)
    env = inputs_from_records(records, 1)
    assert set(env) == {"x"}
    assert env["x"].kind == "A"


def test_parallel_nodes_share_rounds_end_to_end():
    run, plan_obj = catalog_run("f = mul(x, y)\ng = mul(z, w)",
                                dict(x=1.0, y=2.0, z=3.0, w=4.0))
    assert plan_obj.steps == 1
    assert run.transcript.rounds == 1
    assert run.reveal("f") == pytest.approx(2.0, rel=1e-9)
    assert run.reveal("g") == pytest.approx(12.0, rel=1e-9)


# --- desync checks -----------------------------------------------------------
# Each case makes the plan and the script disagree, by planning a wrong
# phase count or by swapping a catalog entry's script; plans are made
# here, not with the cached plan_for.

def _respec(monkeypatch, op, **changes):
    monkeypatch.setitem(OP_SPECS, op, dataclasses.replace(OP_SPECS[op], **changes))
    return plan(parse_program(f"f = {op}(x, y)"))


def _misplan(monkeypatch, op, phases):
    derived = asmpc.program.derive
    monkeypatch.setattr(asmpc.program, "derive",
                        lambda node: (phases,) + derived(node)[1:])
    return plan(parse_program(f"f = {op}(x, y)"))


PHASE_MISMATCHES = [
    ("mul", 0),  # a local-only node that communicates
    ("div", 2),  # a script that yields past its planned phases
    ("mul", 2),  # a script that stops before its planned phases
]


@pytest.mark.parametrize("op, phases", PHASE_MISMATCHES)
def test_planned_phase_mismatch_desyncs_lockstep(monkeypatch, op, phases):
    plan_obj = _misplan(monkeypatch, op, phases)
    with pytest.raises(ProtocolDesync):
        run_local(*_stage(plan_obj=plan_obj))


@pytest.mark.parametrize("op, phases", PHASE_MISMATCHES)
def test_planned_phase_mismatch_desyncs_over_channels(monkeypatch, op, phases):
    plan_obj = _misplan(monkeypatch, op, phases)
    ch1, ch2 = make_inproc_pair()
    with pytest.raises(ProtocolDesync):
        run_over_channels(*_stage(plan_obj=plan_obj), ch1, ch2)


def test_frame_count_mismatch_desyncs_lockstep(monkeypatch):
    def lopsided(party, node, values, tol, std, resh):
        if party == 1:
            yield Step(((Tag.D, 1.0),), ())
        else:
            yield Step((), (Tag.D, Tag.D))
        return 0.0

    plan_obj = _respec(monkeypatch, "mul", build=lopsided)
    with pytest.raises(ProtocolDesync):
        run_local(*_stage(plan_obj=plan_obj))
