"""Two-party execution runtime.

`_party` is everything one party does in a session, written without I/O:
it exchanges and checks the session hello, schedules the plan's nodes
through `protocols.parallel` (each node starts at its planned step, and
independent nodes share steps), checks and logs every frame, and runs
the reveal exchange.  It yields (frames to send, number of frames to
receive) and is sent the frames received.  Two drivers pump it: `execute`
over a channel, one `send` or `recv` per frame, and `run_local`, which
pumps both parties' cores in lockstep inside one call (tests, bulk
checks).  `run_over_channels` runs both ends of a channel pair on
threads.

All online randomness is pre-staged (input shares and dealer triples),
so a fixed staging yields bit-identical transcripts on every run.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from .dealer import TripleStore
from .errors import MpcError, PlanError, ProtocolDesync, error_by_name
from .numeric import TolerancePolicy
from .program import Plan
from .protocols import KIND_PUBLIC, OP_SPECS, Step, Value, parallel
from .sharing import KIND_ADDITIVE, KIND_MULTIPLICATIVE
from .transport import (
    Channel,
    Frame,
    SCALAR_TAGS,
    SessionTranscript,
    Tag,
    encode_payload,
)


@dataclass
class PartyContext:
    party: int
    store: TripleStore
    tol: TolerancePolicy = field(default_factory=TolerancePolicy)
    session_id: int = 1


def inputs_from_records(records, party: int) -> dict[str, Value]:
    env = {}
    for rec in records:
        if rec.party == party:
            env[rec.ref] = Value(rec.kind, rec.value)
    return env


def _open(mine: Value, theirs: float | None) -> float:
    """A revealed value from this party's share and the peer's."""
    if mine.kind == KIND_PUBLIC:
        return mine.value
    if mine.kind == KIND_ADDITIVE:
        return mine.value + theirs
    if mine.kind == KIND_MULTIPLICATIVE:
        return mine.value * theirs
    raise ProtocolDesync(f"cannot combine kind {mine.kind}")


# --- the session core --------------------------------------------------------

def _node(pn, party: int, env: dict, tol: TolerancePolicy, std, resh):
    """One plan node as a script for `parallel`.

    Builds the op's script on first advance, so it reads its inputs only
    after its dependencies have settled, tags its frames with the node's
    output ref, holds it to its planned phases and writes its result
    into `env`.
    """
    spec = OP_SPECS[pn.node.op]
    out = pn.node.out
    script = spec.build(party, pn.node, env, tol, std, resh)
    got = None
    for _ in range(pn.phases):
        try:
            step = script.send(got)
        except StopIteration:
            raise ProtocolDesync(
                f"node {out} stopped before its planned phases") from None
        got = yield Step([(out, tag, value) for tag, value in step.sends],
                         [(out, tag) for tag in step.expects])
    try:
        script.send(got)
    except StopIteration as fin:
        env[out] = Value(spec.output_kind, fin.value)
        return
    raise ProtocolDesync(
        f"node {out} yielded past its planned {pn.phases} phases")


def _check_hello(mine: dict, frame: Frame, ctx: PartyContext) -> None:
    if frame.tag is not Tag.CONTROL or not frame.payload.startswith(b"hello:"):
        raise ProtocolDesync("expected session hello")
    theirs = json.loads(frame.payload[len(b"hello:"):].decode("ascii"))
    if theirs["party"] != 3 - ctx.party:
        raise ProtocolDesync(f"peer claims party {theirs['party']}")
    if theirs["digest"] != mine["digest"]:
        raise ProtocolDesync("parties plan different programs")
    if theirs["reveal"] != mine["reveal"]:
        raise ProtocolDesync("parties disagree on reveal set")
    if theirs["cursors"] != mine["cursors"]:
        raise ProtocolDesync(
            f"triple cursors diverge: {mine['cursors']} vs {theirs['cursors']}")


def _raise_if_abort(frame: Frame) -> None:
    """Turn a peer's abort frame into the error it reported."""
    if frame.tag is Tag.CONTROL and frame.payload.startswith(b"abort:"):
        text = frame.payload[len(b"abort:"):].decode("utf-8", "replace")
        name, _, message = text.partition(":")
        raise error_by_name(name)(f"peer aborted: {message}")


def _accept(frame: Frame, sid: int, step: int, node: str, tag: Tag) -> None:
    _raise_if_abort(frame)
    if frame.session_id != sid:
        raise ProtocolDesync(f"session {frame.session_id} != {sid}")
    if frame.step != step or frame.tag is not tag:
        raise ProtocolDesync(
            f"expected {tag.name}@{step} for {node}, got "
            f"{frame.tag.name}@{frame.step}")


def _exchange(ctx: PartyContext, step: int, merged: Step,
              transcript: SessionTranscript):
    """Send one step's tagged frames and return the values received for
    its expected ones, checking and logging every frame."""
    sid, me = ctx.session_id, ctx.party
    frames = []
    for node, tag, value in merged.sends:
        payload = encode_payload(tag, value)
        frames.append(Frame(sid, step, tag, payload))
        transcript.log(step, me, node, tag, payload)
    received = yield frames, len(merged.expects)
    values = []
    for frame, (node, tag) in zip(received, merged.expects):
        _accept(frame, sid, step, node, tag)
        transcript.log(step, 3 - me, node, tag, frame.payload)
        values.append(frame.scalar() if tag in SCALAR_TAGS else frame.sign())
    return values


def _schedule(plan: Plan, inputs: dict, ctx: PartyContext):
    """Check the staged inputs, draw every node's triples and return
    (env, the plan's nodes merged by `parallel`)."""
    env: dict[str, Value] = dict(inputs)
    for ref, kind in plan.input_kinds.items():
        if ref not in env:
            raise PlanError(
                f"missing program input {ref!r} for party {ctx.party}")
        if env[ref].kind != kind:
            raise PlanError(
                f"input {ref!r} staged as {env[ref].kind}, program needs {kind}")
    nodes, starts = [], []
    for pn in plan.nodes:
        std = [ctx.store.next_standard() for _ in pn.std_ids]
        resh = [ctx.store.next_resharing() for _ in pn.resh_ids]
        for kind, slots, wants in (("standard", std, pn.std_ids),
                                   ("resharing", resh, pn.resh_ids)):
            for slot, want in zip(slots, wants):
                if slot.triple_id != want:
                    raise ProtocolDesync(
                        f"{kind} triple id {slot.triple_id} != planned {want}; "
                        "stores out of sync with the plan")
        nodes.append(_node(pn, ctx.party, env, ctx.tol, std, resh))
        # A local node settles right after the step its inputs end in.
        starts.append(pn.start + 1 if pn.phases == 0 else pn.start)
    return env, parallel(nodes, starts)


def _party(plan: Plan, ctx: PartyContext, inputs: dict, reveal: tuple,
           transcript: SessionTranscript):
    """One party's session: hello, the plan's steps, then the reveal.

    Yields (frames to send, number of frames to receive), is sent the
    received frames and returns (env, revealed).  An `MpcError` raised
    between the hello and the reveal, or thrown in there by the driver,
    leaves with `notify_peer` set: the peer is still waiting on frames.
    """
    reveal = sorted(reveal)
    hello = {"party": ctx.party, "digest": plan.digest().hex(),
             "reveal": reveal, "cursors": list(ctx.store.cursors)}
    payload = b"hello:" + json.dumps(hello, sort_keys=True).encode("ascii")
    (first,) = yield [Frame(ctx.session_id, 0, Tag.CONTROL, payload)], 1
    _raise_if_abort(first)
    _check_hello(hello, first, ctx)

    try:
        env, schedule = _schedule(plan, inputs, ctx)
        values, step = None, 0
        while True:
            try:
                merged = schedule.send(values)
            except StopIteration:
                break
            step += 1
            values = yield from _exchange(ctx, step, merged, transcript)
    except MpcError as err:
        err.notify_peer = True
        raise

    if not reveal:
        return env, {}
    for ref in reveal:
        if ref not in env:
            raise PlanError(f"cannot reveal unknown ref {ref!r}")
    shared = [ref for ref in reveal if env[ref].kind != KIND_PUBLIC]
    shares = Step([(ref, Tag.SHARE, env[ref].value) for ref in shared],
                  [(ref, Tag.SHARE) for ref in shared])
    theirs = yield from _exchange(ctx, plan.steps + 1, shares, transcript)
    theirs = dict(zip(shared, theirs))
    return env, {ref: _open(env[ref], theirs.get(ref)) for ref in reveal}


def _resume(core, received):
    """Advance a core: ((frames, count), None), or (None, its result)."""
    try:
        return core.send(received), None
    except StopIteration as fin:
        return None, fin.value


# --- lockstep driver ---------------------------------------------------------

@dataclass
class LocalRun:
    env_p1: dict
    env_p2: dict
    transcript: SessionTranscript
    revealed: dict

    def reveal(self, ref: str) -> float:
        return _open(self.env_p1[ref], self.env_p2[ref].value)


def run_local(plan: Plan, inputs_p1: dict, inputs_p2: dict,
              store_p1: TripleStore, store_p2: TripleStore,
              tol: TolerancePolicy | None = None, session_id: int = 1,
              reveal: tuple = ()) -> LocalRun:
    """Drive both parties in lockstep inside one call.

    Each exchange hands one core's frames to the other; the cores do all
    frame checks and logging, as in a channel session.  The transcript is
    party 1's.
    """
    tol = tol or TolerancePolicy()
    transcript = SessionTranscript(session_id)
    core1 = _party(plan, PartyContext(1, store_p1, tol, session_id),
                   inputs_p1, reveal, transcript)
    core2 = _party(plan, PartyContext(2, store_p2, tol, session_id),
                   inputs_p2, reveal, SessionTranscript(session_id))
    (x1, done1), (x2, done2) = _resume(core1, None), _resume(core2, None)
    while x1 is not None or x2 is not None:
        if x1 is None or x2 is None:
            raise ProtocolDesync("parties disagree on session length")
        (sent1, want1), (sent2, want2) = x1, x2
        for want, sent in ((want1, sent2), (want2, sent1)):
            if want != len(sent):
                raise ProtocolDesync(
                    f"expected {want} frames, peer sent {len(sent)}")
        (x1, done1), (x2, done2) = _resume(core1, sent2), _resume(core2, sent1)
    (env1, revealed), (env2, _) = done1, done2
    return LocalRun(env1, env2, transcript, revealed)


# --- channel driver ----------------------------------------------------------

@dataclass
class RunOutcome:
    party: int
    env: dict
    revealed: dict
    transcript: SessionTranscript
    duration: float


def execute(plan: Plan, ctx: PartyContext, inputs: dict, channel: Channel,
            reveal: tuple = (), transcript: SessionTranscript | None = None,
            ) -> RunOutcome:
    """Run one party of a session over a channel."""
    started = time.perf_counter()
    transcript = transcript or SessionTranscript(ctx.session_id)
    core = _party(plan, ctx, inputs, reveal, transcript)
    try:
        exchange, result = _resume(core, None)
        while exchange is not None:
            frames, count = exchange
            try:
                for frame in frames:
                    channel.send(frame)
                received = []
                for _ in range(count):
                    received.append(channel.recv())
                    if received[-1].tag is Tag.CONTROL:
                        break  # the core turns a peer's abort into its error
            except MpcError as err:
                core.throw(err)  # re-raised, marked if the peer waits on us
            exchange, result = _resume(core, received)
    except MpcError as err:
        if getattr(err, "notify_peer", False):
            abort = f"abort:{type(err).__name__}:{err}".encode("utf-8", "replace")
            try:
                channel.send(Frame(ctx.session_id, 0, Tag.CONTROL, abort))
            except MpcError:
                pass  # the error to report is the one that stopped us
        raise
    env, revealed = result
    return RunOutcome(ctx.party, env, revealed, transcript,
                      time.perf_counter() - started)


def run_over_channels(plan: Plan, inputs_p1: dict, inputs_p2: dict,
                      store_p1: TripleStore, store_p2: TripleStore,
                      channel_p1: Channel, channel_p2: Channel,
                      tol: TolerancePolicy | None = None, session_id: int = 1,
                      reveal: tuple = ()) -> tuple[RunOutcome, RunOutcome]:
    """Run both parties over a channel pair, one thread per party."""
    tol = tol or TolerancePolicy()
    outcomes: dict[int, RunOutcome] = {}
    failures: dict[int, BaseException] = {}

    def work(party, channel, inputs, store):
        ctx = PartyContext(party, store, tol, session_id)
        try:
            outcomes[party] = execute(plan, ctx, inputs, channel, reveal=reveal)
        except BaseException as exc:  # noqa: BLE001 - ferried to the caller
            failures[party] = exc
        finally:
            channel.close()

    threads = [
        threading.Thread(target=work, args=(1, channel_p1, inputs_p1, store_p1)),
        threading.Thread(target=work, args=(2, channel_p2, inputs_p2, store_p2)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[min(failures)]
    return outcomes[1], outcomes[2]
