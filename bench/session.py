"""One benchmark session: load and plan the program, a fresh offline
phase, then both parties online over loopback TCP.

The session calls the package's public functions in the order the
`asmpc plan`, `asmpc dealer` and `asmpc run` commands do, with files in a
working directory the caller owns.  With tracing on, each party's channel is
wrapped in `TimedChannel` and the calls into the dealer, sharing and
transport layers are timed; with tracing off only the three phases
are timed.
"""

from __future__ import annotations

import random
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from asmpc import (
    MaskSource,
    RandomnessPolicy,
    TolerancePolicy,
    generate_triples,
    inputs_from_records,
    load_program,
    plan,
    read_share_file,
    read_triple_file,
    run_over_channels,
    stage_inputs,
    write_share_file,
    write_triple_file,
)
from asmpc.transport import Channel, tcp_connect, tcp_listen_ephemeral

# Narrow masks keep Beaver intermediates O(1), so reconstruction loses
# almost no precision; the shipped default RandomnessPolicy() overflows
# in exp and cancels asin/atan to 0.0 (see CHANGES.md).  This is the
# policy scripts/run_demo.py and the tests' BALANCED use.
POLICY = RandomnessPolicy(additive_bound=0.25, mult_bound=2.0, mult_floor=1.0)
TOL = TolerancePolicy()
HOST = "127.0.0.1"


class Spans:
    """Per-session totals of named intervals; records nothing when off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.totals: dict[str, float] = defaultdict(float)

    def __call__(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        started = perf_counter()
        try:
            yield
        finally:
            self.totals[name] += perf_counter() - started


class TimedChannel(Channel):
    """Forwards to one party's channel and times every call.

    Time inside a call that carries a frame of `reveal_step` (the step
    after the plan's last) also counts as reveal time.
    """

    def __init__(self, inner: Channel, reveal_step: int):
        self.inner = inner
        self.reveal_step = reveal_step
        self.send_s = self.recv_s = self.reveal_s = 0.0
        self.send_calls = self.recv_calls = 0

    def send(self, frame):
        started = perf_counter()
        try:
            self.inner.send(frame)
        finally:
            spent = perf_counter() - started
            self.send_s += spent
            self.send_calls += 1
            if frame.step == self.reveal_step:
                self.reveal_s += spent

    def recv(self):
        started = perf_counter()
        frame = self.inner.recv()
        spent = perf_counter() - started
        self.recv_s += spent
        self.recv_calls += 1
        if frame.step == self.reveal_step:
            self.reveal_s += spent
        return frame

    def close(self):
        self.inner.close()


@dataclass
class SessionResult:
    plan: object            # the session's Plan
    secrets: dict
    out1: object            # party 1's RunOutcome
    out2: object            # party 2's RunOutcome
    setup_s: float
    offline_s: float
    online_s: float
    layers: dict = field(default_factory=dict)   # filled when traced


def connect_pair(session_id: int):
    """Open one loopback connection; returns (party 1, party 2) channels."""
    port, accept = tcp_listen_ephemeral(HOST, session_id)
    accepted = {}

    def serve():
        try:
            accepted["channel"] = accept()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            accepted["error"] = exc

    server = threading.Thread(target=serve, name="bench-accept")
    server.start()
    try:
        ch2 = tcp_connect(HOST, port, session_id)
    except BaseException:
        server.join()
        if "channel" in accepted:
            accepted["channel"].close()
        raise
    server.join()
    if "error" in accepted:
        ch2.close()
        raise accepted["error"]
    return accepted["channel"], ch2


def run_session(program_path: Path, workload, seed: str, session_id: int,
                workdir: Path, traced: bool = False) -> SessionResult:
    """Plan, deal, stage and run one session; the caller checks it."""
    rng = random.Random(seed)
    secrets = workload.draw(rng)
    dealer_masks = MaskSource(replace(POLICY, seed=rng.getrandbits(64)))
    staging_masks = MaskSource(replace(POLICY, seed=rng.getrandbits(64)))
    triples = (workdir / "p1.triples", workdir / "p2.triples")
    shares = workdir / "shares.csv"
    span = Spans(traced)

    started = perf_counter()
    with span("program.parse_s"):
        program = load_program(program_path)
    with span("program.plan_s"):
        schedule = plan(program)
    setup_done = perf_counter()

    with span("dealer.generate_s"):
        stores = generate_triples(schedule.standard_count,
                                  schedule.resharing_count, dealer_masks,
                                  session_id)
    with span("dealer.write_s"):
        for store, path in zip(stores, triples):
            write_triple_file(store, path)
    with span("dealer.read_s"):
        store1, store2 = (read_triple_file(path) for path in triples)
    with span("sharing.stage_s"):
        write_share_file(shares, stage_inputs(secrets, staging_masks,
                                              schedule.input_kinds))
        in1 = inputs_from_records(read_share_file(shares, party=1), 1)
        in2 = inputs_from_records(read_share_file(shares, party=2), 2)
    offline_done = perf_counter()

    with span("transport.connect_s"):
        ch1, ch2 = connect_pair(session_id)
    if traced:
        ch1 = TimedChannel(ch1, schedule.steps + 1)
        ch2 = TimedChannel(ch2, schedule.steps + 1)
    out1, out2 = run_over_channels(schedule, in1, in2, store1, store2, ch1,
                                   ch2, tol=TOL, session_id=session_id,
                                   reveal=workload.reveal)
    online_done = perf_counter()

    result = SessionResult(schedule, secrets, out1, out2,
                           setup_done - started, offline_done - setup_done,
                           online_done - offline_done)
    if traced:
        result.layers = _layer_values(span.totals, schedule, ch1, ch2, out1,
                                      out2, triples, shares)
    return result


def _layer_values(totals, plan, ch1, ch2, out1, out2, triples, shares):
    layers = dict(totals)
    layers["dealer.triples"] = plan.standard_count + plan.resharing_count
    layers["dealer.file_bytes"] = sum(path.stat().st_size for path in triples)
    layers["sharing.share_file_bytes"] = shares.stat().st_size
    for party, ch, out in ((1, ch1, out1), (2, ch2, out2)):
        layers[f"transport.send_s.p{party}"] = ch.send_s
        layers[f"transport.recv_wait_s.p{party}"] = ch.recv_s
        layers[f"engine.compute_s.p{party}"] = (
            out.duration - ch.send_s - ch.recv_s)
    layers["transport.send_calls"] = ch1.send_calls + ch2.send_calls
    layers["transport.recv_calls"] = ch1.recv_calls + ch2.recv_calls
    layers["reveal.wait_s"] = ch1.reveal_s + ch2.reveal_s
    return layers
