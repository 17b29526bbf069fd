"""Operator entry point: dealer, plan, oracle, run, and report.

Exit codes: 0 success, 2 usage/config, 3 transport, 4 protocol desync,
5 numeric domain, 6 triple exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import CONFIG_KEYS, build_policies, load_config_file
from .costs import expected_cost
from .dealer import generate_triples, read_triple_file, write_triple_file
from .engine import (
    PartyContext,
    execute,
    inputs_from_records,
    run_over_channels,
)
from .errors import MpcError
from .numeric import MaskSource
from .oracle import eval_plain
from .program import Plan, load_program, plan as plan_program
from .sharing import format_float, read_share_file
from .transport import (
    DEFAULT_PORT,
    make_inproc_pair,
    tcp_connect,
    tcp_listen,
)

RUN_FORMAT = "asmpc-run v1"


def _add_policy_flags(parser):
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for mask generation")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key}", type=float, default=None,
                            dest=key.replace(".", "_"), metavar="X",
                            help=f"override config key {key}")


def _policies(args):
    values = load_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key.replace(".", "_"), None)
        if flag is not None:
            values[key] = flag
    return build_policies(values, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmpc",
        description="Two-party secure computation over secret shares.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dealer", help="generate triple files for both parties")
    p.add_argument("--standard", type=int, required=True, metavar="N")
    p.add_argument("--resharing", type=int, required=True, metavar="M")
    p.add_argument("--session", type=int, default=1, metavar="ID")
    p.add_argument("--out-p1", required=True, metavar="FILE")
    p.add_argument("--out-p2", required=True, metavar="FILE")
    _add_policy_flags(p)
    p.set_defaults(handler=cmd_dealer)

    p = sub.add_parser("plan", help="print step schedule and triple demand")
    p.add_argument("--program", required=True, metavar="FILE")
    p.add_argument("--optimize", choices=("rounds", "comm"), default="rounds")
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("oracle", help="evaluate a program on plain inputs")
    p.add_argument("--program", required=True, metavar="FILE")
    p.add_argument("--inputs", required=True, metavar="FILE",
                   help="plain inputs, one 'ref = value' per line")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("run", help="execute one party (or both) of a session")
    p.add_argument("--party", choices=("1", "2", "both"), required=True)
    p.add_argument("--program", required=True, metavar="FILE")
    p.add_argument("--inputs", required=True, metavar="FILE",
                   help="share file (id,kind,party,value)")
    p.add_argument("--triples", required=True, metavar="FILE")
    p.add_argument("--triples-p2", metavar="FILE",
                   help="party 2 triple file (required with --party both)")
    p.add_argument("--session", type=int, default=1, metavar="ID")
    p.add_argument("--transport", choices=("inproc", "tcp"), default=None)
    p.add_argument("--bind", metavar="HOST:PORT",
                   help="listen address for party 1 (or env ASMPC_BIND)")
    p.add_argument("--peer", metavar="HOST:PORT",
                   help="peer address for party 2 (or env ASMPC_PEER)")
    p.add_argument("--optimize", choices=("rounds", "comm"), default="rounds")
    p.add_argument("--reveal", action="append", default=[], metavar="REF",
                   help="reconstruct this output (must be given by both parties)")
    p.add_argument("--out", metavar="FILE", help="run record for this party")
    p.add_argument("--out-p2", metavar="FILE",
                   help="run record for party 2 (with --party both)")
    _add_policy_flags(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("report", help="render a run record against the cost catalog")
    p.add_argument("--run", required=True, metavar="FILE")
    p.add_argument("--csv", metavar="FILE", help="also write machine-readable rows")
    p.set_defaults(handler=cmd_report)

    return parser


def cmd_dealer(args) -> int:
    mask_policy, _ = _policies(args)
    masks = MaskSource(mask_policy)
    p1, p2 = generate_triples(args.standard, args.resharing, masks, args.session)
    write_triple_file(p1, args.out_p1)
    write_triple_file(p2, args.out_p2)
    print(f"session {args.session}: {args.standard} standard + "
          f"{args.resharing} resharing triples -> {args.out_p1}, {args.out_p2}")
    return 0


def cmd_plan(args) -> int:
    program = load_program(args.program)
    p = plan_program(program, optimize=args.optimize)
    print(f"steps={p.steps} standard={p.standard_count} "
          f"resharing={p.resharing_count}")
    for pn in p.nodes:
        window = "local" if pn.phases == 0 else f"steps {pn.start}..{pn.end}"
        print(f"  {pn.node.out} = {pn.node.op}(n={pn.n}) {window} "
              f"std={list(pn.std_ids)} resh={list(pn.resh_ids)}")
    return 0


def _read_plain_inputs(path) -> dict[str, float]:
    env = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'ref = value'")
            ref, text = (part.strip() for part in line.split("=", 1))
            env[ref] = float(text)
    return env


def cmd_oracle(args) -> int:
    program = load_program(args.program)
    env = _read_plain_inputs(args.inputs)
    results = eval_plain(program, env)
    for node in program.nodes:
        print(f"{node.out} = {format_float(results[node.out])}")
    return 0


def _endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _run_record(plan_obj: Plan, outcome) -> dict:
    rounds, b1, b2, total = outcome.transcript.account()
    return {
        "format": RUN_FORMAT,
        "party": outcome.party,
        "session": outcome.transcript.session_id,
        "digest": plan_obj.digest().hex(),
        "steps": plan_obj.steps,
        "optimize": plan_obj.optimize,
        "nodes": [
            {"out": pn.node.out, "op": pn.node.op, "n": pn.n,
             "options": pn.node.options}
            for pn in plan_obj.nodes
        ],
        "account": {"rounds": rounds, "bits_p1": b1, "bits_p2": b2,
                    "bits_total": total},
        "node_costs": {k: list(v)
                       for k, v in outcome.transcript.node_costs().items()},
        "entries": outcome.transcript.to_rows(),
        "outputs": {ref: [v.kind, v.value] for ref, v in outcome.env.items()},
        "revealed": outcome.revealed,
        "duration_s": outcome.duration,
    }


def _write_run(path, plan_obj, outcome) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_run_record(plan_obj, outcome), fh, indent=1)
        fh.write("\n")


def _check_store(store, party: int, session: int) -> None:
    if store.party != party:
        raise ValueError(f"triple file is for party {store.party}, need {party}")
    if store.session_id != session:
        raise ValueError(
            f"triple file session {store.session_id} != --session {session}")


def cmd_run(args) -> int:
    _, tol = _policies(args)
    program = load_program(args.program)
    plan_obj = plan_program(program, optimize=args.optimize)
    reveal = tuple(sorted(set(args.reveal)))

    if args.party == "both":
        transport = args.transport or "inproc"
        if transport != "inproc":
            raise ValueError("--party both runs over the inproc transport")
        if not args.triples_p2:
            raise ValueError("--party both needs --triples-p2")
        store1 = read_triple_file(args.triples)
        store2 = read_triple_file(args.triples_p2)
        _check_store(store1, 1, args.session)
        _check_store(store2, 2, args.session)
        records = read_share_file(args.inputs)
        ch1, ch2 = make_inproc_pair()
        out1, out2 = run_over_channels(
            plan_obj, inputs_from_records(records, 1),
            inputs_from_records(records, 2), store1, store2, ch1, ch2,
            tol=tol, session_id=args.session, reveal=reveal)
        _write_run(args.out, plan_obj, out1)
        _write_run(args.out_p2, plan_obj, out2)
        _print_outcome(out1)
        return 0

    party = int(args.party)
    if (args.transport or "tcp") != "tcp":
        raise ValueError("a single party runs over tcp; use --party both for inproc")
    store = read_triple_file(args.triples)
    _check_store(store, party, args.session)
    records = read_share_file(args.inputs, party=party)
    inputs = inputs_from_records(records, party)
    if party == 1:
        address = (args.bind or os.environ.get("ASMPC_BIND")
                   or f"127.0.0.1:{DEFAULT_PORT}")
        host, port = _endpoint(address)
        channel = tcp_listen(host, port, args.session)
    else:
        address = (args.peer or os.environ.get("ASMPC_PEER")
                   or f"127.0.0.1:{DEFAULT_PORT}")
        host, port = _endpoint(address)
        channel = tcp_connect(host, port, args.session)
    try:
        ctx = PartyContext(party, store, tol, args.session)
        outcome = execute(plan_obj, ctx, inputs, channel, reveal=reveal)
    finally:
        channel.close()
    _write_run(args.out, plan_obj, outcome)
    _print_outcome(outcome)
    return 0


def _print_outcome(outcome) -> None:
    rounds, b1, b2, total = outcome.transcript.account()
    print(f"party {outcome.party}: rounds={rounds} bits_p1={b1} "
          f"bits_p2={b2} bits_total={total} "
          f"duration={outcome.duration:.4f}s")
    for ref, value in sorted(outcome.revealed.items()):
        print(f"revealed {ref} = {format_float(value)}")


def cmd_report(args) -> int:
    with open(args.run, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format") != RUN_FORMAT:
        raise ValueError(f"not a run record: {args.run}")

    rows = []
    all_ok = True
    node_costs = data["node_costs"]
    for entry in data["nodes"]:
        exp = expected_cost(entry["op"], entry["n"], entry["options"])
        actual_rounds, actual_bits = node_costs.get(entry["out"], (0, 0))
        ok = exp.matches(actual_rounds, actual_bits)
        all_ok = all_ok and ok
        rows.append((entry["out"], entry["op"], entry["n"], exp,
                     actual_rounds, actual_bits, ok))

    header = (f"{'node':<12}{'op':<8}{'n':>3}  {'rounds':>14}  "
              f"{'bits':>18}  status")
    print(header)
    print("-" * len(header))
    for out, op, n, exp, rounds, bits, ok in rows:
        rel = "<=" if not exp.exact else "=="
        status = "ok" if ok else "MISMATCH"
        print(f"{out:<12}{op:<8}{n:>3}  {rounds:>5} {rel} {exp.rounds:<5}  "
              f"{bits:>7} {rel} {exp.bits:<7}  {status}")
    acct = data["account"]
    print(f"totals: rounds={acct['rounds']} bits_total={acct['bits_total']} "
          f"duration={data['duration_s']:.4f}s")

    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write("op,n,rounds_expected,rounds_actual,"
                     "bits_expected,bits_actual\n")
            for out, op, n, exp, rounds, bits, ok in rows:
                fh.write(f"{op},{n},{exp.rounds},{rounds},{exp.bits},{bits}\n")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except MpcError as err:
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return err.exit_code
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
