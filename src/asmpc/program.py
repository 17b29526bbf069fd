"""Program text format, DAG checks, and the round/triple planner.

Programs are line oriented, one operation per line:

    out = op(ref, ref, key=value, key=[1, -1])

Positional arguments are references to program inputs or earlier
outputs; options are numbers, booleans, number lists, bare words, or the
constants e and pi.  Scheduling is greedy ASAP layering: a node starts
one step after the last step of its latest dependency, multi-phase
operations occupy consecutive steps, and independent nodes naturally
share steps.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

from .errors import PlanError
from .protocols import OP_SPECS, derive, resolve_product_strategy

_LINE = re.compile(r"^([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*)\s*\((.*)\)\s*$")
_IDENT = re.compile(r"^[A-Za-z_]\w*$")

_CONSTANTS = {"e": math.e, "pi": math.pi, "true": True, "false": False}


@dataclass(frozen=True)
class Node:
    out: str
    op: str
    args: tuple
    options: dict
    line: int = 0


@dataclass
class ProtocolProgram:
    nodes: list[Node] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)  # first-use order


def _split_top_level(text: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise PlanError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise PlanError(f"unbalanced brackets in {text!r}")
    if current or parts:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_scalar(text: str, lineno: int):
    if text in _CONSTANTS:
        return _CONSTANTS[text]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        if _IDENT.match(text):
            return text  # bare word, e.g. a strategy name
        raise PlanError(f"line {lineno}: cannot parse value {text!r}")
    if value != value or value in (float("inf"), float("-inf")):
        raise PlanError(f"line {lineno}: non-finite literal {text!r}")
    return value


def _parse_value(text: str, lineno: int):
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        items = _split_top_level(inner) if inner else []
        return [_parse_scalar(item, lineno) for item in items]
    return _parse_scalar(text, lineno)


def parse_program(text: str) -> ProtocolProgram:
    program = ProtocolProgram()
    produced = set()
    used = {}  # program inputs, in first-use order
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE.match(line)
        if not match:
            raise PlanError(f"line {lineno}: expected 'out = op(...)', got {raw!r}")
        out, op, argtext = match.groups()
        if out in produced:
            raise PlanError(f"line {lineno}: output {out!r} already defined")
        args, options = [], {}
        for piece in _split_top_level(argtext):
            if "=" in piece:
                key, value = piece.split("=", 1)
                key = key.strip()
                if not _IDENT.match(key):
                    raise PlanError(f"line {lineno}: bad option name {key!r}")
                if key in options:
                    raise PlanError(f"line {lineno}: duplicate option {key!r}")
                options[key] = _parse_value(value.strip(), lineno)
            else:
                if not _IDENT.match(piece):
                    raise PlanError(f"line {lineno}: bad input ref {piece!r}")
                args.append(piece)
                if piece not in produced:
                    used.setdefault(piece)
        if out in used:
            # The ref was consumed earlier as a program input; redefining it
            # now would make the line order ambiguous.
            raise PlanError(f"line {lineno}: {out!r} already used as an input")
        program.nodes.append(Node(out, op, tuple(args), options, lineno))
        produced.add(out)
    program.inputs = list(used)
    return program


def load_program(path) -> ProtocolProgram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


@dataclass(frozen=True)
class ResolvedNode:
    """Node with options normalized by the planner (what scripts see)."""

    out: str
    op: str
    args: tuple
    options: dict


@dataclass(frozen=True)
class PlanNode:
    node: ResolvedNode
    phases: int
    start: int   # first communication step; equals `end` for local nodes
    end: int
    std_ids: tuple
    resh_ids: tuple

    @property
    def n(self) -> int:
        return len(self.node.args)


@dataclass
class Plan:
    program: ProtocolProgram
    nodes: list[PlanNode]
    steps: int
    standard_count: int
    resharing_count: int
    input_kinds: dict
    optimize: str
    _digest: bytes | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def digest(self) -> bytes:
        """Hash of the schedule, compared in the session hello.  Computed
        once: a plan is not changed after `plan` returns it."""
        if self._digest is not None:
            return self._digest
        h = hashlib.sha256()
        h.update(f"optimize={self.optimize};steps={self.steps};".encode())
        for pn in self.nodes:
            opts = ",".join(f"{k}={pn.node.options[k]!r}"
                            for k in sorted(pn.node.options))
            h.update(f"{pn.node.out}={pn.node.op}({','.join(pn.node.args)};{opts});"
                     f"{pn.phases};{pn.start};{pn.std_ids};{pn.resh_ids}|".encode())
        for ref in sorted(self.input_kinds):
            h.update(f"in:{ref}:{self.input_kinds[ref]}|".encode())
        self._digest = h.digest()
        return self._digest


def plan(program: ProtocolProgram, optimize: str = "rounds") -> Plan:
    """Schedule a program. Raises PlanError on unsupported ops, bad
    references, or inconsistent share kinds."""
    if optimize not in ("rounds", "comm"):
        raise PlanError(f"unknown optimize mode {optimize!r}")
    end_of: dict[str, int] = {}
    out_kinds: dict[str, str] = {}
    input_kinds: dict[str, str] = {}
    plan_nodes: list[PlanNode] = []
    std_counter = resh_counter = 0
    steps = 0
    for node in program.nodes:
        spec = OP_SPECS.get(node.op)
        if spec is None:
            raise PlanError(f"line {node.line}: unsupported op {node.op!r}")
        options = dict(node.options)
        if node.op == "prod":
            options["strategy_resolved"] = resolve_product_strategy(
                len(node.args), options.get("strategy", "auto"), optimize)
        resolved = ResolvedNode(node.out, node.op, node.args, options)
        spec.validate(resolved)
        kind = spec.input_kind
        for ref in resolved.args:
            if ref in out_kinds:
                if out_kinds[ref] != kind:
                    raise PlanError(
                        f"line {node.line}: ref {ref!r} is "
                        f"{out_kinds[ref]}-shared but {node.op} needs {kind}")
            else:
                seen = input_kinds.setdefault(ref, kind)
                if seen != kind:
                    raise PlanError(
                        f"line {node.line}: input {ref!r} used both as "
                        f"{seen} and {kind}")
        ready = max((end_of.get(ref, 0) for ref in resolved.args), default=0)
        phases, std_n, resh_n = derive(resolved)
        if phases == 0:
            start = end = ready
        else:
            start = ready + 1
            end = start + phases - 1
            steps = max(steps, end)
        plan_nodes.append(PlanNode(
            resolved, phases, start, end,
            tuple(range(std_counter, std_counter + std_n)),
            tuple(range(resh_counter, resh_counter + resh_n))))
        std_counter += std_n
        resh_counter += resh_n
        end_of[node.out] = end
        out_kinds[node.out] = spec.output_kind
    return Plan(program, plan_nodes, steps, std_counter, resh_counter,
                input_kinds, optimize)
