"""The benchmark's three workloads: program text, seeded inputs, references.

Program text depends only on the workload and its size, never on the
seed, so set-up cost is the same on every run.  Inputs come from a
`random.Random` the caller seeds per session.  Every reference is computed
here from the secrets with `math`, never with `asmpc.oracle`, so a fault
in the package's own oracle cannot hide one in the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The mix a wide program cycles through; every node reads fresh inputs.
WIDE_OPS = ("mul", "div", "exp", "log", "sin", "cos", "cmp")

# Node counts of the generated programs: (benchmark runs, quick mode).
SIZES = {"wide": (1001, 21), "deep": (1000, 20)}


@dataclass(frozen=True)
class Workload:
    name: str
    source: str                                # program text
    draw: Callable                             # rng -> {input ref: secret}
    references: Callable                       # secrets -> {ref: value}
    comparisons: Callable                      # secrets -> {ref: -1 | 0 | 1}
    reveal: tuple                              # outputs revealed every session


def _sign(diff: float) -> int:
    return (diff > 0) - (diff < 0)


# --- demo ---------------------------------------------------------------------

def _demo_draw(rng):
    return {"x": rng.uniform(0.2, 1.2), "y": rng.uniform(0.5, 3.0)}


def _demo_references(secrets):
    x, y = secrets["x"], secrets["y"]
    return {
        "p": x * y, "q": x, "e1": math.exp(x), "l1": x,
        "s": math.sin(x), "c": math.cos(x), "t": math.tan(x),
        "r": x * x * y, "w": x * x, "g": 1.0 / math.cos(x), "h": abs(x),
        "z": x ** y, "f": math.sin(x) + math.cos(x),
    }


def _demo_comparisons(secrets):
    # o = cmp(l1, q) with l1 = log(exp(x)) and q = x: equal in exact
    # arithmetic, so the protocol's zero band must report EQUAL.
    return {"o": 0}


def demo(programs_dir: Path) -> Workload:
    source = (programs_dir / "demo.prog").read_text(encoding="utf-8")
    outputs = ("p", "q", "e1", "l1", "s", "c", "t", "r", "w", "g", "h", "z",
               "o", "f")
    return Workload("demo", source, _demo_draw, _demo_references,
                    _demo_comparisons, outputs)


# --- wide ---------------------------------------------------------------------

def _wide_op(i: int) -> str:
    return WIDE_OPS[i % len(WIDE_OPS)]


def _wide_source(n: int) -> str:
    lines = ["# wide: independent nodes over fresh inputs, at most 3 steps"]
    for i in range(n):
        op = _wide_op(i)
        if op in ("mul", "div", "cmp"):
            lines.append(f"o{i} = {op}(a{i}, b{i})")
        else:
            lines.append(f"o{i} = {op}(a{i})")
    return "\n".join(lines) + "\n"


def _signed(rng, lo, hi):
    magnitude = rng.uniform(lo, hi)
    return magnitude if rng.random() < 0.5 else -magnitude


def _wide_draw(n):
    def draw(rng):
        secrets = {}
        for i in range(n):
            op = _wide_op(i)
            if op == "mul":
                secrets[f"a{i}"] = rng.uniform(-2.0, 2.0)
                secrets[f"b{i}"] = rng.uniform(-2.0, 2.0)
            elif op == "div":
                secrets[f"a{i}"] = rng.uniform(-2.0, 2.0)
                secrets[f"b{i}"] = _signed(rng, 0.5, 2.0)
            elif op == "exp":
                secrets[f"a{i}"] = rng.uniform(-2.0, 2.0)
            elif op == "log":
                secrets[f"a{i}"] = _signed(rng, 0.2, 5.0)
            elif op in ("sin", "cos"):
                secrets[f"a{i}"] = rng.uniform(-math.pi, math.pi)
            else:  # cmp: operands at least 0.01 apart
                a = rng.uniform(-1.0, 1.0)
                secrets[f"a{i}"] = a
                secrets[f"b{i}"] = a + _signed(rng, 0.01, 1.0)
        return secrets
    return draw


def _wide_references(n):
    unary = {"exp": math.exp, "log": lambda a: math.log(abs(a)),
             "sin": math.sin, "cos": math.cos}

    def references(secrets):
        refs = {}
        for i in range(n):
            op = _wide_op(i)
            a = secrets[f"a{i}"]
            if op == "mul":
                refs[f"o{i}"] = a * secrets[f"b{i}"]
            elif op == "div":
                refs[f"o{i}"] = a / secrets[f"b{i}"]
            elif op in unary:
                refs[f"o{i}"] = unary[op](a)
        return refs
    return references


def _wide_comparisons(n):
    def comparisons(secrets):
        return {f"o{i}": _sign(secrets[f"a{i}"] - secrets[f"b{i}"])
                for i in range(n) if _wide_op(i) == "cmp"}
    return comparisons


def wide(n: int) -> Workload:
    return Workload("wide", _wide_source(n), _wide_draw(n),
                    _wide_references(n), _wide_comparisons(n),
                    tuple(f"o{i}" for i in range(n)))


# --- deep ---------------------------------------------------------------------

def _deep_source(n: int) -> str:
    lines = ["# deep: a chain of dependent multiplications, one step each",
             "v1 = mul(x0, m1)"]
    lines += [f"v{i} = mul(v{i - 1}, m{i})" for i in range(2, n + 1)]
    return "\n".join(lines) + "\n"


def _deep_draw(n):
    def draw(rng):
        secrets = {"x0": rng.uniform(0.5, 2.0)}
        for i in range(1, n + 1):
            secrets[f"m{i}"] = math.exp(rng.uniform(-0.1, 0.1))
        return secrets
    return draw


def _deep_references(n):
    def references(secrets):
        factors = [secrets["x0"]] + [secrets[f"m{i}"] for i in range(1, n + 1)]
        return {f"v{n}": math.prod(factors)}
    return references


def deep(n: int) -> Workload:
    return Workload("deep", _deep_source(n), _deep_draw(n),
                    _deep_references(n), lambda secrets: {}, (f"v{n}",))


def build(name: str, programs_dir: Path, quick: bool = False) -> Workload:
    if name == "demo":
        return demo(programs_dir)
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    return {"wide": wide, "deep": deep}[name](SIZES[name][quick])
