"""Plaintext reference evaluator.

Evaluates a program directly on secrets, mirroring the protocol
catalog's function semantics rather than textbook ones (logarithms of
absolute values, the arcsine family as its finite series, zero
conventions), so equivalence tests isolate protocol faults.
"""

from __future__ import annotations

import math

from .errors import OracleDomainError
from .numeric import arcsine_series_coefficients
from .program import ProtocolProgram


def _fail(node, message):
    raise OracleDomainError(f"node {node.out} ({node.op}): {message}")


def _finite(node, value):
    if not math.isfinite(value):
        _fail(node, f"result {value!r} is not finite")
    return value


def _series(x, order):
    coeffs = arcsine_series_coefficients(order)
    acc = 0.0
    for k in reversed(range(order)):
        acc = acc * x * x + coeffs[k]
    return acc * x


def _signed_power(node, x, exponent):
    """x ** exponent for real exponents with the catalog's sign rules."""
    if x > 0:
        return x ** exponent
    if x == 0:
        if exponent > 0:
            return 0.0
        if exponent == 0:
            return 1.0
        _fail(node, "zero base with negative exponent")
    if exponent != int(exponent):
        _fail(node, f"negative base with non-integer exponent {exponent}")
    magnitude = abs(x) ** exponent
    return -magnitude if int(exponent) % 2 else magnitude


def eval_plain(program: ProtocolProgram, env: dict[str, float]) -> dict[str, float]:
    """Evaluate every node on plain inputs; returns all node outputs."""
    values = dict(env)
    for ref in program.inputs:
        if ref not in values:
            raise OracleDomainError(f"missing input {ref!r}")
    results = {}
    for node in program.nodes:
        args = []
        for ref in node.args:
            if ref not in values:
                _fail(node, f"unknown ref {ref!r}")
            args.append(values[ref])
        opts = node.options
        op = node.op
        if op == "linear":
            out = sum(c * x for c, x in zip(opts.get("coeffs", []), args))
            out += opts.get("bias", 0.0)
        elif op == "mul":
            out = args[0] * args[1]
        elif op in ("mulres", "addres"):
            out = args[0]
        elif op == "cmp":
            diff = args[0] - args[1]
            out = 0 if diff == 0 else (1 if diff > 0 else -1)
        elif op == "exp":
            base = opts.get("base", math.e)
            try:
                out = base ** args[0]
            except OverflowError:
                _fail(node, "exponentiation overflows")
        elif op == "log":
            if args[0] == 0:
                _fail(node, "logarithm of zero")
            out = math.log(abs(args[0]), opts.get("base", math.e))
        elif op == "pow":
            out = 1.0
            for x, alpha in zip(args, opts["exponents"]):
                out *= _signed_power(node, x, int(alpha))
        elif op == "div":
            if args[1] == 0:
                _fail(node, "division by zero")
            out = 0.0 if args[0] == 0 else args[0] / args[1]
        elif op == "prod":
            out = math.prod(args)
        elif op == "sin":
            out = math.sin(args[0])
        elif op == "cos":
            out = math.cos(args[0])
        elif op in ("tan", "cot", "sec", "csc"):
            s, c = math.sin(args[0]), math.cos(args[0])
            num, den = {"tan": (s, c), "cot": (c, s),
                        "sec": (1.0, c), "csc": (1.0, s)}[op]
            if den == 0:
                _fail(node, f"{op} pole")
            out = num / den
        elif op == "asin":
            out = _series(args[0], opts.get("order", 15))
        elif op == "acos":
            out = math.pi / 2 - _series(args[0], opts.get("order", 15))
        elif op == "atan":
            out = _series(args[0] / math.sqrt(1.0 + args[0] ** 2),
                          opts.get("order", 15))
        elif op == "pre":
            alpha = opts["alpha"]
            if opts.get("positive_domain", False):
                out = _signed_power(node, abs(args[0]), alpha) if args[0] != 0 \
                    else _signed_power(node, 0.0, alpha)
            else:
                out = _signed_power(node, args[0], alpha)
        elif op == "pse":
            x, y = args
            if x > 0:
                out = x ** y
            elif x == 0:
                out = 0.0
            else:
                if y != int(y):
                    _fail(node, "negative base with non-integer secret exponent")
                out = _signed_power(node, x, int(y))
        else:
            _fail(node, "unsupported op")
        values[node.out] = results[node.out] = _finite(node, float(out))
    return results
