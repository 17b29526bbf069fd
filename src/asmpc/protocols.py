"""Two-party protocol catalog over additive and multiplicative sharings.

Each operation is a per-party script written as a generator that yields
`Step` objects, one per communication phase.  A step carries the frames
this party sends in that phase and the tags it expects back; the engine
transmits a whole step at once, so scripts that run in parallel can merge
their steps into shared rounds.  Within one step a party's outgoing
frames never depend on frames received in the same step, which is what
makes a step a single round.

All online randomness comes from dealer triples; the scripts themselves
are deterministic given shares and triples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum

from .errors import (
    ComplexResultUnsupported,
    DivisionByZero,
    InvalidBase,
    LogOfZero,
    NearZeroDenominator,
    NumericOverflow,
    PlanError,
)
from .numeric import TolerancePolicy, arcsine_series_coefficients
from .transport import Tag

Value = namedtuple("Value", "kind value")

KIND_A = "A"
KIND_M = "M"
KIND_PUBLIC = "P"

# ln of the smallest positive double; stands in for log of an exact-zero
# share where the result is provably discarded.
_LOG_FLOOR = -745.1332191019412


@dataclass(frozen=True)
class Step:
    """One communication phase: frames out, tags expected back."""

    sends: tuple = ()
    expects: tuple = ()


class ComparisonOutcome(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def parallel(scripts, starts=None):
    """Advance scripts together, merging each phase into one step.

    `starts` gives each script's first phase (1-based; all start at
    phase 1 by default).  Every phase advances the started, unfinished
    scripts in list order, so merged frames keep that order, and yields
    their merged step even when it is empty; finished scripts drop out.
    Returns the results in list order once no script is left.
    """
    scripts = list(scripts)
    starts = starts or [1] * len(scripts)
    waiting = sorted(range(len(scripts)), key=starts.__getitem__, reverse=True)
    results = [None] * len(scripts)
    inboxes = [None] * len(scripts)
    active, phase = [], 1
    while True:
        while waiting and starts[waiting[-1]] <= phase:
            active.append(waiting.pop())
        active.sort()
        running, sends, expects, widths = [], [], [], []
        for i in active:
            try:
                step = scripts[i].send(inboxes[i])
            except StopIteration as fin:
                results[i] = fin.value
                continue
            running.append(i)
            sends.extend(step.sends)
            expects.extend(step.expects)
            widths.append(len(step.expects))
        active = running
        if not active and not waiting:
            return results
        got = yield Step(tuple(sends), tuple(expects))
        pos = 0
        for i, width in zip(active, widths):
            inboxes[i] = got[pos:pos + width]
            pos += width
        phase += 1


def _immediate(value):
    """Degenerate script with no communication phases."""
    yield from ()
    return value


# --- local arithmetic guards -------------------------------------------------

def _checked_pow(base, exponent):
    try:
        value = base ** exponent
    except OverflowError:
        raise NumericOverflow(f"{base!r} ** {exponent!r} overflows")
    if math.isinf(value):
        raise NumericOverflow(f"{base!r} ** {exponent!r} overflows")
    return value


def _checked_exp(x):
    try:
        value = math.exp(x)
    except OverflowError:
        raise NumericOverflow(f"exp({x!r}) overflows")
    return value


def _share_power(u, alpha, zero_guard):
    """Integer power of one multiplicative share with zero handling."""
    if abs(u) < zero_guard:
        if alpha < 0:
            raise DivisionByZero("zero share raised to a negative power")
        return 1.0 if alpha == 0 else 0.0
    return _checked_pow(u, alpha)


def _signed_unit_power(t):
    """Real reading of (-1)**t: exact parity on integer t, cosine
    extension elsewhere (where the true value is not real)."""
    if t == int(t):
        return -1.0 if int(t) % 2 else 1.0
    return math.cos(math.pi * t)


# --- primitive scripts --------------------------------------------------------

def beaver_multiply(party, x, y, triple):
    """Multiply two additively shared values with a standard triple.
    One simultaneous exchange; party 2 owns the public d*e term."""
    d_mine = x - triple.a
    e_mine = y - triple.b
    got = yield Step(((Tag.D, d_mine), (Tag.E, e_mine)), (Tag.D, Tag.E))
    d = d_mine + got[0]
    e = e_mine + got[1]
    f = triple.c + d * triple.b + e * triple.a
    if party == 2:
        f += e * d
    return f


def multiplicative_reshare(party, u, triple):
    """MSS -> ASS: turn a multiplicative share pair into additive shares.
    One simultaneous exchange of the two masked differences."""
    if party == 1:
        d = u - triple.plain
        (e,) = yield Step(((Tag.D, d),), (Tag.E,))
        return triple.c_share + e * triple.plain
    e = u - triple.plain
    (d,) = yield Step(((Tag.E, e),), (Tag.D,))
    return triple.c_share + d * triple.plain + e * d


def additive_reshare(party, x, triple, zero_guard):
    """ASS -> MSS: two sequential messages, party 1 first.

    Party 2's reply depends on party 1's message, so this costs two
    rounds.  On a zero secret party 1's output share collapses to zero
    analytically; that leak is inherent to the conversion.
    """
    if party == 1:
        e = (x - triple.c_share) / triple.plain
        yield Step(((Tag.E, e),), ())
        (d,) = yield Step((), (Tag.D,))
        return d + triple.plain
    (e,) = yield Step((), (Tag.E,))
    u2 = e + triple.plain
    if abs(u2) < zero_guard:
        raise NearZeroDenominator(
            "resharing denominator inside zero guard; the session aborts "
            "(exit code 5) and needs freshly dealt triples")
    d = (x - triple.c_share) / u2
    yield Step(((Tag.D, d),), ())
    return u2


def sign_reveal(party, u, delta):
    """Exchange sign states of multiplicative shares and classify.

    Each party sends one sign message: 0 if its share magnitude is below
    delta (the zero test), 1 if positive, 2 if negative.  Equal wins if
    either side reports zero; otherwise matching signs mean the shared
    product is positive.
    """
    mine = 0 if abs(u) < delta else (1 if u > 0 else 2)
    (theirs,) = yield Step(((Tag.SIGN, mine),), (Tag.SIGN,))
    if mine == 0 or theirs == 0:
        return ComparisonOutcome.EQUAL
    if mine == theirs:
        return ComparisonOutcome.GREATER
    return ComparisonOutcome.LESS


# --- catalog scripts ----------------------------------------------------------

def linear_combine(party, values, coeffs, bias):
    """Weighted sum of additive shares; public bias is added by party 2
    only, so the shares still sum to the right total."""
    total = 0.0
    for v, c in zip(values, coeffs):
        total += c * v
    if party == 2:
        total += bias
    return (yield from _immediate(total))


def compare(party, x, y, triple, tol):
    diff = x - y
    u = yield from additive_reshare(party, diff, triple, tol.zero_guard)
    return (yield from sign_reveal(party, u, tol.delta))


def exponentiate(party, x, base, triple):
    u = _checked_pow(base, x)
    return (yield from multiplicative_reshare(party, u, triple))


def logarithm(party, x, base, triple, zero_guard):
    u = yield from additive_reshare(party, x, triple, zero_guard)
    if abs(u) < zero_guard:
        raise LogOfZero("logarithm input reshared to a zero share")
    return math.log(abs(u), base)


def power_product(party, values, exponents, triples, zero_guard):
    """Product of integer powers: reshare every input in parallel, raise
    and multiply locally, reshare the product back."""
    reshares = [additive_reshare(party, v, t, zero_guard)
                for v, t in zip(values, triples[:-1])]
    us = yield from parallel(reshares)
    v = 1.0
    for u, alpha in zip(us, exponents):
        v *= _share_power(u, alpha, zero_guard)
    if math.isinf(v):
        raise NumericOverflow("local power product overflows")
    return (yield from multiplicative_reshare(party, v, triples[-1]))


def product_tree(party, values, triples, _zero_guard):
    """Pairwise product: halve the sequence each round."""
    layer = list(values)
    cursor = 0
    while len(layer) > 1:
        scripts = []
        for i in range(0, len(layer) - 1, 2):
            scripts.append(beaver_multiply(party, layer[i], layer[i + 1],
                                           triples[cursor]))
            cursor += 1
        carry = [layer[-1]] if len(layer) % 2 else []
        layer = list((yield from parallel(scripts))) + carry
    return layer[0]


def sine(party, x, triples):
    """Angle-sum identity; the two reshares share one round.

    Party 1 loads (sin x1, cos x1) and party 2 the crossed (cos x2,
    sin x2), so the two multiplicative pairs multiply out to
    sin x1 cos x2 and cos x1 sin x2.
    """
    if party == 1:
        m, n = math.sin(x), math.cos(x)
    else:
        m, n = math.cos(x), math.sin(x)
    fm, fn = yield from parallel([
        multiplicative_reshare(party, m, triples[0]),
        multiplicative_reshare(party, n, triples[1]),
    ])
    return fm + fn


def cosine(party, x, triples):
    """Like sine but with direct assignment on both parties and a
    subtraction at the end."""
    m, n = math.sin(x), math.cos(x)
    fm, fn = yield from parallel([
        multiplicative_reshare(party, m, triples[0]),
        multiplicative_reshare(party, n, triples[1]),
    ])
    return fn - fm


def tangent(party, x, triples, zero_guard, flip=False):
    """tan (or cot with flip=True) as sine/cosine followed by a division;
    sine and cosine share the first round."""
    s, c = yield from parallel([
        sine(party, x, triples[0:2]),
        cosine(party, x, triples[2:4]),
    ])
    num, den = (c, s) if flip else (s, c)
    return (yield from power_product(party, [num, den], [1, -1],
                                     triples[4:7], zero_guard))


def reciprocal_trig(party, x, triples, zero_guard, use_sine):
    """csc (use_sine) or sec: one trig op, then a reciprocal power."""
    base = yield from (sine if use_sine else cosine)(party, x, triples[0:2])
    return (yield from power_product(party, [base], [-1],
                                     triples[2:4], zero_guard))


def arcsine_series(party, x, order, triples, zero_guard):
    """Odd-power series; all power terms run in parallel so the round
    count stays flat no matter the order."""
    coeffs = arcsine_series_coefficients(order)
    acc = coeffs[0] * x
    if order == 1:
        return (yield from _immediate(acc))
    scripts = [
        power_product(party, [x], [2 * k + 1],
                      triples[2 * (k - 1):2 * k], zero_guard)
        for k in range(1, order)
    ]
    terms = yield from parallel(scripts)
    for c, t in zip(coeffs[1:], terms):
        acc += c * t
    return acc


def arccosine(party, x, order, triples, zero_guard):
    asin = yield from arcsine_series(party, x, order, triples, zero_guard)
    bias = math.pi / 2 if party == 2 else 0.0
    return bias - asin


def arctangent(party, x, order, std_triples, resh_triples, tol):
    """atan(x) = asin(x / sqrt(1 + x^2)); the inner square root runs on a
    provably positive operand so no sign round is needed."""
    w = yield from beaver_multiply(party, x, x, std_triples[0])
    z = w + (1.0 if party == 2 else 0.0)
    r = yield from power_real_exponent(party, z, -0.5, True,
                                       resh_triples[0:2], tol)
    v = yield from beaver_multiply(party, x, r, std_triples[1])
    return (yield from arcsine_series(party, v, order, resh_triples[2:],
                                      tol.zero_guard))


def power_real_exponent(party, x, alpha, positive_domain, triples, tol):
    """Real-exponent power via magnitude shares.

    Computes |x|**alpha, then (unless positive_domain) runs one sign
    round over the shares already produced by the reshare and corrects
    by (-1)**alpha for negative bases.  The correction is only real for
    integer alpha; other exponents on a negative base are refused.
    """
    u = yield from additive_reshare(party, x, triples[0], tol.zero_guard)
    v = _checked_pow(abs(u), alpha) if abs(u) >= tol.zero_guard else (
        _share_power(abs(u), alpha, tol.zero_guard))
    f = yield from multiplicative_reshare(party, v, triples[1])
    if positive_domain:
        return f
    outcome = yield from sign_reveal(party, u, tol.delta)
    if outcome is ComparisonOutcome.LESS:
        if alpha != int(alpha):
            raise ComplexResultUnsupported(
                f"negative base with exponent {alpha}; pass positive_domain "
                "to evaluate the magnitude only")
        if int(alpha) % 2:
            f = -f
    return f


def power_secret_exponent(party, x_share, y_share, resh_log, std_mul,
                          resh_branch, tol):
    """x**y with a shared exponent: log, multiply, then branch on the
    public sign of x.

    The sign round reuses the multiplicative shares the logarithm already
    produced, so the comparison costs one round and two bits.  For
    negative bases each party folds a local (-1)**y_i factor into its
    share before the final reshare; the product is real exactly when the
    exponent's shares split it integrally, otherwise the output encodes a
    signed magnitude.  A zero base short-circuits to a zero sharing.
    """
    u = yield from additive_reshare(party, x_share, resh_log, tol.zero_guard)
    mag = abs(u)
    t = math.log(mag) if mag >= tol.zero_guard else _LOG_FLOOR
    s = yield from beaver_multiply(party, t, y_share, std_mul)
    outcome = yield from sign_reveal(party, u, tol.delta)
    if outcome is ComparisonOutcome.EQUAL:
        # Keep the final phase aligned with the peer even though nothing
        # travels; the branch is public so both parties land here together.
        yield Step((), ())
        return 0.0
    v = _checked_exp(s)
    if outcome is ComparisonOutcome.LESS:
        v *= _signed_unit_power(y_share)
    return (yield from multiplicative_reshare(party, v, resh_branch))


# --- catalog registry ---------------------------------------------------------

@dataclass(frozen=True)
class OpSpec:
    """Static description of one catalog operation."""

    name: str
    output_kind: str
    validate: callable       # node -> None, raises PlanError / InvalidBase
    phases: callable         # node -> int (communication phases)
    demand: callable         # node -> (standard, resharing) triple counts
    input_kinds: callable    # node -> list of expected input kinds
    build: callable          # (party, node, env, tol, std, resh) -> generator


def _share_in(env, ref, expected_kind):
    value = env[ref]
    if value.kind != expected_kind:
        raise PlanError(f"ref {ref!r} is {value.kind}, expected {expected_kind}")
    return value.value


def _want(node, key, default=None):
    return node.options.get(key, default)


def _require_refs(node, count=None, minimum=None):
    n = len(node.args)
    if count is not None and n != count:
        raise PlanError(f"{node.op} takes {count} input refs, got {n}")
    if minimum is not None and n < minimum:
        raise PlanError(f"{node.op} takes at least {minimum} input refs, got {n}")


def _only_options(node, *allowed):
    extra = set(node.options) - set(allowed)
    if extra:
        raise PlanError(f"{node.op} does not accept options {sorted(extra)}")


def _int_option(node, key, default):
    raw = _want(node, key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw != int(raw):
        raise PlanError(f"{node.op} option {key} must be an integer")
    return int(raw)


def _a_kinds(node):
    return [KIND_A] * len(node.args)


def _validate_linear(node):
    _only_options(node, "coeffs", "bias")
    coeffs = _want(node, "coeffs", [])
    if not isinstance(coeffs, list) or len(coeffs) != len(node.args):
        raise PlanError("linear needs one coefficient per input ref")
    bias = _want(node, "bias", 0.0)
    if isinstance(bias, bool) or not isinstance(bias, (int, float)):
        raise PlanError("linear bias must be a number")


def _build_linear(party, node, env, tol, std, resh):
    coeffs = [float(c) for c in _want(node, "coeffs", [])]
    bias = float(_want(node, "bias", 0.0))
    values = [_share_in(env, r, KIND_A) for r in node.args]
    return linear_combine(party, values, coeffs, bias)


def _validate_exp(node):
    _require_refs(node, count=1)
    _only_options(node, "base")
    base = _want(node, "base", math.e)
    if isinstance(base, bool) or not isinstance(base, (int, float)) or base <= 0:
        raise InvalidBase(f"exp base must be positive, got {base!r}")


def _validate_log(node):
    _require_refs(node, count=1)
    _only_options(node, "base")
    base = _want(node, "base", math.e)
    if (isinstance(base, bool) or not isinstance(base, (int, float))
            or base <= 0 or base == 1):
        raise InvalidBase(f"log base must be positive and not 1, got {base!r}")


def _validate_pow(node):
    _require_refs(node, minimum=1)
    _only_options(node, "exponents")
    exps = _want(node, "exponents")
    if not isinstance(exps, list) or len(exps) != len(node.args):
        raise PlanError("pow needs one exponent per input ref")
    for e in exps:
        if isinstance(e, bool) or not isinstance(e, (int, float)) or e != int(e):
            raise PlanError("pow exponents must be integers")


def _pow_exponents(node):
    return [int(e) for e in _want(node, "exponents")]


def _validate_prod(node):
    _require_refs(node, minimum=2)
    _only_options(node, "strategy", "strategy_resolved")
    strategy = _want(node, "strategy", "auto")
    if strategy not in ("auto", "rounds", "comm", "pairwise", "power"):
        raise PlanError(f"unknown product strategy {strategy!r}")


def resolve_product_strategy(n, strategy, optimize="rounds"):
    """Pick pairwise-tree or power form for an n-way product.

    auto/rounds: pairwise while its tree depth beats the flat 3 rounds.
    comm: power form as soon as its traffic is no worse (n >= 3).
    """
    if strategy in ("pairwise", "power"):
        return strategy
    mode = optimize if strategy == "auto" else strategy
    if mode == "comm":
        return "power" if n >= 3 else "pairwise"
    return "pairwise" if math.ceil(math.log2(n)) < 3 else "power"


def _prod_resolved(node):
    resolved = node.options.get("strategy_resolved")
    if resolved is None:
        resolved = resolve_product_strategy(
            len(node.args), _want(node, "strategy", "auto"))
    return resolved


def _prod_phases(node):
    if _prod_resolved(node) == "pairwise":
        return math.ceil(math.log2(len(node.args)))
    return 3


def _prod_demand(node):
    n = len(node.args)
    if _prod_resolved(node) == "pairwise":
        return (n - 1, 0)
    return (0, n + 1)


def _build_prod(party, node, env, tol, std, resh):
    values = [_share_in(env, r, KIND_A) for r in node.args]
    if _prod_resolved(node) == "pairwise":
        return product_tree(party, values, std, tol.zero_guard)
    return power_product(party, values, [1] * len(values), resh, tol.zero_guard)


def _validate_trig(node):
    _require_refs(node, count=1)
    _only_options(node)


def _validate_asin(node):
    _require_refs(node, count=1)
    _only_options(node, "order")
    if _int_option(node, "order", 15) < 1:
        raise PlanError("asin order must be at least 1")


def _asin_order(node):
    return _int_option(node, "order", 15)


def _validate_pre(node):
    _require_refs(node, count=1)
    _only_options(node, "alpha", "positive_domain")
    alpha = _want(node, "alpha")
    if alpha is None or isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise PlanError("pre needs a real option alpha")
    if not isinstance(_want(node, "positive_domain", False), bool):
        raise PlanError("pre option positive_domain must be a boolean")


OP_SPECS: dict[str, OpSpec] = {}


def _register(name, output_kind, validate, phases, demand, input_kinds, build):
    OP_SPECS[name] = OpSpec(name, output_kind, validate, phases, demand,
                            input_kinds, build)


_register(
    "linear", KIND_A,
    _validate_linear,
    lambda node: 0,
    lambda node: (0, 0),
    _a_kinds,
    _build_linear,
)

_register(
    "mul", KIND_A,
    lambda node: (_require_refs(node, count=2), _only_options(node)),
    lambda node: 1,
    lambda node: (1, 0),
    _a_kinds,
    lambda party, node, env, tol, std, resh: beaver_multiply(
        party, _share_in(env, node.args[0], KIND_A),
        _share_in(env, node.args[1], KIND_A), std[0]),
)

_register(
    "mulres", KIND_A,
    lambda node: (_require_refs(node, count=1), _only_options(node)),
    lambda node: 1,
    lambda node: (0, 1),
    lambda node: [KIND_M],
    lambda party, node, env, tol, std, resh: multiplicative_reshare(
        party, _share_in(env, node.args[0], KIND_M), resh[0]),
)

_register(
    "addres", KIND_M,
    lambda node: (_require_refs(node, count=1), _only_options(node)),
    lambda node: 2,
    lambda node: (0, 1),
    _a_kinds,
    lambda party, node, env, tol, std, resh: additive_reshare(
        party, _share_in(env, node.args[0], KIND_A), resh[0], tol.zero_guard),
)

_register(
    "cmp", KIND_PUBLIC,
    lambda node: (_require_refs(node, count=2), _only_options(node)),
    lambda node: 3,
    lambda node: (0, 1),
    _a_kinds,
    lambda party, node, env, tol, std, resh: compare(
        party, _share_in(env, node.args[0], KIND_A),
        _share_in(env, node.args[1], KIND_A), resh[0], tol),
)

_register(
    "exp", KIND_A,
    _validate_exp,
    lambda node: 1,
    lambda node: (0, 1),
    _a_kinds,
    lambda party, node, env, tol, std, resh: exponentiate(
        party, _share_in(env, node.args[0], KIND_A),
        float(_want(node, "base", math.e)), resh[0]),
)

_register(
    "log", KIND_A,
    _validate_log,
    lambda node: 2,
    lambda node: (0, 1),
    _a_kinds,
    lambda party, node, env, tol, std, resh: logarithm(
        party, _share_in(env, node.args[0], KIND_A),
        float(_want(node, "base", math.e)), resh[0], tol.zero_guard),
)

_register(
    "pow", KIND_A,
    _validate_pow,
    lambda node: 3,
    lambda node: (0, len(node.args) + 1),
    _a_kinds,
    lambda party, node, env, tol, std, resh: power_product(
        party, [_share_in(env, r, KIND_A) for r in node.args],
        _pow_exponents(node), resh, tol.zero_guard),
)

_register(
    "div", KIND_A,
    lambda node: (_require_refs(node, count=2), _only_options(node)),
    lambda node: 3,
    lambda node: (0, 3),
    _a_kinds,
    lambda party, node, env, tol, std, resh: power_product(
        party, [_share_in(env, node.args[0], KIND_A),
                _share_in(env, node.args[1], KIND_A)],
        [1, -1], resh, tol.zero_guard),
)

_register(
    "prod", KIND_A,
    _validate_prod,
    _prod_phases,
    _prod_demand,
    _a_kinds,
    _build_prod,
)

_register(
    "sin", KIND_A,
    _validate_trig,
    lambda node: 1,
    lambda node: (0, 2),
    _a_kinds,
    lambda party, node, env, tol, std, resh: sine(
        party, _share_in(env, node.args[0], KIND_A), resh),
)

_register(
    "cos", KIND_A,
    _validate_trig,
    lambda node: 1,
    lambda node: (0, 2),
    _a_kinds,
    lambda party, node, env, tol, std, resh: cosine(
        party, _share_in(env, node.args[0], KIND_A), resh),
)

_register(
    "tan", KIND_A,
    _validate_trig,
    lambda node: 4,
    lambda node: (0, 7),
    _a_kinds,
    lambda party, node, env, tol, std, resh: tangent(
        party, _share_in(env, node.args[0], KIND_A), resh, tol.zero_guard),
)

_register(
    "cot", KIND_A,
    _validate_trig,
    lambda node: 4,
    lambda node: (0, 7),
    _a_kinds,
    lambda party, node, env, tol, std, resh: tangent(
        party, _share_in(env, node.args[0], KIND_A), resh, tol.zero_guard,
        flip=True),
)

_register(
    "sec", KIND_A,
    _validate_trig,
    lambda node: 4,
    lambda node: (0, 4),
    _a_kinds,
    lambda party, node, env, tol, std, resh: reciprocal_trig(
        party, _share_in(env, node.args[0], KIND_A), resh, tol.zero_guard,
        use_sine=False),
)

_register(
    "csc", KIND_A,
    _validate_trig,
    lambda node: 4,
    lambda node: (0, 4),
    _a_kinds,
    lambda party, node, env, tol, std, resh: reciprocal_trig(
        party, _share_in(env, node.args[0], KIND_A), resh, tol.zero_guard,
        use_sine=True),
)

_register(
    "asin", KIND_A,
    _validate_asin,
    lambda node: 3 if _asin_order(node) > 1 else 0,
    lambda node: (0, 2 * (_asin_order(node) - 1)),
    _a_kinds,
    lambda party, node, env, tol, std, resh: arcsine_series(
        party, _share_in(env, node.args[0], KIND_A), _asin_order(node),
        resh, tol.zero_guard),
)

_register(
    "acos", KIND_A,
    _validate_asin,
    lambda node: 3 if _asin_order(node) > 1 else 0,
    lambda node: (0, 2 * (_asin_order(node) - 1)),
    _a_kinds,
    lambda party, node, env, tol, std, resh: arccosine(
        party, _share_in(env, node.args[0], KIND_A), _asin_order(node),
        resh, tol.zero_guard),
)

_register(
    "atan", KIND_A,
    _validate_asin,
    lambda node: 5 + (3 if _asin_order(node) > 1 else 0),
    lambda node: (2, 2 + 2 * (_asin_order(node) - 1)),
    _a_kinds,
    lambda party, node, env, tol, std, resh: arctangent(
        party, _share_in(env, node.args[0], KIND_A), _asin_order(node),
        std, resh, tol),
)

_register(
    "pre", KIND_A,
    _validate_pre,
    lambda node: 3 if _want(node, "positive_domain", False) else 4,
    lambda node: (0, 2),
    _a_kinds,
    lambda party, node, env, tol, std, resh: power_real_exponent(
        party, _share_in(env, node.args[0], KIND_A),
        float(_want(node, "alpha")), bool(_want(node, "positive_domain", False)),
        resh, tol),
)

_register(
    "pse", KIND_A,
    lambda node: (_require_refs(node, count=2), _only_options(node)),
    lambda node: 5,
    lambda node: (1, 2),
    _a_kinds,
    lambda party, node, env, tol, std, resh: power_secret_exponent(
        party, _share_in(env, node.args[0], KIND_A),
        _share_in(env, node.args[1], KIND_A), resh[0], std[0], resh[1], tol),
)
