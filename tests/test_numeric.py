import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmpc.numeric import (
    MaskSource,
    RandomnessPolicy,
    TolerancePolicy,
    arcsine_series_coefficients,
    ensure_finite,
)
from asmpc.errors import InvalidSecret


def test_additive_mask_containment():
    masks = MaskSource(RandomnessPolicy(additive_bound=1.0, seed=1))
    for _ in range(1000):
        assert -1.0 <= masks.additive() <= 1.0


def test_same_seed_same_sequence():
    a = MaskSource(RandomnessPolicy(seed=99))
    b = MaskSource(RandomnessPolicy(seed=99))
    seq_a = [a.additive() for _ in range(100)] + [a.multiplicative() for _ in range(100)]
    seq_b = [b.additive() for _ in range(100)] + [b.multiplicative() for _ in range(100)]
    assert seq_a == seq_b


def test_additive_mean_law_of_large_numbers():
    bound = 2.0 ** 10
    masks = MaskSource(RandomnessPolicy(additive_bound=bound, seed=5))
    total = sum(masks.additive() for _ in range(100_000))
    assert abs(total / 100_000) < 0.05 * bound


def test_multiplicative_mask_bounds_and_no_zero():
    policy = RandomnessPolicy(mult_floor=2.0 ** -10, mult_bound=2.0 ** 10, seed=2)
    masks = MaskSource(policy)
    for _ in range(1000):
        m = masks.multiplicative()
        assert m != 0.0
        assert 2.0 ** -10 <= abs(m) <= 2.0 ** 10


def test_multiplicative_sign_balance():
    masks = MaskSource(RandomnessPolicy(seed=17))
    positives = sum(1 for _ in range(100_000) if masks.multiplicative() > 0)
    assert 0.49 <= positives / 100_000 <= 0.51


def test_mask_streams_stay_clean_over_a_million_draws():
    masks = MaskSource(RandomnessPolicy(seed=8))
    for _ in range(500_000):
        a = masks.additive()
        m = masks.multiplicative()
        assert math.isfinite(a)
        assert math.isfinite(m) and m != 0.0


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 32),
       floor_exp=st.integers(-12, 0),
       span=st.integers(1, 12))
def test_multiplicative_bounds_hold_for_any_policy(seed, floor_exp, span):
    floor = 2.0 ** floor_exp
    bound = 2.0 ** (floor_exp + span)
    masks = MaskSource(RandomnessPolicy(mult_floor=floor, mult_bound=bound,
                                        seed=seed))
    for _ in range(200):
        m = masks.multiplicative()
        assert floor <= abs(m) <= bound


@pytest.mark.parametrize("kwargs", [
    dict(additive_bound=0.0),
    dict(additive_bound=-1.0),
    dict(additive_bound=math.inf),
    dict(mult_floor=0.0),
    dict(mult_floor=4.0, mult_bound=2.0),
])
def test_policy_validation(kwargs):
    with pytest.raises(ValueError):
        RandomnessPolicy(**kwargs)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(delta=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(delta=1e-9, zero_guard=1e-9)


def test_ensure_finite():
    assert ensure_finite(1.5) == 1.5
    with pytest.raises(InvalidSecret):
        ensure_finite(float("nan"))
    with pytest.raises(InvalidSecret):
        ensure_finite(float("inf"))


def test_arcsine_coefficients_against_factorials():
    # Independent closed form: (2k)! / (4^k (k!)^2 (2k+1)).
    coeffs = arcsine_series_coefficients(12)
    for k, c in enumerate(coeffs):
        direct = math.factorial(2 * k) / (
            4 ** k * math.factorial(k) ** 2 * (2 * k + 1))
        assert c == pytest.approx(direct, rel=1e-13)
