import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmpc import (
    AdditiveSharing,
    MaskSource,
    MultiplicativeSharing,
    RandomnessPolicy,
    share_additive,
    share_multiplicative,
)
from asmpc.errors import InvalidSecret, TripleFileCorrupt, ZeroSecretUnderMSS
from asmpc.sharing import ShareRecord, read_share_file, stage_inputs, write_share_file

from helpers import WIDE


def _masks(seed=0, **kw):
    return MaskSource(RandomnessPolicy(seed=seed, **kw))


def test_zero_secret_gives_opposite_shares():
    sh = share_additive(0.0, _masks())
    assert sh.share_p2 == -sh.share_p1


def test_additive_reconstruction():
    assert share_additive(7.5, _masks()).reveal() == pytest.approx(7.5, abs=1e-9)


def test_reveal_definitions():
    assert AdditiveSharing(3.0, 4.0).reveal() == 7.0
    assert MultiplicativeSharing(3.0, 4.0).reveal() == 12.0


def test_unit_secret_multiplicative_reciprocal():
    sh = share_multiplicative(1.0, _masks())
    assert sh.share_p2 == pytest.approx(1.0 / sh.share_p1, rel=1e-15)


def test_multiplicative_reconstruction():
    assert share_multiplicative(-6.0, _masks()).reveal() == pytest.approx(-6.0, rel=1e-15)


def test_multiplicative_zero_rejected():
    with pytest.raises(ZeroSecretUnderMSS):
        share_multiplicative(0.0, _masks())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_secret_rejected(bad):
    with pytest.raises(InvalidSecret):
        share_additive(bad, _masks())


@settings(deadline=None, max_examples=200)
@given(x=st.floats(min_value=-2.0 ** 20, max_value=2.0 ** 20,
                   allow_nan=False, allow_infinity=False),
       seed=st.integers(0, 2 ** 16))
def test_additive_round_trip_within_ulp_scale(x, seed):
    masks = _masks(seed=seed)
    got = share_additive(x, masks).reveal()
    scale = abs(x) + masks.policy.additive_bound
    assert abs(got - x) <= 2 * math.ulp(scale)


@settings(deadline=None, max_examples=200)
@given(x=st.floats(min_value=2.0 ** 10, max_value=2.0 ** 20),
       sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2 ** 16))
def test_additive_relative_error_in_top_binades(x, sign, seed):
    # The 2**-40 relative bound is only float-attainable while the secret
    # is within ~2**10 of the mask bound; below that the ulp-scale bound
    # above is the operative one.
    x *= sign
    got = share_additive(x, _masks(seed=seed)).reveal()
    assert abs(got - x) <= 2.0 ** -40 * abs(x)


@settings(deadline=None, max_examples=200)
@given(x=st.floats(min_value=1e-8, max_value=1e8),
       sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2 ** 16))
def test_multiplicative_relative_error(x, sign, seed):
    x *= sign
    got = share_multiplicative(x, _masks(seed=seed)).reveal()
    assert abs(got - x) <= 2.0 ** -40 * abs(x)


def test_first_share_distribution_ignores_the_secret():
    # The party-1 marginal must depend only on the policy, not on x.
    from scipy.stats import ks_2samp

    masks = MaskSource(RandomnessPolicy(additive_bound=WIDE.additive_bound,
                                        seed=123))
    small = [share_additive(1.0, masks).share_p1 for _ in range(10_000)]
    fresh = [masks.additive() for _ in range(10_000)]
    assert ks_2samp(small, fresh).pvalue > 0.01

    big = [share_additive(1000.0, masks).share_p1 for _ in range(10_000)]
    assert ks_2samp(small, big).pvalue > 0.01


def test_share_file_round_trip(tmp_path):
    records = [
        ShareRecord("x", "A", 1, 0.1),
        ShareRecord("x", "A", 2, 2.9),
        ShareRecord("u", "M", 1, -1.5),
        ShareRecord("u", "M", 2, 4.0),
    ]
    path = tmp_path / "shares.csv"
    write_share_file(path, records)
    assert read_share_file(path) == records
    assert read_share_file(path, party=1) == [records[0], records[2]]


def test_share_file_values_round_trip_exactly(tmp_path):
    masks = _masks(seed=4)
    records = stage_inputs({"a": 1 / 3, "b": math.pi}, masks)
    path = tmp_path / "shares.csv"
    write_share_file(path, records)
    back = read_share_file(path)
    assert [r.value for r in back] == [r.value for r in records]


@pytest.mark.parametrize("line", [
    "x,A,1",                  # missing field
    "x,Q,1,1.0",              # bad kind
    "x,A,3,1.0",              # bad party
    "x,A,1,abc",              # bad float
])
def test_share_file_corruption(tmp_path, line):
    path = tmp_path / "bad.csv"
    path.write_text(line + "\n")
    with pytest.raises((TripleFileCorrupt, InvalidSecret)):
        read_share_file(path)


def test_stage_inputs_reconstruct():
    masks = _masks(seed=9)
    records = stage_inputs({"x": 4.25, "u": -3.0}, masks, {"u": "M"})
    by_ref = {}
    for r in records:
        by_ref.setdefault(r.ref, {})[r.party] = r
    assert by_ref["x"][1].value + by_ref["x"][2].value == pytest.approx(4.25)
    assert by_ref["u"][1].value * by_ref["u"][2].value == pytest.approx(-3.0)
    assert by_ref["u"][1].kind == "M"
