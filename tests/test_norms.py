"""Exact seminorm values p**(-v) with rational exponents."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab.cyclotomic import cyclotomic_field
from wittlab.norms import NormValue, norm_max
from wittlab.rings import ZModPM
from wittlab.witt import WittVec, witt_norm_profile

import oracles

exps = st.fractions(min_value=-12, max_value=12, max_denominator=8)


@given(exps, exps)
def test_mul_adds_exponents(u, v):
    a, b = NormValue.from_exponent(u), NormValue.from_exponent(v)
    assert a.mul(b) == NormValue.from_exponent(u + v)


@given(exps, st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8))
def test_pow_scales_exponents(u, r):
    a = NormValue.from_exponent(u)
    assert a.pow(r) == NormValue.from_exponent(u * r)
    # scale_exponent shifts: multiply the value by p**(-r)
    assert a.scale_exponent(r) == NormValue.from_exponent(u + r)


@given(exps, exps)
def test_order_reverses_exponent_order(u, v):
    a, b = NormValue.from_exponent(u), NormValue.from_exponent(v)
    assert (a < b) == (u > v)
    assert (a <= b) == (u >= v)


@given(exps)
def test_zero_is_absorbing_and_minimal(u):
    a = NormValue.from_exponent(u)
    z = NormValue.zero()
    assert z.is_zero
    assert a.mul(z).is_zero
    assert z <= a
    assert not (a <= z) or a.is_zero


def test_p_power_convention():
    # p_power(e) is the value p**e, i.e. exponent -e.
    assert NormValue.p_power(Fraction(-1, 2)) == NormValue.from_exponent(Fraction(1, 2))
    assert NormValue.one() == NormValue.from_exponent(0)


@given(st.lists(exps, min_size=1, max_size=6))
def test_max_and_min_agree_with_exponent_extremes(us):
    values = [NormValue.from_exponent(u) for u in us]
    assert norm_max(values) == NormValue.from_exponent(min(us))


def test_max_ignores_zero_unless_all_zero():
    z = NormValue.zero()
    a = NormValue.from_exponent(3)
    assert norm_max([z, a]) == a
    assert norm_max([z, z]).is_zero


# -- the value contract --------------------------------------------------------


@given(st.integers(-12, 12))
def test_an_integer_and_a_fraction_exponent_give_one_value(n):
    a, b = NormValue.from_exponent(n), NormValue.from_exponent(Fraction(n))
    assert a == b and hash(a) == hash(b)
    assert type(a.v) is Fraction
    assert NormValue.p_power(n) == NormValue.p_power(Fraction(n))


@given(st.one_of(st.just(None), exps), st.one_of(st.just(None), exps))
def test_greater_mirrors_less(u, v):
    a = NormValue.zero() if u is None else NormValue.from_exponent(u)
    b = NormValue.zero() if v is None else NormValue.from_exponent(v)
    assert (a > b) == (b < a)
    assert (a >= b) == (b <= a)


def test_a_value_is_immutable():
    a = NormValue.from_exponent(1)
    with pytest.raises(AttributeError):
        a.v = Fraction(2)
    assert a.v == 1


def test_zero_and_one_differ():
    assert NormValue.zero() != NormValue.one()
    assert NormValue.zero() < NormValue.one()
    assert NormValue.one().exponent_json() == "0"


def test_an_integral_exponent_prints_without_a_denominator():
    assert NormValue.from_exponent(Fraction(6, 3)).exponent_json() == "-2"
    assert NormValue.p_power(3).exponent_json() == "3"
    assert NormValue.from_exponent(Fraction(-3, 6)).exponent_json() == "1/2"
    assert NormValue.zero().exponent_json() is None


# -- the Witt norm profile against independent valuations ------------------------

# (p, k, M): Q(zeta_{p^k}) when M is None, Z/p^M when k is None
PROFILE_CASES = [
    pytest.param(2, 3, None, id="Q(zeta_8)"),
    pytest.param(3, 2, None, id="Q(zeta_9)"),
    pytest.param(2, 5, None, id="Q(zeta_32)"),
    pytest.param(2, None, 6, id="Z/2^6"),
    pytest.param(3, None, 4, id="Z/3^4"),
    pytest.param(5, None, 3, id="Z/5^3"),
]


@pytest.mark.parametrize("p, k, M", PROFILE_CASES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_witt_norm_profile_matches_the_valuation_oracle(p, k, M, data):
    """|x_{p^i}| ** (1/p^i) has exponent v(x_i) / p^i, with v from the
    determinant norm on Q(zeta) and from integer division on Z/p^M."""
    length = data.draw(st.integers(1, 3), label="length")
    if M is None:
        ring = cyclotomic_field(p, k)
        coeff = st.fractions(min_value=-8, max_value=8, max_denominator=8)
        raw = [data.draw(st.lists(coeff, min_size=ring.e, max_size=ring.e)) for _ in range(length)]
        comps = tuple(ring.from_coeffs(c) for c in raw)

        def valuation(c):
            return oracles.cyclotomic_valuation(c, p, k) if any(c) else None

    else:
        ring = ZModPM(p, M)
        raw = [
            (data.draw(st.integers(0, p**M - 1)), data.draw(st.integers(1, M)))
            for _ in range(length)
        ]
        comps = tuple(ring.make(d, prec) for d, prec in raw)

        def valuation(c):
            d, prec = c
            return oracles.vp_int(d % p**prec, p) if d % p**prec else None

    profile = witt_norm_profile(WittVec(ring, comps))
    assert len(profile) == length
    for i, (c, value) in enumerate(zip(raw, profile)):
        v = valuation(c)
        if v is None:
            assert value.is_zero
        else:
            assert type(value.v) is Fraction
            assert value.v == Fraction(v, p**i)
