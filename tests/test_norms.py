"""Exact seminorm values p**(-v) with rational exponents."""

from fractions import Fraction

from hypothesis import given, strategies as st

from wittlab.norms import NormValue, norm_max

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
