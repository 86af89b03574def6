"""The integer kernel of Q(zeta) and Q(i) against plain Fraction arithmetic.

Every element is one CVec(nums, den); after every operation the form must be
canonical: den > 0, gcd(den, *nums) = 1, and zero is ((0,) * e, 1).
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from wittlab.cyclotomic import CVec, CyclotomicField, GaussianField, cyclotomic_field

import oracles

FIELDS = [
    cyclotomic_field(2, 2),
    cyclotomic_field(2, 3),
    cyclotomic_field(3, 2),
    cyclotomic_field(3, 3),
    GaussianField(2),
    GaussianField(3),
    GaussianField(5),
]

coeff = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=9)
)


@st.composite
def field_and_pair(draw):
    field = draw(st.sampled_from(FIELDS))
    a = tuple(draw(coeff) for _ in range(field.e))
    b = tuple(draw(coeff) for _ in range(field.e))
    return field, a, b


def canonical(field, x):
    assert isinstance(x, CVec)
    assert len(x.nums) == field.e
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x == ((0,) * field.e, 1)
    return field.coeffs(x)


def oracle_mul(field, a, b):
    if isinstance(field, GaussianField):
        return oracles.gauss_mul(a, b)
    return tuple(oracles.conv_reduce(a, b, field.p, field.k))


def oracle_valuation(field, a):
    if isinstance(field, CyclotomicField):
        return oracles.cyclotomic_valuation(a, field.p, field.k)
    if field.split:
        return min(oracles.gauss_place_valuation(a, field.p, pi) for pi in (field.pi, field.pibar))
    return Fraction(oracles.vp_fraction(a[0] ** 2 + a[1] ** 2, field.p), 2)


@given(field_and_pair(), st.fractions(min_value=-4, max_value=4, max_denominator=6))
@settings(max_examples=100)
def test_linear_operations(data, q):
    field, a, b = data
    x, y = field.from_coeffs(a), field.from_coeffs(b)
    assert canonical(field, x) == a
    assert canonical(field, field.add(x, y)) == tuple(s + t for s, t in zip(a, b))
    assert canonical(field, field.sub(x, y)) == tuple(s - t for s, t in zip(a, b))
    assert canonical(field, field.neg(x)) == tuple(-s for s in a)
    assert canonical(field, field.scalar_mul(q, x)) == tuple(q * s for s in a)
    assert canonical(field, field.exact_divide_by_p(x)) == tuple(s / field.p for s in a)
    assert field.eq(x, y) == (a == b)
    assert field.is_zero(x) == (not any(a))


@given(field_and_pair())
@settings(max_examples=100)
def test_multiplication_and_inverse(data):
    field, a, b = data
    x, y = field.from_coeffs(a), field.from_coeffs(b)
    assert canonical(field, field.mul(x, y)) == oracle_mul(field, a, b)
    if any(a):
        inv = canonical(field, field.inv(x))
        assert oracle_mul(field, a, inv) == field.coeffs(field.one())


@given(field_and_pair(), st.integers(0, 9))
@settings(max_examples=60)
def test_powers(data, n):
    field, a, _ = data
    want = field.coeffs(field.one())
    for _ in range(n):
        want = oracle_mul(field, want, a)
    assert canonical(field, field.pow_(field.from_coeffs(a), n)) == want


@given(field_and_pair())
@settings(max_examples=60)
def test_valuations(data):
    field, a, _ = data
    x = field.from_coeffs(a)
    if not any(a):
        assert field.valuation(x) is None
        return
    assert field.valuation(x) == oracle_valuation(field, a)
    if isinstance(field, GaussianField) and field.split:
        places = field.place_valuations(x)
        assert places["pi"] == oracles.gauss_place_valuation(a, field.p, field.pi)
        assert places["pibar"] == oracles.gauss_place_valuation(a, field.p, field.pibar)


@given(st.data())
@settings(max_examples=40)
def test_embeddings_stretch_the_power_basis(data):
    lo, hi = data.draw(
        st.sampled_from(
            [
                (cyclotomic_field(2, 2), cyclotomic_field(2, 3)),
                (cyclotomic_field(2, 2), cyclotomic_field(2, 4)),
                (cyclotomic_field(3, 2), cyclotomic_field(3, 3)),
            ]
        )
    )
    a = tuple(data.draw(coeff) for _ in range(lo.e))
    stretch = hi.e // lo.e
    want = [Fraction(0)] * hi.e
    want[::stretch] = a
    assert canonical(hi, lo.embed(lo.from_coeffs(a), hi)) == tuple(want)


def test_elements_print_as_fractions_over_one_denominator():
    """Text and JSON forms of a fixed set of elements, as the Fraction-tuple
    representation printed them."""
    F = Fraction
    z8, z9, z27 = cyclotomic_field(2, 3), cyclotomic_field(3, 2), cyclotomic_field(3, 3)
    g5, g3 = GaussianField(5), GaussianField(3)
    a8 = z8.from_coeffs([F(1, 2), -3, 0, F(2, 3)])
    a9 = z9.from_coeffs([F(-1, 3), 0, 4, F(5, 6), 0, -1])
    ga = g5.from_pair(F(1, 2), 3)
    cases = [
        (z8, a8), (z8, z8.inv(a8)), (z8, z8.pow_(a8, 3)), (z8, z8.zero()),
        (z9, a9), (z9, z9.mul(a9, z9.uniformizer())), (z9, z9.exact_divide_by_p(a9)),
        (z27, z27.inv(z27.uniformizer())), (z27, z9.embed(a9, z27)),
        (g5, ga), (g5, g5.mul(ga, g5.from_pair(2, F(-1, 5)))), (g5, g5.pow_(ga, 4)),
        (g5, g5.imag_unit()), (g5, g5.neg(g5.imag_unit())),
        (g3, g3.from_pair(0, F(2, 3))), (g3, g3.from_pair(F(-7, 9), -1)), (g3, g3.zero()),
        (g3, g3.from_int(4)),
    ]
    assert [(r.format_elt(x), r.elt_to_json(x)) for r, x in cases] == PINNED
    for r, x in cases:
        assert r.parse_elt(r.format_elt(x)) == x
        assert r.elt_from_json(r.elt_to_json(x)) == x


PINNED = [
    ("[1/2, -3, 0, 2/3]", ["1/2", "-3", "0", "2/3"]),
    ("[-2430/113089, -7188/113089, 5544/113089, 36504/113089]", ["-2430/113089", "-7188/113089", "5544/113089", "36504/113089"]),
    ("[49/8, -2155/108, 77/6, -45/2]", ["49/8", "-2155/108", "77/6", "-45/2"]),
    ("[0, 0, 0, 0]", ["0", "0", "0", "0"]),
    ("[-1/3, 0, 4, 5/6, 0, -1]", ["-1/3", "0", "4", "5/6", "0", "-1"]),
    ("[-4/3, 1/3, 4, -25/6, -5/6, -1]", ["-4/3", "1/3", "4", "-25/6", "-5/6", "-1"]),
    ("[-1/9, 0, 4/3, 5/18, 0, -1/3]", ["-1/9", "0", "4/3", "5/18", "0", "-1/3"]),
    ("[2/3, 2/3, 2/3, 2/3, 2/3, 2/3, 2/3, 2/3, 2/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3]", ["2/3", "2/3", "2/3", "2/3", "2/3", "2/3", "2/3", "2/3", "2/3", "1/3", "1/3", "1/3", "1/3", "1/3", "1/3", "1/3", "1/3", "1/3"]),
    ("[-1/3, 0, 0, 0, 0, 0, 4, 0, 0, 5/6, 0, 0, 0, 0, 0, -1, 0, 0]", ["-1/3", "0", "0", "0", "0", "0", "4", "0", "0", "5/6", "0", "0", "0", "0", "0", "-1", "0", "0"]),
    ("1/2+3i", ["1/2", "3"]),
    ("8/5+59/10i", ["8/5", "59/10"]),
    ("1081/16-105/2i", ["1081/16", "-105/2"]),
    ("i", ["0", "1"]),
    ("-i", ["0", "-1"]),
    ("2/3i", ["0", "2/3"]),
    ("-7/9-i", ["-7/9", "-1"]),
    ("0", ["0", "0"]),
    ("4", ["4", "0"]),
]
