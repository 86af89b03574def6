"""The integer kernel of Q(zeta) and Q(i) against plain Fraction arithmetic.

Every element is one CVec(nums, den); after every operation the form must be
canonical: den > 0, gcd(den, *nums) = 1, and zero is ((0,) * e, 1).
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import reference
from wittlab.cyclotomic import (
    CVec,
    CycloModPM,
    CyclotomicField,
    GaussianField,
    _add,
    _canon,
    _conv,
    _pow_int,
    _sqr,
    cyclotomic_field,
)

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
    return tuple(reference.conv_reduce(a, b, field.p, field.k))


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


SQUARING_SHAPES = [(2, k) for k in range(1, 7)] + [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


def _draw_digits(rng, e):
    """Zeros, small signed entries and ~300-bit signed entries, mixed."""
    return [
        rng.choice((0, 0, rng.randint(-9, 9), rng.choice((1, -1)) * rng.getrandbits(300)))
        for _ in range(e)
    ]


@pytest.mark.parametrize("p, k", SQUARING_SHAPES)
def test_squaring_kernel_matches_the_convolution(p, k):
    field = cyclotomic_field(p, k)
    e, step, q = field.e, field.step, p**7
    rng = random.Random(p * 100 + k)
    draws = [[0] * e, [0] * (e - 1) + [rng.getrandbits(300)]]
    draws += [_draw_digits(rng, e) for _ in range(12)]
    for a in draws:
        want = _conv(a, a, e, p, step)
        assert _sqr(a, e, p, step) == want
        assert _pow_int(a, 2, e, p, step) == want
        assert _pow_int(a, 2, e, p, step, q) == [c % q for c in want]
        cube = _conv(want, a, e, p, step)
        assert _pow_int(a, 3, e, p, step) == cube
        assert _pow_int(a, 3, e, p, step, q) == [c % q for c in cube]


@pytest.mark.parametrize("p, k", SQUARING_SHAPES)
def test_packed_truncated_products_match_the_field_kernel(p, k):
    """CycloModPM's digit product, one big-integer product at 2-, 4- or
    8-byte slots or ``_conv`` past them, against the field kernel reduced
    mod q: products on ``_conv``, squares on ``_sqr``, cubes on
    ``_pow_int``, at precisions from one digit to past every slot width."""
    field = cyclotomic_field(p, k)
    e, step = field.e, field.step
    rng = random.Random(p * 100 + k)
    for M in (1, 2, 3, 5, 8, 13, 21, 34):
        ring, q = CycloModPM(p, k, M), p**M
        draws = [[q - 1] * e] + [[c % q for c in _draw_digits(rng, e)] for _ in range(4)]
        for a, b in zip(draws, draws[1:] + draws[:1]):
            x, y = ring.from_digits(a), ring.from_digits(b)
            assert list(ring.mul(x, y).coeffs) == [c % q for c in _conv(a, b, e, p, step)], M
            assert list(ring.mul(x, x).coeffs) == [c % q for c in _sqr(a, e, p, step)], M
            assert list(ring.pow_(x, 3).coeffs) == _pow_int(a, 3, e, p, step, q), M


FAST_PATH_FIELDS = [cyclotomic_field(2, 3), cyclotomic_field(3, 2), GaussianField(2), GaussianField(5)]


@pytest.mark.parametrize("field", FAST_PATH_FIELDS, ids=lambda f: f"{f.kind}-{f.e}-{f.p}")
def test_integer_and_zero_operands_give_the_general_results(field):
    """add, sub and mul with an integer element (zero past the constant term,
    possibly over a denominator) or zero on either side, against the
    general kernels, with denominators on the other side."""
    rng = random.Random(field.e * 10 + field.p)

    def general_mul(a, b):
        return _canon(_conv(a.nums, b.nums, field.e, field.root_p, field.step), a.den * b.den)

    for _ in range(40):
        x = field.from_coeffs(
            [Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 9, 10))) for _ in range(field.e)]
        )
        scalars = [
            field.zero(),
            field.from_int(rng.randint(-50, 50)),
            field.from_coeffs([Fraction(rng.randint(-50, 50), rng.choice((2, 3, 5, 6)))]),
        ]
        for c in scalars:
            for a, b in ((c, x), (x, c)):
                for got, want in (
                    (field.add(a, b), _add(a, b, 1)),
                    (field.sub(a, b), _add(a, b, -1)),
                    (field.mul(a, b), general_mul(a, b)),
                ):
                    assert type(got) is CVec and got == want, (a, b)


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
