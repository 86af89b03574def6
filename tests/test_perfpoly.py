"""Perfect polynomial rings of characteristic p with p-power-root exponents."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab.errors import CapabilityMissing, NoRoot
from wittlab.norms import NormValue
from wittlab.perfpoly import PerfPolyRing
from wittlab.rings import Ring, ZModPM
from wittlab.tilt import TiltRing
from wittlab.univ import structure_cap, structure_poly_mod_p
from wittlab.witt import WittVec, witt_add, witt_eq, witt_mul, witt_one

import oracles


@st.composite
def ring_and_polys(draw):
    ring = PerfPolyRing(2, 1, 4)
    polys = []
    for _ in range(2):
        terms = ring.zero()
        for _ in range(draw(st.integers(0, 3))):
            num = draw(st.integers(0, 24))
            coeff = draw(st.integers(1, 1))
            terms = ring.add(terms, ring.monomial([Fraction(num, ring.unit)], coeff))
        polys.append(terms)
    return ring, polys[0], polys[1]


@given(ring_and_polys())
@settings(max_examples=60)
def test_char_two_addition_cancels_pairs(data):
    ring, a, b = data
    assert ring.is_zero(ring.add(a, a))
    assert ring.eq(ring.add(a, b), ring.add(b, a))
    assert ring.eq(ring.neg(a), a)


@given(ring_and_polys())
@settings(max_examples=60)
def test_frobenius_is_a_ring_map_with_exact_inverse(data):
    ring, a, b = data
    fa = ring.frobenius_elt(a)
    fb = ring.frobenius_elt(b)
    assert ring.eq(ring.frobenius_elt(ring.mul(a, b)), ring.mul(fa, fb))
    assert ring.eq(ring.frobenius_elt(ring.add(a, b)), ring.add(fa, fb))
    assert ring.eq(ring.pth_root(fa), a)


def test_pth_root_fails_at_the_depth_boundary():
    ring = PerfPolyRing(2, 1, 2)
    deepest = ring.monomial([Fraction(1, 4)])
    with pytest.raises(NoRoot):
        ring.pth_root(deepest)
    assert ring.eq(ring.pth_root(ring.frobenius_elt(deepest)), deepest)


def test_degree_norm_is_multiplicative():
    ring = PerfPolyRing(2, 1, 3)
    a = ring.add(ring.monomial([Fraction(3, 8)]), ring.one())
    b = ring.monomial([Fraction(5, 8)])
    assert ring.degree(a) == Fraction(3, 8)
    assert ring.seminorm(ring.mul(a, b)) == NormValue.p_power(1)
    assert ring.seminorm(a).v == -Fraction(3, 8)
    assert ring.seminorm(ring.zero()).is_zero


def test_no_division_by_p_in_characteristic_p():
    ring = PerfPolyRing(3, 1, 1)
    with pytest.raises(CapabilityMissing):
        ring.exact_divide_by_p(ring.one())
    # 3-fold sums vanish
    x = ring.monomial([Fraction(1, 3)])
    assert ring.is_zero(ring.add(ring.add(x, x), x))


def test_parse_format_roundtrip():
    ring = PerfPolyRing(2, 1, 3)
    a = ring.add(ring.monomial([Fraction(5, 8)]), ring.one())
    text = ring.format_elt(a)
    assert ring.eq(ring.parse_elt(text), a)


@pytest.mark.parametrize("p, depth", [(2, 8), (3, 4)])
def test_pow_by_frobenius_shift_matches_the_generic_ladder(p, depth):
    ring = PerfPolyRing(p, 1, depth)
    x = ring.monomial([Fraction(1, p**depth)])
    samples = [
        ring.zero(),
        ring.one(),
        x,
        ring.add(x, ring.one()),
        ring.add(ring.monomial([Fraction(3, p**depth)], p - 1), ring.monomial([1])),
    ]
    for a in samples:
        for n in range(41):
            assert ring.pow_(a, n) == Ring.pow_(ring, a, n), (ring.format_elt(a), n)


def _samples(ring):
    """Zero, one, a constant, monomials in each variable and two sums."""
    xs = []
    for i in range(ring.nvars):
        exps = [0] * ring.nvars
        exps[i] = Fraction(1 + 2 * i, ring.unit)
        xs.append(ring.monomial(exps, ring.p - 1))
    mixed = ring.add(ring.one(), xs[-1])
    for x in xs:
        mixed = ring.add(mixed, ring.mul(x, mixed))
    return [ring.zero(), ring.one(), ring.from_int(ring.p - 1), *xs, mixed, ring.add(xs[0], mixed)]


@pytest.mark.parametrize("p, nvars", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_char_p_witt_op_matches_the_generic_evaluator(p, nvars):
    """Component i of ``char_p_witt_op``, canonicalised once, is the cached
    mod-p structure polynomial evaluated term by term in ring arithmetic
    (``oracles.eval_poly``) at the first i+1 components of each operand, for
    every kind at the longest cached length, on sample vectors that include
    zero, one and constants."""
    ring = PerfPolyRing(p, nvars, 2)
    samples = _samples(ring)
    length = structure_cap(p) + 1
    for kind, arity in (("sum", 2), ("prod", 2), ("neg", 1)):
        for shift in range(len(samples)):
            vecs = [
                WittVec(ring, tuple(samples[(shift + a + j) % len(samples)] for j in range(length)))
                for a in range(arity)
            ]
            got = ring.char_p_witt_op(kind, vecs)
            assert len(got) == length
            for i, comp in enumerate(got):
                values = [c for v in vecs for c in v.components[: i + 1]]
                want = oracles.eval_poly(ring, structure_poly_mod_p(p, i, kind).terms, values)
                assert comp == want, (kind, shift, i)


def test_char_p_witt_op_refusals():
    """Past the cached range this ring refuses rather than approximate; a
    tilt reads no structure polynomial and answers at that length; and the
    ``Ring`` default refuses rather than answer."""
    ring = PerfPolyRing(2, 1, 3)
    x = ring.monomial([Fraction(1, 8)])
    long = WittVec(ring, (x,) * (structure_cap(2) + 2))
    cap = "^characteristic-p {} is cached up to length {} at p={}; got length {}$"
    with pytest.raises(CapabilityMissing, match=cap.format("sum", 4, 2, 5)):
        witt_add(long, long)
    with pytest.raises(CapabilityMissing, match=cap.format("prod", 4, 2, 5)):
        ring.char_p_witt_op("prod", [long, long])
    tilt = TiltRing(ZModPM(3, 2), 2)
    one = witt_one(tilt, structure_cap(3) + 2)
    assert witt_eq(witt_mul(one, one), one)
    with pytest.raises(CapabilityMissing, match="^PerfPoly: no characteristic-p Witt arithmetic$"):
        Ring.char_p_witt_op(ring, "sum", [long, long])
