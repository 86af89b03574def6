"""The power ladders of ``ghost``, ``unghost`` and ``teich_mul`` against the
direct-power loops they replaced, byte for byte, and the ladder's op count;
the one square-and-multiply ladder behind every ``pow_``, its product count
and its powers against repeated products; odd-p ``witt_neg``, which skips the
ladders, against transported negation."""

import json
import random
from fractions import Fraction

import pytest

from wittlab.cyclotomic import CycloModPM, GaussianField, cyclotomic_field
from wittlab.errors import CapabilityMissing
from wittlab.perfpoly import PerfPolyRing
from wittlab.rings import Integers, Rationals, Ring, TruncatedRing, ZModPM, power_ladder
from wittlab.tilt import TiltRing, make_tilt, tilt_from_top
from wittlab.univ import UPoly, structure_poly_mod_p
from wittlab.witt import (
    GhostVec,
    WittVec,
    ghost,
    teich_mul,
    unghost,
    witt_add,
    witt_eq,
    witt_neg,
    witt_zero,
)

import oracles

_RINGS = {
    "Z": Integers(3),
    "Q": Rationals(2),
    "Qi": GaussianField(5),
    "Qzeta8": cyclotomic_field(2, 3),
    "Qzeta9": cyclotomic_field(3, 2),
    "Z/2^6": ZModPM(2, 6),
    "Z/3^4": ZModPM(3, 4),
    "Zzeta8/2^4": CycloModPM(2, 3, 4),
    "PerfPoly(2,1,8)": PerfPolyRing(2, 1, 8),
    "tilt(Z/3^3,4)": TiltRing(ZModPM(3, 3), 4),
}
_LENGTHS = range(1, 6)


def _draw(rng, ring):
    """A random element; truncated digits and tilt slots at random precision."""
    if isinstance(ring, TiltRing):
        base = ring.base
        top = base.from_digits([rng.randrange(base.p**base.M)], rng.randint(1, base.M))
        chain = tilt_from_top(base, top, ring.depth)
        return make_tilt(base, [base.truncate(e, rng.randint(1, base.M)) for e in chain.entries])
    if isinstance(ring, TruncatedRing):
        return ring.from_digits(
            [rng.randrange(ring.p**ring.M) for _ in range(ring.e)], rng.randint(1, ring.M)
        )
    if isinstance(ring, PerfPolyRing):
        acc = ring.zero()
        for _ in range(rng.randint(0, 3)):
            exponent = Fraction(rng.randrange(2 * ring.unit), ring.unit)
            acc = ring.add(acc, ring.monomial([exponent], rng.randrange(1, ring.p)))
        return acc
    if isinstance(ring, Integers):
        return rng.randint(-9, 9)
    if isinstance(ring, Rationals):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return ring.from_coeffs(
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ring.e)]
    )


def _bytes(ring, elts):
    return json.dumps([ring.elt_to_json(c) for c in elts])


def _vectors(name, ring, length):
    """Drawn vectors, then the zero vector and the one vector."""
    rng = random.Random(f"{name}|{length}")
    out = [tuple(_draw(rng, ring) for _ in range(length)) for _ in range(3)]
    out.append(tuple(ring.zero() for _ in range(length)))
    out.append((ring.one(),) + tuple(ring.zero() for _ in range(length - 1)))
    return out


@pytest.mark.parametrize("name", list(_RINGS))
def test_ghost_and_teich_mul_ladders_match_the_direct_power_loops(name):
    ring = _RINGS[name]
    rng = random.Random(name)
    for length in _LENGTHS:
        for comps in _vectors(name, ring, length):
            got = ghost(WittVec(ring, comps)).entries
            want = oracles.naive_ring_ghost(ring, comps)
            assert got == want, (length, comps)
            assert _bytes(ring, got) == _bytes(ring, want)
            r = _draw(rng, ring)
            got = teich_mul(r, WittVec(ring, comps)).components
            want = oracles.naive_teich_mul(ring, r, comps)
            assert got == want, (length, r, comps)
            assert _bytes(ring, got) == _bytes(ring, want)


@pytest.mark.parametrize("name", list(_RINGS))
def test_unghost_ladder_matches_the_direct_power_loop(name):
    """On ghost images everywhere unghost runs, and on drawn ghost vectors
    over the Q-algebras; rings with p-torsion are refused as before."""
    ring = _RINGS[name]
    rng = random.Random(name)
    for length in _LENGTHS:
        for comps in _vectors(name, ring, length):
            entries = oracles.naive_ring_ghost(ring, comps)
            if not ring.p_torsion_free:
                with pytest.raises(CapabilityMissing):
                    unghost(GhostVec(ring, entries))
                continue
            targets = [entries]
            if ring.q_algebra:
                targets.append(tuple(_draw(rng, ring) for _ in range(length)))
            for ws in targets:
                got = unghost(GhostVec(ring, ws)).components
                want = oracles.naive_ring_unghost(ring, ws)
                assert got == want, (length, ws)
                assert _bytes(ring, got) == _bytes(ring, want)
            assert unghost(GhostVec(ring, entries)).components == comps


class _CountingRationals(Rationals):
    """Q that records the exponent of every power it takes and of every
    exact division by a power of p."""

    def __init__(self, p):
        super().__init__(p)
        self.exponents = []
        self.divisions = []

    def pow_(self, a, n):
        self.exponents.append(n)
        return super().pow_(a, n)

    def exact_divide_by_p(self, a, k=1):
        self.divisions.append(k)
        return super().exact_divide_by_p(a, k)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_ladders_take_only_p_th_powers(p, n):
    """ghost and unghost of length n take n(n-1)/2 powers, teich_mul n-1,
    and every one of them is a single p-th power; unghost divides once per
    level m >= 1, by p**m, so n-1 times where one p at a time took
    n(n-1)/2."""
    ring = _CountingRationals(p)
    x = WittVec(ring, tuple(Fraction(i + 2, i + 1) for i in range(n)))
    w = ghost(x)
    assert ring.exponents == [p] * (n * (n - 1) // 2)
    assert ring.divisions == []
    ring.exponents.clear()
    assert unghost(w).components == x.components
    assert ring.exponents == [p] * (n * (n - 1) // 2)
    assert ring.divisions == list(range(1, n))
    ring.exponents.clear()
    teich_mul(Fraction(3, 2), x)
    assert ring.exponents == [p] * (n - 1)


class _CountingIntegers(Integers):
    """Z on the generic ``Ring.pow_`` (not Python's ``**``), counting the
    products it makes."""

    pow_ = Ring.pow_

    def __init__(self):
        super().__init__(2)
        self.products = 0

    def mul(self, a, b):
        self.products += 1
        return a * b


def test_the_power_ladder_makes_one_product_per_bit_past_the_first():
    """a ** n takes bit_length(n) - 1 squarings and popcount(n) - 1 further
    products, through ``Ring.pow_``, through ``UPoly.pow`` and with a
    squaring of its own."""
    ring = _CountingIntegers()
    for n in range(1, 65):
        want = (n.bit_length() - 1) + (bin(n).count("1") - 1)
        ring.products = 0
        assert ring.pow_(3, n) == 3**n
        assert ring.products == want, n
        calls = []
        got = power_ladder(
            3, n, lambda a, b: calls.append("mul") or a * b, lambda a: calls.append("sqr") or a * a
        )
        assert got == 3**n
        assert calls.count("sqr") == n.bit_length() - 1, n
        assert calls.count("mul") == bin(n).count("1") - 1, n
    x = UPoly.variable(1, 0).add(UPoly.constant(1, 1))
    assert x.pow(5) == x.mul(x).mul(x).mul(x).mul(x)
    assert x.pow(0) == UPoly.constant(1, 1)


@pytest.mark.parametrize(
    "name", ["Z/3^4", "Zzeta8/2^4", "Qzeta9", "tilt(Z/3^3,4)", "PerfPoly(2,1,8)"]
)
def test_pow_is_the_repeated_product(name):
    ring = _RINGS[name]
    rng = random.Random(name)
    for _ in range(3):
        a = _draw(rng, ring)
        product = a
        for n in range(1, 14):
            if n > 1:
                product = ring.mul(product, a)
            assert ring.eq(ring.pow_(a, n), product), (n, ring.format_elt(a))


_NEG_RINGS = {
    "Z": Integers(3),
    "Q": Rationals(3),
    "Qi": GaussianField(5),
    "Qzeta9": cyclotomic_field(3, 2),
    "Z/3^4": ZModPM(3, 4),
    "Zzeta9/3^2": CycloModPM(3, 2, 2),
    "PerfPoly(3,1,4)": PerfPolyRing(3, 1, 4),
    "tilt(Z/3^3,4)": TiltRing(ZModPM(3, 3), 4),
}


@pytest.mark.parametrize("name", list(_NEG_RINGS))
def test_odd_p_negation_is_the_transported_one_and_an_additive_inverse(name):
    """Componentwise negation equals the transport through the cover (the
    mod-p neg structure polynomials in characteristic p), precision and
    bytes included, and x + (-x) = 0."""
    ring = _NEG_RINGS[name]
    # char-p sums are cached up to length structure_cap(p) + 1 = 3 at p = 3
    for length in range(1, 4) if ring.char_p else _LENGTHS:
        for comps in _vectors(name, ring, length):
            x = WittVec(ring, comps)
            got = witt_neg(x).components
            if ring.char_p:
                negs = [structure_poly_mod_p(ring.p, i, "neg") for i in range(length)]
                want = tuple(
                    oracles.eval_poly(ring, neg.terms, comps[: i + 1]) for i, neg in enumerate(negs)
                )
                assert all(ring.eq(a, b) for a, b in zip(got, want)), comps
            else:
                want = oracles.cover_transport(ring, "neg", comps)
                assert got == want and _bytes(ring, got) == _bytes(ring, want), comps
            assert witt_eq(witt_add(x, witt_neg(x)), witt_zero(ring, length)), comps
