"""Perfect polynomial rings of characteristic p with p-power-root exponents."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab.errors import CapabilityMissing, MalformedConfig, NoRoot
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

    def frob(x):
        return ring.pow_(x, ring.p)

    fa, fb = frob(a), frob(b)
    assert ring.eq(frob(ring.mul(a, b)), ring.mul(fa, fb))
    assert ring.eq(frob(ring.add(a, b)), ring.add(fa, fb))
    assert ring.eq(ring.pth_root(fa), a)


def test_pth_root_fails_at_the_depth_boundary():
    ring = PerfPolyRing(2, 1, 2)
    deepest = ring.monomial([Fraction(1, 4)])
    with pytest.raises(NoRoot):
        ring.pth_root(deepest)
    assert ring.eq(ring.pth_root(ring.pow_(deepest, 2)), deepest)


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


def test_a_negative_exponent_is_refused_by_name():
    """A sign inside ``^( )`` belongs to the exponent, not to a new term, and
    a negative exponent is refused as negative, not as a depth overrun."""
    ring = PerfPolyRing(2, 1, 2)
    for call in (lambda: ring.monomial([-1]), lambda: ring.parse_elt("x^(-1/2) + x")):
        with pytest.raises(MalformedConfig, match="is negative"):
            call()
    assert ring.parse_elt("x^(1/2) - x + 1") == ring.parse_elt("1 + x^(1/2) + x")
    assert ring.parse_elt("-x^(1/4)+2*x - 3") == ring.parse_elt("x^(1/4) + 1")
    with pytest.raises(MalformedConfig, match="bad term"):
        ring.parse_elt("x^(1+1)")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x^(1/2", "unbalanced parentheses"),
        ("x^1/2)", "unbalanced parentheses"),
        ("x^(1/2))", "unbalanced parentheses"),
        (")x^(1/2)(", "unbalanced parentheses"),
        ("x^((1/2))", "bad term"),
        ("x^()", "bad term"),
    ],
)
def test_an_exponent_takes_at_most_one_pair_of_parentheses(text, message):
    """An exponent is q or (q): unbalanced or doubled parentheses are refused,
    not stripped."""
    ring = PerfPolyRing(2, 1, 2)
    assert ring.parse_elt("x^(1/2)") == ring.parse_elt("x^1/2") == ring.monomial([Fraction(1, 2)])
    with pytest.raises(MalformedConfig, match=message):
        ring.parse_elt(text)


@pytest.mark.parametrize("p, depth", [(2, 8), (3, 4)])
def test_pow_by_frobenius_shift_matches_the_generic_ladder(p, depth):
    """``pow_`` on the packed kernel, n = p**s * r as r-th power then a key
    shift by p**s, equals n tuple-keyed products (``oracles.PerfPolyOracle``)."""
    ring = PerfPolyRing(p, 1, depth)
    oracle = oracles.PerfPolyOracle(p, 1)
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
            assert ring.pow_(a, n) == oracle.pow_(a, n), (ring.format_elt(a), n)


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


def _bench_draw(rng, ring):
    """1-3 terms c * x^e, every exponent on the 1/p**2 grid in [0, 3] and c
    in 1..p-1: the elements of the benchmark's perfected-polynomial ops."""
    p = ring.p
    terms = ring.zero()
    for _ in range(rng.randint(1, 3)):
        exps = [Fraction(rng.randint(0, 3 * p * p), p * p) for _ in range(ring.nvars)]
        terms = ring.add(terms, ring.monomial(exps, rng.randint(1, p - 1)))
    return terms


def _assert_matches_the_evaluator(ring, kind, vecs, label):
    """Each component of ``char_p_witt_op`` equals the cached mod-p
    structure polynomial evaluated term by term with tuple-keyed products."""
    oracle = oracles.PerfPolyOracle(ring.p, ring.nvars)
    got = ring.char_p_witt_op(kind, vecs)
    assert len(got) == vecs[0].length
    for i, comp in enumerate(got):
        values = [c for v in vecs for c in v.components[: i + 1]]
        want = oracles.eval_poly(oracle, structure_poly_mod_p(ring.p, i, kind).terms, values)
        assert comp == want, (kind, label, i)


_KINDS = (("sum", 2), ("prod", 2), ("neg", 1))


@pytest.mark.parametrize("p, nvars", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_char_p_witt_op_matches_the_generic_evaluator(p, nvars):
    """Component i of ``char_p_witt_op`` is the cached mod-p structure
    polynomial evaluated term by term (``oracles.eval_poly`` over
    ``oracles.PerfPolyOracle``) at the first i+1 components of each operand,
    for every kind at the longest cached length: on sample vectors that
    include zero, one and constants, and on seeded draws of the benchmark's
    shape (depth 8 at p=2, depth 4 at p=3)."""
    length = structure_cap(p) + 1
    ring = PerfPolyRing(p, nvars, 2)
    samples = _samples(ring)
    for kind, arity in _KINDS:
        for shift in range(len(samples)):
            vecs = [
                WittVec(ring, tuple(samples[(shift + a + j) % len(samples)] for j in range(length)))
                for a in range(arity)
            ]
            _assert_matches_the_evaluator(ring, kind, vecs, shift)
    ring = PerfPolyRing(p, nvars, 8 if p == 2 else 4)
    rng = random.Random(1000 * p + nvars)
    for kind, arity in _KINDS:
        for draw in range(6):
            vecs = [
                WittVec(ring, tuple(_bench_draw(rng, ring) for _ in range(length)))
                for _ in range(arity)
            ]
            _assert_matches_the_evaluator(ring, kind, vecs, draw)


@pytest.mark.parametrize("p, nvars", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_packed_radix_is_tight(p, nvars):
    """The packed kernel's radix is one more than the largest exponent a
    call can produce, and these inputs reach it: every variable but the last
    carries the top exponent T of the inputs and the last one a weight per
    input slot.  So ``char_p_witt_op`` at the longest cached length has an
    output monomial with exponent T * D (D the largest total degree of a
    structure-polynomial term) in x0, ``mul`` one with the sum of the
    operands' tops and ``pow_`` one with n * T.  With a radix one smaller,
    that exponent would carry into the next variable; every output equals
    the tuple-keyed oracle."""
    ring = PerfPolyRing(p, nvars, 1)
    oracle = oracles.PerfPolyOracle(p, nvars)
    top = 5 * ring.unit
    length = structure_cap(p) + 1

    def slot(w):
        exps = [Fraction(top, ring.unit)] * (nvars - 1) + [Fraction(w, ring.unit)]
        return ring.monomial(exps)

    def reaches(elts, exponent):
        return any(mono[0] == exponent for e in elts for mono, _ in e)

    for kind, arity in _KINDS:
        vecs = [
            WittVec(ring, tuple(slot(1 + a * length + j) for j in range(length)))
            for a in range(arity)
        ]
        degree = max(
            sum(exps) for i in range(length) for exps in structure_poly_mod_p(p, i, kind).terms
        )
        assert reaches(ring.char_p_witt_op(kind, vecs), top * degree), kind
        _assert_matches_the_evaluator(ring, kind, vecs, "radix")
    a, b = slot(3), ring.add(slot(top), ring.one())
    assert reaches([ring.mul(a, b)], 2 * top)
    assert ring.mul(a, b) == oracle.mul(a, b)
    for n in (1, 2, 3, p, p * p + 1, 2 * p):
        assert reaches([ring.pow_(b, n)], n * top)
        assert ring.pow_(b, n) == oracle.pow_(b, n), n


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
