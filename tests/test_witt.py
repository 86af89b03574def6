"""Witt vector arithmetic: ghost transport, operators, norms, serialization."""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import reference
from wittlab.cyclotomic import GaussianField, cyclotomic_field
from wittlab.errors import (
    CapabilityMissing,
    IntegralityViolation,
    LengthMismatch,
    MalformedConfig,
    NotDivisible,
    RingMismatch,
)
from wittlab.norms import NormValue
from wittlab.perfpoly import PerfPolyRing
from wittlab.rings import Integers, Rationals, ZModPM
from wittlab.cyclotomic import CycloModPM
from wittlab.tilt import TiltRing, make_tilt, tilt_from_top
from wittlab import witt as witt_module
from wittlab.univ import structure_cap, structure_poly
from wittlab.witt import (
    WittVec,
    format_witt,
    frobenius,
    ghost,
    integer_witt_components,
    parse_witt,
    restrict,
    teich_mul,
    teichmuller,
    unghost,
    verschiebung,
    witt_add,
    witt_combination,
    witt_eq,
    witt_from_integer,
    witt_mul,
    witt_neg,
    witt_norm,
    witt_one,
    witt_sub,
    witt_to_json,
    witt_zero,
)

import oracles

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

int_vec = st.lists(st.integers(-8, 8), min_size=1, max_size=4)


def _zvec(comps, p=2):
    ring = Integers(p)
    return WittVec(ring, tuple(ring.from_int(c) for c in comps))


def test_ghost_example():
    assert ghost(_zvec([1, 1])).entries == (1, 3)


def test_unghost_example():
    ring = Integers(2)
    x = unghost(ghost(_zvec([3, -2])))
    assert x.components == (3, -2)
    direct = unghost(ghost(WittVec(ring, (3, 5))))
    assert direct.components == (3, 5)


def test_from_integer_two():
    assert witt_from_integer(Integers(2), 2, 2).components == (2, -1)
    assert integer_witt_components(2, 2, 3) == (2, -1, -4)


def test_unghost_rejects_non_integral_targets():
    ring = Integers(2)
    from wittlab.witt import GhostVec

    with pytest.raises((IntegralityViolation, NotDivisible)):
        unghost(GhostVec(ring, (1, 2)))


def test_teichmuller_sum():
    one = teichmuller(Integers(2), 1, 2)
    total = witt_add(one, one)
    assert total.components == (2, -1)


@given(int_vec, st.sampled_from([2, 3]))
def test_ghost_matches_oracle(comps, p):
    x = _zvec(comps, p)
    assert ghost(x).entries == reference.ghost(p, comps)
    assert reference.unghost(p, reference.ghost(p, comps)) == tuple(comps)


@given(int_vec, int_vec, st.sampled_from([2, 3]))
def test_add_and_mul_are_ghost_pointwise(a, b, p):
    n = min(len(a), len(b))
    x, y = _zvec(a[:n], p), _zvec(b[:n], p)
    wx = reference.ghost(p, a[:n])
    wy = reference.ghost(p, b[:n])
    assert ghost(witt_add(x, y)).entries == tuple(u + v for u, v in zip(wx, wy))
    assert ghost(witt_mul(x, y)).entries == tuple(u * v for u, v in zip(wx, wy))
    assert ghost(witt_sub(x, y)).entries == tuple(u - v for u, v in zip(wx, wy))
    assert ghost(witt_neg(x)).entries == tuple(-u for u in wx)


@given(int_vec.filter(lambda v: len(v) >= 2), st.sampled_from([2, 3]))
def test_frobenius_shifts_and_verschiebung_scales_ghosts(comps, p):
    x = _zvec(comps, p)
    w = reference.ghost(p, comps)
    assert ghost(frobenius(x)).entries == w[1:]
    # V prepends a zero component, extending the vector by one level
    wv = ghost(verschiebung(x)).entries
    assert wv[0] == 0
    assert wv[1:] == tuple(p * u for u in w)


@given(int_vec, st.sampled_from([2, 3]))
def test_frobenius_after_verschiebung_is_multiplication_by_p(comps, p):
    x = _zvec(comps, p)
    assert witt_eq(frobenius(verschiebung(x)), witt_mul(witt_from_integer(x.ring, p, x.length), x))


def test_mixed_lengths_are_rejected():
    with pytest.raises(LengthMismatch):
        witt_add(_zvec([1, 2]), _zvec([1]))


def test_teichmuller_is_multiplicative():
    ring = Rationals(2)
    for r, s in [(Fraction(3), Fraction(5)), (Fraction(1, 2), Fraction(4))]:
        lhs = witt_mul(teichmuller(ring, r, 3), teichmuller(ring, s, 3))
        assert witt_eq(lhs, teichmuller(ring, r * s, 3))
    x = WittVec(ring, (Fraction(1), Fraction(2), Fraction(-1)))
    assert witt_eq(teich_mul(Fraction(3), x), witt_mul(teichmuller(ring, Fraction(3), 3), x))


def test_truncated_ring_ops_reduce_the_integer_result():
    zring = Integers(2)
    tring = ZModPM(2, 3)
    a, b = [1, 2, 3], [3, 1, 2]
    over_z = witt_mul(_zvec(a), _zvec(b))
    over_t = witt_mul(
        WittVec(tring, tuple(tring.from_int(c) for c in a)),
        WittVec(tring, tuple(tring.from_int(c) for c in b)),
    )
    for zc, tc in zip(over_z.components, over_t.components):
        assert (zc - tring.digits(tc)[0]) % 2**tc.prec == 0


def test_char_p_frobenius_is_componentwise_power():
    ring = PerfPolyRing(2, 1, 3)
    x = WittVec(
        ring,
        (
            ring.monomial([Fraction(1, 2)]),
            ring.add(ring.one(), ring.monomial([Fraction(3, 4)])),
        ),
    )
    fx = frobenius(restrict(x, 1))
    assert fx.components == (ring.monomial([1]),)


def test_witt_norm_is_the_weighted_sup():
    ring = Rationals(2)
    x = WittVec(ring, (Fraction(4), Fraction(1, 2), Fraction(3)))
    # exponents: v(4)/1 = 2, v(1/2)/2 = -1/2, v(3)/4 = 0
    assert witt_norm(x) == NormValue.from_exponent(Fraction(-1, 2))
    assert witt_norm(witt_zero(ring, 3)).is_zero
    assert witt_norm(witt_one(ring, 3)) == NormValue.one()


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=8), min_size=1, max_size=3))
def test_witt_norm_matches_direct_formula(comps):
    ring = Rationals(3)
    x = WittVec(ring, tuple(comps))
    exps = [
        Fraction(oracles.vp_fraction(c, 3), 3**i)
        for i, c in enumerate(comps)
        if c != 0
    ]
    if not exps:
        assert witt_norm(x).is_zero
    else:
        assert witt_norm(x) == NormValue.from_exponent(min(exps))


def test_text_serialization_roundtrip():
    ring = Integers(2)
    x = WittVec(ring, (3, -2))
    assert format_witt(x) == "(3, -2)"
    assert parse_witt(ring, "W(p=2; 3, -2)").components == (3, -2)
    assert parse_witt(ring, "(3, -2)").components == (3, -2)
    with pytest.raises(MalformedConfig):
        parse_witt(ring, "W(p=3; 1, 0)")
    with pytest.raises(MalformedConfig):
        parse_witt(ring, "()")


def test_json_roundtrip():
    # the JSON form is written, never read back: pin it, and rebuild the
    # vector from its text form, which keeps the lost digit
    ring = ZModPM(2, 4)
    x = WittVec(ring, (ring.make(5, 4), ring.make(3, 2)))
    assert witt_to_json(x) == {
        "ring": {"kind": "Zmod", "p": 2, "M": 4},
        "components": [5, {"value": 3, "prec": 2}],
    }
    back = parse_witt(ring, format_witt(x))
    assert witt_eq(back, x)
    assert back.components[1].prec == 2


def test_ghost_table_matches_golden():
    ring = Integers(2)
    with open(os.path.join(GOLDEN, "ghost_table_p2.txt"), encoding="utf-8") as fh:
        for line in fh:
            left, right = line.strip().split(" -> ")
            x = parse_witt(ring, left)
            want = tuple(int(tok) for tok in right.strip("()").split(", "))
            assert ghost(x).entries == want


def _cyclo_ghost(p, k, comps):
    """Ghost components over Q(zeta_{p^k}) via the convolution oracle."""
    e = p ** (k - 1) * (p - 1)

    def power(coeffs, n):
        acc = [Fraction(1)] + [Fraction(0)] * (e - 1)
        for _ in range(n):
            acc = reference.conv_reduce(acc, coeffs, p, k)
        return acc

    out = []
    for m in range(len(comps)):
        acc = [Fraction(0)] * e
        for i in range(m + 1):
            contrib = power(list(comps[i]), p ** (m - i))
            acc = [a + p**i * c for a, c in zip(acc, contrib)]
        out.append(tuple(acc))
    return tuple(out)


def test_q_algebra_cyclotomic_arithmetic_goes_through_ghosts():
    field = cyclotomic_field(2, 2)
    i_unit = field.from_coeffs([0, 1])
    x = WittVec(field, (i_unit, field.one()))
    y = WittVec(field, (field.one(), i_unit))
    total = witt_add(x, y)
    gx = _cyclo_ghost(2, 2, [field.coeffs(c) for c in x.components])
    gy = _cyclo_ghost(2, 2, [field.coeffs(c) for c in y.components])
    want = tuple(tuple(map(sum, zip(u, v))) for u, v in zip(gx, gy))
    assert tuple(field.coeffs(c) for c in ghost(total).entries) == want


def test_gaussian_vectors_restrict_consistently():
    field = GaussianField(5)
    x = WittVec(field, (field.from_pair(1, 2), field.from_pair(0, 1), field.one()))
    assert restrict(x, 1).components == x.components[:2]
    assert witt_eq(witt_add(restrict(x, 1), witt_zero(field, 2)), restrict(x, 1))


# -- characteristic p: cached structure polynomials ---------------------------


def test_char_two_teichmuller_doubling_carries_a_square():
    # sum[p=2,i=1] = x2 + y2 - x1*y1, so [x] + [x] = (0, -x^2) = (0, x^2)
    ring = PerfPolyRing(2, 1, 3)
    x = ring.monomial([1])
    total = witt_add(teichmuller(ring, x, 2), teichmuller(ring, x, 2))
    assert witt_eq(total, WittVec(ring, (ring.zero(), ring.monomial([2]))))


def _char_p_draw(rng, ring):
    if isinstance(ring, TiltRing):
        return tilt_from_top(ring.base, ring.base.from_int(rng.randrange(8)), ring.depth)
    acc = ring.zero()
    for _ in range(rng.randint(1, 2)):
        exponent = Fraction(rng.randrange(2 * ring.unit), ring.unit)
        acc = ring.add(acc, ring.monomial([exponent], rng.randrange(1, ring.p)))
    return acc


_CHAR_P_CASES = (
    [(PerfPolyRing(2, 1, 3), n) for n in range(1, 5)]
    + [(PerfPolyRing(3, 1, 2), n) for n in range(1, 4)]
    + [(TiltRing(ZModPM(2, 3), 3), n) for n in (1, 2)]
)


@pytest.mark.parametrize(
    "ring, length", _CHAR_P_CASES, ids=[f"{r.kind}-p{r.p}-len{n}" for r, n in _CHAR_P_CASES]
)
def test_char_p_negation_and_distributivity(ring, length):
    rng = random.Random(f"{ring.kind}|{ring.p}|{length}")
    for _ in range(3):
        x, y, z = (
            WittVec(ring, tuple(_char_p_draw(rng, ring) for _ in range(length)))
            for _ in range(3)
        )
        assert witt_eq(witt_add(x, witt_neg(x)), witt_zero(ring, length))
        assert witt_eq(
            witt_mul(x, witt_add(y, z)), witt_add(witt_mul(x, y), witt_mul(x, z))
        )


@pytest.mark.parametrize(
    "ring", [PerfPolyRing(2, 1, 3), PerfPolyRing(3, 1, 2)], ids=["PerfPoly-p2", "PerfPoly-p3"]
)
def test_char_p_ops_refuse_one_length_past_the_cap(ring):
    x = witt_one(ring, structure_cap(ring.p) + 2)
    with pytest.raises(CapabilityMissing):
        witt_add(x, x)
    with pytest.raises(CapabilityMissing):
        witt_mul(x, x)
    if ring.p == 2:
        with pytest.raises(CapabilityMissing):
            witt_neg(x)
    else:
        assert witt_eq(witt_neg(x), WittVec(ring, tuple(ring.neg(c) for c in x.components)))


# -- char-p operations over tilts at any length ----------------------------------


def _zp_image(x, L):
    """A vector over a tilt of Z/p^M in Z/p^L: W(tilt) = W(F_p) = Z_p sends
    (x_0, x_1, ...) to sum_i omega(x_i) p^i, with omega the Teichmueller lift
    of the residue of x_i, computed as a^(p^(L-1)) mod p^L."""
    p, base, mod = x.ring.p, x.ring.base, x.ring.p ** L
    return sum(
        pow(base.digits(c.entries[0])[0] % p, p ** (L - 1), mod) * p ** i
        for i, c in enumerate(x.components)
    ) % mod


_ZP_TILTS = [(3, 3, 4), (2, 4, 4), (5, 2, 3), (2, 2, 5)]


@pytest.mark.parametrize("p, M, D", _ZP_TILTS, ids=[f"p{p}-M{M}-D{D}" for p, M, D in _ZP_TILTS])
def test_char_p_tilt_ops_match_zp_past_the_old_cap(p, M, D):
    """Tilts read no structure polynomial, so their char-p ops take any
    length; at lengths 1-7 they agree with W(F_p) = Z_p."""
    base = ZModPM(p, M)
    ring = TiltRing(base, D)
    rng = random.Random(f"zp|{p}|{M}|{D}")
    for L in range(1, 8):
        for _ in range(5):
            x, y = (
                WittVec(ring, tuple(
                    tilt_from_top(base, base.from_int(rng.randrange(p ** M)), D)
                    for _ in range(L)
                ))
                for _ in range(2)
            )
            mod = p ** L
            assert _zp_image(witt_add(x, y), L) == (_zp_image(x, L) + _zp_image(y, L)) % mod
            assert _zp_image(witt_mul(x, y), L) == _zp_image(x, L) * _zp_image(y, L) % mod


@pytest.mark.parametrize("base", [CycloModPM(2, 1, 4), CycloModPM(2, 2, 4)], ids=repr)
def test_char_p_tilt_ring_laws_past_the_old_cap(base):
    ring = TiltRing(base, 2)
    rng = random.Random(f"laws|{base!r}")

    def draw(L):
        return WittVec(ring, tuple(
            tilt_from_top(base, base.from_digits(
                [rng.randrange(base.p ** base.M) for _ in range(base.e)]
            ), 2)
            for _ in range(L)
        ))

    for L in (5, 6, 7, 5, 6, 7):
        x, y, z = draw(L), draw(L), draw(L)
        assert witt_eq(witt_mul(x, witt_add(y, z)), witt_add(witt_mul(x, y), witt_mul(x, z)))
        assert witt_eq(witt_add(witt_add(x, y), z), witt_add(x, witt_add(y, z)))
        assert witt_eq(witt_mul(witt_mul(x, y), z), witt_mul(x, witt_mul(y, z)))


# -- char-p operations against the full integer structure polynomials -----------

_FULL_POLY_RINGS = [
    PerfPolyRing(2, 1, 3),
    PerfPolyRing(3, 1, 2),
    TiltRing(ZModPM(2, 3), 3),
    TiltRing(CycloModPM(2, 2, 3), 3),
    TiltRing(CycloModPM(3, 1, 2), 4),
    TiltRing(ZModPM(3, 3), 4),
    TiltRing(CycloModPM(2, 5, 4), 4),
    TiltRing(CycloModPM(2, 2, 4), 2),
    # D > M with p**M < e: the p**M-th power does not flatten A/p, so a
    # sum read off a slot below the top would differ
    TiltRing(CycloModPM(2, 4, 2), 4),
]


def _mixed_chain_draw(rng, ring):
    """A coherent chain whose top carries a random precision and whose slots
    are then cut to random precisions (coherence only needs the minimum)."""
    base = ring.base
    top = base.from_digits(
        [rng.randrange(base.p ** base.M) for _ in range(base.e)], rng.randint(1, base.M)
    )
    chain = tilt_from_top(base, top, ring.depth)
    entries = [base.truncate(e, rng.randint(1, base.M)) for e in chain.entries]
    return make_tilt(base, entries)


def _full_poly_image(ring, kind, vecs):
    """The vector whose component i is the integer ``kind`` polynomial,
    evaluated naively on the first i+1 components of each operand."""
    return WittVec(ring, tuple(
        oracles.eval_poly(
            ring,
            structure_poly(ring.p, i, kind).terms,
            [c for v in vecs for c in v.components[: i + 1]],
        )
        for i in range(vecs[0].length)
    ))


@pytest.mark.parametrize(
    "ring",
    _FULL_POLY_RINGS,
    ids=[
        "PerfPoly-p2",
        "PerfPoly-p3",
        "tilt-Zmod-p2",
        "tilt-ZzetaMod-p2",
        "tilt-ZzetaMod-p3",
        "tilt-Zmod-p3-D4M3",
        "tilt-Zzeta32-p2-D4M4",
        "tilt-ZzetaMod-p2-D2M4",
        "tilt-Zzeta16-p2-D4M2",
    ],
)
def test_char_p_ops_match_the_full_integer_polynomials(ring):
    """Evaluating the polynomials reduced mod p gives the bytes the integer
    polynomials give, at every cached length, on drawn vectors and on the
    zero and one vectors; the oracle evaluates the integer ones naively, each
    coefficient through from_int."""
    rng = random.Random(repr(ring))
    draw = _mixed_chain_draw if isinstance(ring, TiltRing) else _char_p_draw
    for length in range(1, structure_cap(ring.p) + 2):
        a, b, c, d = (
            WittVec(ring, tuple(draw(rng, ring) for _ in range(length))) for _ in range(4)
        )
        zero, one = witt_zero(ring, length), witt_one(ring, length)
        for x, y in ((a, b), (c, d), (zero, a), (b, one), (one, one)):
            for kind, op in (("sum", witt_add), ("prod", witt_mul)):
                want = _full_poly_image(ring, kind, (x, y))
                assert witt_to_json(op(x, y)) == witt_to_json(want), (kind, length)
            want = _full_poly_image(ring, "neg", (x,))
            if ring.p == 2:
                assert witt_to_json(witt_neg(x)) == witt_to_json(want), ("neg", length)
            else:
                # odd p negates componentwise, keeping each slot's precision
                assert witt_eq(witt_neg(x), want)


class _CountingCycloModPM(CycloModPM):
    """Z[zeta]/p^M that records the precisions it multiplies at and the
    exponents of its p-power ladder steps."""

    def __init__(self, *args):
        super().__init__(*args)
        self.mul_precs, self.towers = set(), []

    def mul(self, a, b):
        self.mul_precs.update((a.prec, b.prec))
        return super().mul(a, b)

    def pow_(self, a, n):
        self.mul_precs.add(a.prec)
        return super().pow_(a, n)

    def pow_p_tower(self, a, l):
        self.towers.append(l)
        return super().pow_p_tower(a, l)


def test_char_p_tilt_sum_runs_in_a_mod_p_with_one_ladder_per_component(monkeypatch):
    """A char-p sum or product over a tilt is one base transport, on the
    operands' top slots, at D = M, D > M and D < M; it multiplies no base element
    above precision 1, and each component walks one ladder of D single
    p-power steps."""
    unghosts = []
    real_unghost = witt_module.unghost
    monkeypatch.setattr(witt_module, "unghost", lambda g, *a: unghosts.append(g) or real_unghost(g, *a))
    for k, M in ((5, 4), (2, 2), (2, 5)):
        base = _CountingCycloModPM(2, k, M)
        ring = TiltRing(base, 4)
        rng = random.Random(9)
        x, y = (
            WittVec(ring, tuple(
                tilt_from_top(base, base.from_digits([rng.randrange(2**M) for _ in range(base.e)]), 4)
                for _ in range(4)
            ))
            for _ in range(2)
        )
        for op in (witt_add, witt_mul):
            base.mul_precs.clear()
            base.towers.clear()
            unghosts.clear()
            op(x, y)
            assert len(unghosts) == 1, (k, M, op)
            assert base.mul_precs <= {1}, (k, M, op)
            assert base.towers == [1] * ring.depth * 4, (k, M, op)


def test_char_p_tilt_ops_check_every_operand_chain():
    ring = TiltRing(CycloModPM(2, 2, 3), 3)
    x = WittVec(ring, tuple(ring.one() for _ in range(3)))
    strangers = [
        (TiltRing(CycloModPM(2, 2, 2), 3).one(), RingMismatch),
        (TiltRing(ZModPM(2, 3), 3).one(), RingMismatch),
        (TiltRing(CycloModPM(2, 2, 3), 2).one(), LengthMismatch),
    ]
    for chain, error in strangers:
        y = WittVec(ring, (ring.one(), chain, ring.zero()))
        for op in (witt_add, witt_mul):
            with pytest.raises(error):
                op(x, y)
            with pytest.raises(error):
                op(y, x)


@pytest.mark.parametrize("ring", [Integers(3), ZModPM(3, 4), CycloModPM(2, 2, 3)], ids=repr)
def test_witt_combination_is_the_chain_of_products_and_sums(ring):
    """sum_j c_j * v_j in one transport has the bytes of witt_mul by the
    integer vectors and witt_add, precision included, for negative and zero
    coefficients too."""
    rng = random.Random(31)

    def draw():
        if not ring.truncated:
            return rng.randint(-40, 40)
        digits = [rng.randrange(ring.p ** ring.M) for _ in range(ring.e)]
        return ring.from_digits(digits, rng.randint(1, ring.M))

    for length in (1, 2, 3, 4):
        for count in (1, 2, 3):
            vecs = [WittVec(ring, tuple(draw() for _ in range(length))) for _ in range(count)]
            coeffs = [rng.choice([0, 1, -1, 2, 3, 9, -4]) for _ in range(count)]
            want = witt_mul(witt_from_integer(ring, coeffs[0], length), vecs[0])
            for c, v in zip(coeffs[1:], vecs[1:]):
                want = witt_add(want, witt_mul(witt_from_integer(ring, c, length), v))
            got = witt_combination(coeffs, vecs)
            assert witt_to_json(got) == witt_to_json(want), (length, coeffs)


def test_witt_combination_refuses_what_it_cannot_transport():
    ring = ZModPM(2, 3)
    x = WittVec(ring, (ring.one(), ring.zero()))
    with pytest.raises(LengthMismatch):
        witt_combination([1, 2], [x])
    with pytest.raises(LengthMismatch):
        witt_combination([], [])
    with pytest.raises(LengthMismatch):
        witt_combination([1, 1], [x, WittVec(ring, (ring.one(),))])
    with pytest.raises(RingMismatch):
        witt_combination([1, 1], [x, WittVec(ZModPM(2, 4), (ring.one(), ring.zero()))])
    tilt = TiltRing(ring, 2)
    with pytest.raises(CapabilityMissing):
        witt_combination([1], [WittVec(tilt, (tilt.one(),))])
