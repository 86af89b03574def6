"""Base coefficient rings: exact arithmetic, precision tracking, seminorms."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittlab import reference
from wittlab.cyclotomic import CycloModPM
from wittlab.errors import (
    CapabilityMissing,
    MalformedConfig,
    NotDivisible,
    PrecisionExhausted,
    RingMismatch,
    WittError,
)
from wittlab.norms import NormValue
from wittlab.rings import (
    MAX_PRECISION,
    MAX_PRIME,
    Integers,
    Rationals,
    Ring,
    TruncatedRing,
    ZModPM,
    check_prime,
    vp_fraction,
    vp_int,
)

import oracles

small_ints = st.integers(min_value=-60, max_value=60)
small_fracs = st.fractions(min_value=-30, max_value=30, max_denominator=24)


def test_check_prime_accepts_primes_and_rejects_composites():
    assert check_prime(2) == 2
    assert check_prime(13) == 13
    for bad in (0, 1, 4, 9, -3, 15):
        with pytest.raises(MalformedConfig):
            check_prime(bad)


def test_the_prime_and_the_modulus_exponent_have_one_bound_each():
    # values just past each bound, cheap even if the bound failed; the CLI
    # tests probe large ones in a child process.  65521 is the largest prime
    # below 2**16 = 65536, and 65537 is prime; 2**20 is refused by the bound,
    # not as a composite
    assert check_prime(65521) == 65521
    assert ZModPM(2, MAX_PRECISION).M == MAX_PRECISION
    for p in (MAX_PRIME + 1, 2**20):
        with pytest.raises(MalformedConfig, match=f"^p = {p} is above the bound 65536$"):
            check_prime(p)
    for ring in (lambda M: ZModPM(2, M), lambda M: CycloModPM(2, 2, M)):
        with pytest.raises(MalformedConfig) as exc:
            ring(MAX_PRECISION + 1)
        assert str(exc.value) == "modulus exponent M = 65537 is above the bound 65536"


@given(small_ints, st.sampled_from([2, 3, 5, 7]))
def test_vp_int_matches_trial_division(n, p):
    if n == 0:
        assert vp_int(n, p) is None
    else:
        assert vp_int(n, p) == oracles.vp_int(n, p)


@given(small_fracs, st.sampled_from([2, 3, 5]))
def test_vp_fraction_matches_trial_division(q, p):
    if q == 0:
        assert vp_fraction(q, p) is None
    else:
        assert vp_fraction(q, p) == oracles.vp_fraction(q, p)


@given(small_ints, small_ints, small_ints, st.sampled_from([2, 3, 5]))
def test_integers_ring_laws(a, b, c, p):
    ring = Integers(p)
    assert ring.add(a, b) == a + b
    assert ring.mul(a, b) == a * b
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.sub(a, ring.neg(b)) == a + b


@given(small_ints, st.sampled_from([2, 3, 5]))
def test_integers_seminorm_is_p_adic(n, p):
    ring = Integers(p)
    v = ring.seminorm(n)
    if n == 0:
        assert v.is_zero
    else:
        assert v == NormValue.from_exponent(oracles.vp_int(n, p))


def test_integers_divide_by_p_and_root():
    ring = Integers(3)
    assert ring.exact_divide_by_p(12) == 4
    with pytest.raises(NotDivisible):
        ring.exact_divide_by_p(7)
    # no caller takes p-th roots mod p over Z: the Ring default refuses
    with pytest.raises(CapabilityMissing, match="^Z: p-th roots mod p not supported$"):
        ring.pth_root_mod_p(2)


@given(small_fracs, small_fracs, st.sampled_from([2, 3]))
def test_rationals_arithmetic_and_seminorm(a, b, p):
    ring = Rationals(p)
    assert ring.add(a, b) == a + b
    assert ring.mul(a, b) == a * b
    v = ring.seminorm(a)
    if a == 0:
        assert v.is_zero
    else:
        assert v == NormValue.from_exponent(oracles.vp_fraction(a, p))


def test_rationals_parse_and_capabilities():
    ring = Rationals(2)
    assert ring.parse_elt("3/4") == Fraction(3, 4)
    assert ring.q_algebra
    assert ring.p_torsion_free
    assert not Integers(2).q_algebra


def test_truncated_residues_track_precision():
    ring = ZModPM(2, 5)
    a = ring.from_int(7)
    assert a.prec == 5 and ring.digits(a) == (7,)
    b = ring.make(3, 2)
    assert ring.add(a, b).prec == 2
    assert ring.mul(a, b).prec == 2
    assert ring.eq(ring.make(2, 2), ring.make(6, 2))
    assert not ring.eq(ring.make(2, 3), ring.make(6, 3))


def test_truncated_frobenius_power_gains_digits():
    ring = ZModPM(2, 6)
    a = ring.make(3, 2)
    sq = ring.pow_p_tower(a, 1)
    assert sq.prec == 3
    assert ring.digits(sq) == (9 % 8,)
    assert ring.pow_p_tower(a, 10).prec == 6


def test_truncated_division_spends_a_digit():
    ring = ZModPM(3, 3)
    a = ring.from_int(6)
    q = ring.exact_divide_by_p(a)
    assert (ring.digits(q), q.prec) == ((2,), 2)
    with pytest.raises(NotDivisible):
        ring.exact_divide_by_p(ring.from_int(5))
    last = ring.make(3, 1)
    with pytest.raises(PrecisionExhausted):
        ring.exact_divide_by_p(last)


def _divide_one_p_at_a_time(ring, a, k):
    """a / p**k by k single divisions: the value, or the error type and text."""
    try:
        for _ in range(k):
            a = ring.exact_divide_by_p(a)
    except WittError as exc:
        return type(exc), str(exc)
    return a


def test_division_by_p_to_the_k_is_k_single_divisions():
    """Same quotient, and on failure the same error naming the same
    quotient and precision, on every override."""
    field = CycloModPM(3, 2, 4).field
    cases = [
        (Integers(3), [0, 7, 63, -135, 162, 243, -729]),
        (Rationals(3), [Fraction(0), Fraction(7, 2), Fraction(-162, 5)]),
        (ZModPM(3, 5), [ZModPM(3, 5).make(v, prec) for v in (0, 7, 63, 162, 81) for prec in (1, 3, 5)]),
        (CycloModPM(3, 2, 4), [CycloModPM(3, 2, 4).make(c, prec) for c in ([0] * 6, [9, 18, 0, 27, 0, 0], [3, 1]) for prec in (2, 4)]),
        (field, [field.from_coeffs([9, 2, 0, Fraction(1, 2)])]),
    ]
    for ring, elts in cases:
        for a in elts:
            for k in range(1, 5):
                want = _divide_one_p_at_a_time(ring, a, k)
                try:
                    got = ring.exact_divide_by_p(a, k)
                except WittError as exc:
                    got = type(exc), str(exc)
                assert got == want, (ring, a, k)
    assert Integers(3).exact_divide_by_p(162, 4) == 2
    with pytest.raises(NotDivisible, match="^5 is not divisible by 3$"):
        Integers(3).exact_divide_by_p(135, 4)
    # a truncated ring names the quotient as format_elt prints it, and its budget
    with pytest.raises(NotDivisible, match=r"^7 is not divisible by 3 \(mod 3\^3\)$"):
        ZModPM(3, 5).exact_divide_by_p(ZModPM(3, 5).make(63), 3)
    ring = CycloModPM(3, 2, 4)
    with pytest.raises(NotDivisible, match=r"^\[1, 2, 0, 3, 0, 0\] is not divisible by 3 \(mod 3\^2\)$"):
        ring.exact_divide_by_p(ring.make([9, 18, 0, 27, 0, 0]), 3)
    # a long quotient is quoted by a bounded prefix and its length
    big, quoted = int("7" * 3000), rf"'{'7' * 40}'\.\.\. \(3000 characters\)"
    with pytest.raises(NotDivisible, match=rf"^{quoted} is not divisible by 2$"):
        Integers(2).exact_divide_by_p(big)
    zmod = ZModPM(2, 10000)
    with pytest.raises(NotDivisible, match=rf"^{quoted} is not divisible by 2 \(mod 2\^10000\)$"):
        zmod.exact_divide_by_p(zmod.make(big))


def test_truncated_parse_format_roundtrip():
    ring = ZModPM(2, 4)
    a = ring.parse_elt("5~2")
    assert (ring.digits(a), a.prec) == ((1,), 2)
    assert ring.digits(ring.parse_elt(ring.format_elt(a))) == ring.digits(a)
    full = ring.parse_elt("11")
    assert (ring.digits(full), full.prec) == ((11,), 4)
    assert ring.format_elt(full) == "11"


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_truncated_ring_laws_mod_64(x, y, z):
    ring = ZModPM(2, 6)
    a, b, c = ring.from_int(x), ring.from_int(y), ring.from_int(z)
    assert ring.eq(ring.add(a, b), ring.add(b, a))
    assert ring.eq(ring.mul(a, b), ring.mul(b, a))
    assert ring.eq(
        ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))
    )
    assert ring.eq(ring.add(a, ring.neg(a)), ring.zero())


def test_truncated_seminorm_reads_the_canonical_lift():
    ring = ZModPM(2, 4)
    assert ring.seminorm(ring.from_int(12)) == NormValue.from_exponent(2)
    assert ring.seminorm(ring.from_int(16)).is_zero
    assert ring.seminorm(ring.from_int(0)).is_zero
    # Z[zeta_4]/2^4 and Z[zeta_9]/3^2: the valuation of the canonical lift,
    # from the oracle's field norm; the zero residue has seminorm 0
    for p, k, M, digits, prec in (
        (2, 2, 4, [16, 0], None),  # zero residue
        (2, 2, 4, [0, 0], 2),
        (2, 2, 4, [1, 0], None),  # unit
        (2, 2, 4, [3, 1], None),  # (1 + i)(2 - i)
        (2, 2, 4, [2, 2], None),
        (2, 2, 4, [0, 4], 3),
        (3, 2, 2, [1, 2, 0, 0, 0, 5], None),  # unit
        (3, 2, 2, [1, 8, 0, 0, 0, 0], None),  # 1 - zeta, up to a unit
        (3, 2, 2, [3, 0, 0, 6, 0, 0], 2),
    ):
        ring = CycloModPM(p, k, M)
        a = ring.from_digits(digits, prec)
        got = ring.seminorm(a)
        if not any(ring.digits(a)):
            assert got.is_zero
            continue
        v = oracles.cyclotomic_valuation(ring.digits(a), p, k)
        assert got == NormValue.from_exponent(v), (p, k, digits)
    unit = CycloModPM(2, 2, 4).from_digits([1, 0])
    assert CycloModPM(2, 2, 4).seminorm(unit) == NormValue.one()


class _CountingIntegers(Integers):
    """Integers that count their multiplications, powering through the
    generic ``Ring.pow_`` ladder in place of the native int power."""

    pow_ = Ring.pow_

    def __init__(self, p):
        super().__init__(p)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return a * b


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 100])
def test_generic_pow_squares_and_multiplies_from_the_lowest_set_bit(n):
    """a^n with bit_length(n) - 1 squarings and popcount(n) - 1 products:
    one() is never multiplied in."""
    ring = _CountingIntegers(3)
    assert ring.pow_(-3, n) == (-3) ** n
    want = 0 if n == 0 else n.bit_length() - 1 + bin(n).count("1") - 1
    assert ring.muls == want
    assert Rationals(3).pow_(Fraction(-2, 3), n) == Fraction(-2, 3) ** n


@pytest.mark.parametrize(
    "ring, samples",
    [
        (Integers(3), [0, 1, -1, 2, -3, 7, 12]),
        (Rationals(2), [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 4), Fraction(-5, 6)]),
    ],
    ids=["Z", "Q"],
)
def test_native_pow_matches_the_generic_ladder(ring, samples):
    for a in samples:
        for n in range(41):
            got = ring.pow_(a, n)
            want = Ring.pow_(ring, a, n)
            assert got == want and type(got) is type(want), (a, n)
        # a ** -n would invert silently: refused like every other ring
        for n in (-1, -2):
            with pytest.raises(CapabilityMissing):
                ring.pow_(a, n)


def test_generic_pow_refuses_negative_exponents():
    with pytest.raises(WittError):
        Rationals(2).pow_(Fraction(1, 2), -1)
    with pytest.raises(WittError):
        CycloModPM(2, 2, 3).pow_(CycloModPM(2, 2, 3).one(), -2)


# -- the truncated-ring digit layout, shared by Z/p^M and Z[zeta]/p^M ----------

TRUNCATED = [
    # ring, full-precision text, a text at precision 2, its canonical form,
    # and the JSON forms of both
    (ZModPM(2, 3), "5", "13~2", "1~2", 5, {"value": 1, "prec": 2}),
    (
        CycloModPM(2, 2, 3),
        "[5, 6]",
        "[13, -2]~2",
        "[1, 2]~2",
        [5, 6],
        {"coeffs": [1, 2], "prec": 2},
    ),
]
truncated_cases = pytest.mark.parametrize(
    "ring, full, partial, canonical, full_json, partial_json",
    TRUNCATED,
    ids=["Zmod", "ZzetaMod"],
)


@truncated_cases
def test_truncated_text_round_trip(ring, full, partial, canonical, full_json, partial_json):
    a = ring.parse_elt(full)
    assert ring.precision_of(a) == 3
    assert ring.format_elt(a) == full
    b = ring.parse_elt(partial)
    assert ring.precision_of(b) == 2
    assert ring.format_elt(b) == canonical
    back = ring.parse_elt(ring.format_elt(b))
    assert ring.eq(back, b) and ring.precision_of(back) == 2


@truncated_cases
def test_truncated_json_round_trip(ring, full, partial, canonical, full_json, partial_json):
    # the JSON form is written, never read back: pin it through a JSON dump
    a, b = ring.parse_elt(full), ring.parse_elt(partial)
    assert json.loads(json.dumps(ring.elt_to_json(a))) == full_json
    assert json.loads(json.dumps(ring.elt_to_json(b))) == partial_json


@truncated_cases
def test_truncate_keeps_the_low_digits(ring, full, partial, canonical, full_json, partial_json):
    a = ring.parse_elt(full)
    assert ring.format_elt(ring.truncate(a, 2)) == canonical
    assert ring.truncate(a, 3) is a
    b = ring.parse_elt(partial)
    assert ring.truncate(b, 3) is b


@truncated_cases
def test_digits_round_trip(ring, full, partial, canonical, full_json, partial_json):
    assert ring.truncated
    a, b = ring.parse_elt(full), ring.parse_elt(partial)
    assert len(ring.digits(a)) == ring.e
    assert ring.digits(a) == tuple(full_json if ring.e > 1 else [full_json])
    assert ring.format_elt(ring.from_digits(ring.digits(a))) == full
    c = ring.from_digits(ring.digits(b), 2)
    assert ring.eq(c, b) and ring.precision_of(c) == 2
    assert tuple(d % ring.p for d in ring.digits(a)) == ((1,) if ring.e == 1 else (1, 0))
    assert len(ring.elements(64 ** ring.e)) == 8 ** ring.e


@truncated_cases
def test_bad_truncated_text_is_a_config_error(
    ring, full, partial, canonical, full_json, partial_json
):
    for text in (full + "~x", full + "~0", full + "~4", "x"):
        with pytest.raises(WittError):
            ring.parse_elt(text)
    with pytest.raises(MalformedConfig):
        ring.parse_elt(full + "~x")


def test_the_truncated_flag_marks_exactly_the_truncated_rings():
    for ring in (Integers(2), Rationals(2), CycloModPM(2, 2, 3).field):
        assert not ring.truncated and not isinstance(ring, TruncatedRing)
    for ring, *_ in TRUNCATED:
        assert ring.truncated and isinstance(ring, TruncatedRing)


# -- one precision rule on both truncated rings --------------------------------

SHARED_ARITHMETIC = {
    "from_digits", "digits", "make", "from_int", "add", "neg", "mul", "pow_", "pow_p_tower",
    "eq", "is_zero", "exact_divide_by_p", "with_precision",
}


def test_the_truncated_rings_share_one_arithmetic():
    assert SHARED_ARITHMETIC <= set(vars(TruncatedRing))
    for cls in (ZModPM, CycloModPM):
        assert not SHARED_ARITHMETIC & set(vars(cls)), cls


def _int_mul(ring, a, b):
    """a * b on integer digits: over Z, or over Z[zeta] by the reference."""
    if ring.scalar:
        return [a[0] * b[0]]
    return reference.conv_reduce(a, b, ring.p, ring.k)


def _int_pow(ring, a, n):
    out = [1] + [0] * (ring.e - 1)
    for _ in range(n):
        out = _int_mul(ring, out, a)
    return out


def _mod(digits, p, k):
    return tuple(d % p**k for d in digits)


@pytest.mark.parametrize(
    "ring",
    [ZModPM(2, 6), ZModPM(3, 4), CycloModPM(2, 3, 4), CycloModPM(3, 2, 2)],
    ids=["Zmod-2-6", "Zmod-3-4", "ZzetaMod-2-3-4", "ZzetaMod-3-2-2"],
)
def test_truncated_arithmetic_matches_integer_arithmetic(ring):
    """Every operation of the shared rule against integer arithmetic mod
    p**k on unreduced lifts: sums and products keep the smaller budget, a
    p**l-th power gains l digits (capped at M), a division by p spends one."""
    rng = random.Random(f"truncated:{ring.label}")
    p, M, e = ring.p, ring.M, ring.e

    def draw():
        return [rng.randrange(-(p ** (M + 1)), p ** (M + 1)) for _ in range(e)]

    def check(got, digits, k):
        assert (ring.digits(got), ring.precision_of(got)) == (_mod(digits, p, k), k)

    for _ in range(30):
        ka, kb = rng.randint(1, M), rng.randint(1, M)
        da, db = draw(), draw()
        a, b = ring.from_digits(da, ka), ring.from_digits(db, kb)
        check(a, da, ka)
        k = min(ka, kb)
        check(ring.add(a, b), [x + y for x, y in zip(da, db)], k)
        check(ring.sub(a, b), [x - y for x, y in zip(da, db)], k)
        check(ring.mul(a, b), _int_mul(ring, da, db), k)
        check(ring.neg(a), [-x for x in da], ka)
        for n in (0, 1, 2, 3, 5):
            check(ring.pow_(a, n), _int_pow(ring, da, n), ka if n else M)
        for l in (0, 1, 2):
            check(ring.pow_p_tower(a, l), _int_pow(ring, da, p**l), min(ka + l, M))

        # eq at unequal budgets compares mod p**min; is_zero reads the digits
        near = [x + p**k * rng.randint(-3, 3) for x in da]
        assert ring.eq(a, ring.from_digits(near, kb)) and ring.eq(ring.from_digits(near, kb), a)
        off = [near[0] + p ** (k - 1)] + near[1:]
        assert not ring.eq(a, ring.from_digits(off, kb))
        assert ring.eq(a, b) == all((x - y) % p**k == 0 for x, y in zip(da, db))
        assert ring.is_zero(a) == all(x % p**ka == 0 for x in da)
        assert ring.is_zero(ring.from_digits([p**ka * x for x in da], ka))

        # the seminorm of the canonical lift
        lift = _mod(da, p, ka)
        if not any(lift):
            assert ring.seminorm(a).is_zero
        else:
            v = vp_int(lift[0], p) if ring.scalar else oracles.cyclotomic_valuation(lift, p, ring.k)
            assert ring.seminorm(a) == NormValue.from_exponent(v)

        # a / p**j: one digit per division; the first failure names the
        # quotient so far at its budget, a division to no digits is refused
        j = rng.randint(0, 3)
        c = ring.from_digits([p**j * x for x in da], ka)
        lift = ring.digits(c)
        for kdiv in (1, 2, 3):
            for i in range(kdiv):
                if any(x % p ** (i + 1) for x in lift):
                    body = ring.format_elt(ring.from_digits([x // p**i for x in lift]))
                    want = (NotDivisible, f"{body} is not divisible by {p} (mod {p}^{ka - i})")
                    break
                if ka - i - 1 < 1:
                    want = (PrecisionExhausted, "dividing by p would leave no significant digits")
                    break
            else:
                want = None
            if want is None:
                check(ring.exact_divide_by_p(c, kdiv), [x // p**kdiv for x in lift], ka - kdiv)
            else:
                with pytest.raises(want[0]) as exc:
                    ring.exact_divide_by_p(c, kdiv)
                assert str(exc.value) == want[1]

    # no element without digits, none past the modulus
    with pytest.raises(PrecisionExhausted):
        ring.from_digits([1], 0)
    with pytest.raises(MalformedConfig):
        ring.from_digits([1], M + 1)


@pytest.mark.parametrize(
    "ring",
    [ZModPM(2, 6), ZModPM(5, 3), CycloModPM(2, 3, 4), CycloModPM(3, 2, 2)],
    ids=["Zmod-2-6", "Zmod-5-3", "ZzetaMod-2-3-4", "ZzetaMod-3-2-2"],
)
def test_the_cover_lift_is_the_balanced_representative(ring):
    """Each digit lifts into (-p**k/2, p**k/2] for an element known mod
    p**k, and reducing the lift at k gives the element back."""
    rng = random.Random(f"lift:{ring.label}")
    p, M = ring.p, ring.M
    for k in range(1, M + 1):
        q = p**k
        edges = [0, 1, q // 2, q // 2 + 1, q - 1]
        for _ in range(50):
            a = ring.from_digits([rng.choice(edges + [rng.randrange(q)]) for _ in range(ring.e)], k)
            lift = ring.lift_to_cover(a)
            digits = (lift,) if ring.scalar else lift.nums
            assert all(-q < 2 * d <= q for d in digits), (a, lift)
            assert _mod(digits, p, k) == ring.digits(a)
            assert ring.reduce_from_cover(lift, k) == a


class _CountingZModPM(ZModPM):
    def __init__(self, p, M, calls):
        super().__init__(p, M)
        self.calls = calls

    def to_config(self):
        self.calls.append(self)
        return super().to_config()


def test_same_ring_tests_identity_before_the_config():
    calls = []
    ring = _CountingZModPM(3, 4, calls)
    assert ring.same_ring(ring)
    ring.require_same(ring)
    assert calls == []
    # equal instances still match through their configs
    assert ZModPM(3, 4).same_ring(ZModPM(3, 4))
    ZModPM(3, 4).require_same(ZModPM(3, 4))
    assert ring.same_ring(ZModPM(3, 4)) and calls == [ring]
    for other in (ZModPM(3, 3), ZModPM(2, 4), Integers(3), CycloModPM(3, 1, 4)):
        assert not ZModPM(3, 4).same_ring(other)
        with pytest.raises(RingMismatch):
            ZModPM(3, 4).require_same(other)
