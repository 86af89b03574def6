"""Cyclotomic fields, their truncations, the tower, and the Gaussian field."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wittlab import reference
from wittlab.cyclotomic import (
    CVec,
    CycloModPM,
    CyclotomicField,
    CyclotomicTower,
    GaussianField,
    cyclotomic_field,
)
from wittlab.errors import CapabilityMissing, IntegralityViolation, MalformedConfig, NoRoot
from wittlab.norms import NormValue

import oracles

coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def field_and_pair(draw):
    p, k = draw(
        st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (2, 5)])
    )
    field = cyclotomic_field(p, k)
    a = tuple(draw(coeff) for _ in range(field.e))
    b = tuple(draw(coeff) for _ in range(field.e))
    return field, a, b


def _pinned_pair(p, k):
    field = cyclotomic_field(p, k)
    a = tuple(Fraction(i - 3, i % 4 + 1) for i in range(field.e))
    b = tuple(Fraction(5 - 2 * i, 3) for i in range(field.e))
    return field, a, b


@given(field_and_pair())
@example(_pinned_pair(2, 3))  # Q(zeta_8)
@example(_pinned_pair(3, 2))  # Q(zeta_9)
@example(_pinned_pair(5, 2))  # Q(zeta_25)
@settings(max_examples=60)
def test_field_multiplication_matches_convolution_oracle(data):
    field, a, b = data
    got = field.mul(field.from_coeffs(a), field.from_coeffs(b))
    want = tuple(reference.conv_reduce(a, b, field.p, field.k))
    assert field.coeffs(got) == want


@given(field_and_pair())
@settings(max_examples=40)
def test_field_valuation_matches_determinant_oracle(data):
    field, a, _ = data
    x = field.from_coeffs(a)
    if all(c == 0 for c in a):
        assert field.seminorm(x).is_zero
        return
    v = oracles.cyclotomic_valuation(a, field.p, field.k)
    assert field.valuation(x) == v
    assert field.seminorm(x) == NormValue.from_exponent(v)


@given(field_and_pair())
@settings(max_examples=40)
def test_field_inverse(data):
    field, a, b = data
    x, y = field.from_coeffs(a), field.from_coeffs(b)
    if not field.is_zero(x):
        product = reference.conv_reduce(a, field.coeffs(field.inv(x)), field.p, field.k)
        assert tuple(product) == field.coeffs(field.one())
    assert field.eq(field.sub(field.add(x, y), y), x)


@given(field_and_pair(), st.integers(0, 12))
@settings(max_examples=40)
def test_field_power_matches_repeated_convolution(data, n):
    field, a, _ = data
    want = [Fraction(1)] + [Fraction(0)] * (field.e - 1)
    for _ in range(n):
        want = reference.conv_reduce(want, a, field.p, field.k)
    assert field.coeffs(field.pow_(field.from_coeffs(a), n)) == tuple(want)


def test_a_field_degree_past_the_bound_is_refused_before_it_is_built():
    assert CyclotomicField(2, 19).e == 1 << 18  # the bound itself
    assert CyclotomicField(3, 11).e == 2 * 3**10
    for p, k, e in ((2, 20, "1*2^(k-1)"), (3, 12, "2*3^(k-1)"), (5, 10**12, "4*5^(k-1)")):
        with pytest.raises(MalformedConfig) as exc:
            CyclotomicField(p, k)
        want = f"conductor exponent k={k} gives field degree e = {e}, above the bound 262144"
        assert str(exc.value) == want
    with pytest.raises(MalformedConfig, match="k=72"):
        CycloModPM(2, 72, 3)


def test_the_field_cache_serves_no_bool_or_float_equal_to_a_cached_int():
    cyclotomic_field(2, 1)
    for p, k in ((2, True), (2, 1.0), (2.0, 1)):
        with pytest.raises(MalformedConfig, match=r"^(p|conductor exponent k) must be an integer"):
            cyclotomic_field(p, k)


def test_inverse_in_q_zeta_128():
    field = cyclotomic_field(2, 7)
    assert field.e == 64
    a = field.from_coeffs([Fraction(1, 2), 3, 0, -1] + [0] * 59 + [Fraction(2, 3)])
    inv = field.inv(a)
    product = reference.conv_reduce(field.coeffs(a), field.coeffs(inv), 2, 7)
    assert tuple(product) == field.coeffs(field.one())
    # (1 - zeta)(1 + zeta + ... + zeta**63) = 1 - zeta**64 = 2
    assert field.coeffs(field.inv(field.uniformizer())) == (Fraction(1, 2),) * 64


def test_uniformizer_valuation_is_one_over_e():
    for p, k in [(2, 2), (2, 3), (3, 2)]:
        field = cyclotomic_field(p, k)
        t = field.uniformizer()
        assert field.valuation(t) == Fraction(1, field.e)
        assert field.valuation(field.from_int(p)) == 1


def test_zeta8_contains_a_square_root_of_two():
    field = cyclotomic_field(2, 3)
    root = field.from_coeffs([0, 1, 0, -1])  # zeta - zeta^3
    assert field.eq(field.mul(root, root), field.from_int(2))


def test_integral_coeffs_rejects_denominators():
    field = cyclotomic_field(2, 2)
    assert field.integral_coeffs(field.from_int(3)) == (3, 0)
    with pytest.raises(IntegralityViolation):
        field.integral_coeffs(field.from_coeffs([Fraction(1, 2), 0]))


def test_truncated_cyclotomic_matches_integer_convolution():
    ring = CycloModPM(2, 3, 4)
    field = cyclotomic_field(2, 3)
    a = ring.make([1, 3, 0, 2])
    b = ring.make([0, 1, 1, 5])
    got = ring.mul(a, b)
    want = reference.conv_reduce([1, 3, 0, 2], [0, 1, 1, 5], 2, 3, 2**4)
    assert list(got.coeffs) == want


def test_truncated_cyclotomic_parse_and_precision():
    ring = CycloModPM(2, 2, 3)
    a = ring.parse_elt("[1, 2]~2")
    assert ring.precision_of(a) == 2
    full = ring.parse_elt("[1, 2]")
    assert ring.precision_of(full) == 3
    assert ring.eq(a, ring.truncate(full, 2))
    sq = ring.pow_p_tower(a, 1)
    assert ring.precision_of(sq) == 3
    # overlong coefficient lists reduce through the relation zeta^2 = -1
    assert ring.parse_elt("[1, 2, 3]").coeffs == ((1 - 3) % 8, 2)


def test_truncated_cyclotomic_ring_takes_no_pth_root_mod_p():
    # no caller takes p-th roots mod p over Z[zeta]/p^M: the Ring default refuses
    ring = CycloModPM(2, 2, 3)
    with pytest.raises(CapabilityMissing, match="^ZzetaMod: p-th roots mod p not supported$"):
        ring.pth_root_mod_p(ring.parse_elt("[1, 0]"))


def test_tower_embeddings_commute_with_arithmetic():
    tower = CyclotomicTower(2)
    f1, f2 = tower.field(1), tower.field(2)
    a = f1.from_coeffs([Fraction(1, 2)])
    b = f1.from_coeffs([3])
    up = tower.embed_up(1, 2, f1.mul(a, b))
    assert f2.eq(up, f2.mul(tower.embed_up(1, 2, a), tower.embed_up(1, 2, b)))
    # embeddings preserve the valuation
    t = f1.uniformizer()
    assert f2.valuation(tower.embed_up(1, 2, t)) == f1.valuation(t)


def test_gaussian_multiplication_matches_oracle():
    g = GaussianField(5)
    a = g.from_pair(Fraction(1, 2), 3)
    b = g.from_pair(2, Fraction(-1, 5))
    assert g.coeffs(g.mul(a, b)) == oracles.gauss_mul(g.coeffs(a), g.coeffs(b))
    assert g.eq(g.mul(g.from_pair(0, 1), g.from_pair(0, 1)), g.from_int(-1))


def test_gaussian_seminorm_split_and_inert():
    split = GaussianField(5)
    assert split.split
    # both primes above 5 are tracked; the seminorm reads the worst place
    assert split.seminorm(split.from_pair(2, 1)) == NormValue.one()
    assert split.seminorm(split.from_pair(2, -1)) == NormValue.one()
    assert split.seminorm(split.from_int(5)) == NormValue.from_exponent(1)
    inert = GaussianField(3)
    assert not inert.split
    # v(a+bi) = v_3(a^2 + b^2) / 2 at an inert prime
    assert inert.seminorm(inert.from_pair(0, 3)) == NormValue.from_exponent(1)
    assert inert.seminorm(inert.from_pair(1, 1)) == NormValue.one()
    assert inert.seminorm(inert.from_pair(3, 3)) == NormValue.from_exponent(1)


@given(st.integers(-5, 5), st.integers(-5, 5), st.sampled_from([3, 5]))
def test_gaussian_power_multiplicativity(a, b, p):
    g = GaussianField(p)
    x = g.from_pair(a, b)
    if g.is_zero(x):
        return
    assert g.seminorm(g.mul(x, x)) == g.seminorm(x).pow(2)


@pytest.mark.parametrize(
    "p, k, M", [(2, 2, 4), (2, 3, 3), (3, 1, 3), (3, 2, 2), (5, 1, 3), (5, 2, 2), (7, 1, 2)]
)
def test_truncated_cyclotomic_powers_match_repeated_products(p, k, M):
    """pow_ and pow_p_tower on integer digits against n plain oracle products,
    from elements below full precision."""
    ring = CycloModPM(p, k, M)
    for prec in range(1, M):
        q = p**prec
        for a in ([1] + [0] * (ring.e - 1), list(range(1, ring.e + 1)), [p] + [q - 1] * (ring.e - 1)):
            x = ring.from_digits(a, prec)
            for n in range(13):
                got = ring.pow_(x, n)
                if n == 0:
                    assert got == ring.one()
                    continue
                assert got.prec == prec
                assert list(got.coeffs) == oracles.cyclo_pow_int(x.coeffs, n, p, k, q), (prec, n)
            for l in range(4):
                got = ring.pow_p_tower(x, l)
                k_out = min(prec + l, M)
                assert got.prec == k_out
                assert list(got.coeffs) == oracles.cyclo_pow_int(x.coeffs, p**l, p, k, p**k_out)


def _width_edges(p, k):
    """(p, k, M) for the precisions M whose digit bound e * (p**M - 1)**2,
    the largest value a slot of a digit product takes, sits just below and just above
    2**16, 2**32 and 2**64."""
    e = (p - 1) * p ** (k - 1)
    edges = []
    for bits in (16, 32, 64):
        M = 1
        while e * (p ** (M + 1) - 1) ** 2 < 1 << bits:
            M += 1
        edges += [(p, k, M), (p, k, M + 1)]
    return edges


# e = 1, 16, 2, 18, 20, 6 and 42
PACKED_WIDTH_EDGES = [
    shape for pk in [(2, 1), (2, 5), (3, 1), (3, 3), (5, 2), (7, 1), (7, 2)] for shape in _width_edges(*pk)
]


@pytest.mark.parametrize("p, k, M", PACKED_WIDTH_EDGES)
def test_truncated_cyclotomic_products_at_the_slot_width_edges(p, k, M):
    """mul (squares included), pow_ and pow_p_tower against the schoolbook
    oracles where the packed product changes its slot width, on random
    digits and on all-(q - 1) digits, whose product fills slot e - 1 with
    the whole bound e * (q - 1)**2; a slot one bit too narrow fails here."""
    ring = CycloModPM(p, k, M)
    e, q = ring.e, p**M
    rng = random.Random(p * 10000 + k * 100 + M)
    draws = [[q - 1] * e, [q - 1] * (e - 1) + [rng.randrange(q)]]
    draws += [[rng.randrange(q) for _ in range(e)] for _ in range(3)]
    for prec in (M, max(M - 1, 1)):
        qp = p**prec
        xs = [ring.from_digits(d, prec) for d in draws]
        for x, y in zip(xs, xs[1:] + xs[:1]):
            for a, b in ((x, y), (x, x)):
                got = ring.mul(a, b)
                assert got.prec == prec
                assert list(got.coeffs) == reference.conv_reduce(a.coeffs, b.coeffs, p, k, qp), (prec, a, b)
            for n in (2, 3, 5):
                assert list(ring.pow_(x, n).coeffs) == oracles.cyclo_pow_int(x.coeffs, n, p, k, qp), (prec, n)
            got = ring.pow_p_tower(x, 1)
            assert got.prec == min(prec + 1, M)
            assert list(got.coeffs) == oracles.cyclo_pow_int(x.coeffs, p, p, k, p**got.prec), prec


@pytest.mark.parametrize(
    "p, k",
    [(2, k) for k in range(1, 10)] + [(3, k) for k in range(1, 7)] + [(5, 1), (5, 2), (7, 1), (7, 2)],
)
def test_t_basis_rows_are_signed_binomials_mod_p(p, k):
    """Row i of the t-basis matrix the oracle solves against, built by
    Pascal's rule, is (1 - zeta)**i mod p, whose coefficient at zeta**j is
    (-1)**j * C(i, j)."""
    field = cyclotomic_field(p, k)
    rows = oracles.t_basis_rows(p, field.e)
    assert len(rows) == field.e
    for i, row in enumerate(rows):
        assert list(row) == oracles.t_power_row(p, i, field.e), i


def _check_t_order(field, residue):
    """The order, the valuation of the lift and the t-index a missing p-th
    root is named by, against the oracle's top-down solve."""
    p = field.p
    want = oracles.to_t_basis(p, field.e, residue)
    order = next((i for i, c in enumerate(want) if c), None)
    assert field.t_order(residue) == order, residue
    if order is not None:
        assert field.integer_valuation(residue) == Fraction(order, field.e)
    off = next((i for i, c in enumerate(want) if c and i % p), None)
    if off is not None:
        with pytest.raises(NoRoot, match=f"^t-support index {off} is not a multiple of {p};"):
            field.mod_p_root(field.from_coeffs(residue))
    return order


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_t_order_matches_the_t_basis_solve_on_every_residue(p, k):
    field = cyclotomic_field(p, k)
    residues = itertools.product(range(p), repeat=field.e)
    orders = {_check_t_order(field, residue) for residue in residues}
    assert orders == {None, *range(field.e)}


def _times_t_power(field, residue, j):
    """residue * (1 - zeta)**j mod p.  Mod p, (1 - zeta)**(p**a) is
    1 - zeta**(p**a), so j splits into one such factor per unit of its
    base-p digits; each product is reduced from the top down with
    zeta**e = -(1 + zeta**s + ... + zeta**((p-2)*s)), s = p**(k-1)."""
    p, e, s = field.p, field.e, field.p ** (field.k - 1)
    r = list(residue)
    shift = 1
    while j:
        j, digit = divmod(j, p)
        for _ in range(digit):
            out = r + [0] * shift
            for i, c in enumerate(r):
                out[i + shift] -= c
            for d in range(len(out) - 1, e - 1, -1):
                c, out[d] = out[d], 0
                for i in range(p - 1):
                    out[d - e + i * s] -= c
            r = [c % p for c in out[:e]]
        shift *= p
    return r


@pytest.mark.parametrize("p, k", [(2, 5), (3, 3), (5, 2), (7, 2), (2, 7), (3, 5), (3, 6)])
def test_t_order_matches_the_t_basis_solve_on_drawn_residues(p, k):
    """300 residues per field up to e = 486, half of them multiplied by t**j
    so that high orders are drawn too."""
    field = cyclotomic_field(p, k)
    rng = random.Random(p * 1000 + k)
    for n in range(300):
        residue = [rng.randrange(p) for _ in range(field.e)]
        j = rng.randrange(field.e) if n % 2 else 0
        order = _check_t_order(field, _times_t_power(field, residue, j))
        assert order is None or order >= j


def _check_mod_p_root(field, a, residue):
    """mod_p_root of a against the t-basis oracle on the residue of a: the
    same root CVec, or a NoRoot naming the same t-index."""
    p = field.p
    want, index = oracles.t_basis_mod_p_root(p, field.k, residue)
    if want is None:
        with pytest.raises(NoRoot) as exc:
            field.mod_p_root(a)
        assert str(exc.value) == (
            f"t-support index {index} is not a multiple of {p}; "
            "the class is not a p-th power mod p"
        )
        return False
    got = field.mod_p_root(a)
    assert repr(got) == repr(CVec(want, 1)), residue
    return True


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)])
def test_mod_p_root_matches_the_t_basis_root_on_every_residue(p, k):
    field = cyclotomic_field(p, k)
    roots = 0
    for residue in itertools.product(range(p), repeat=field.e):
        roots += _check_mod_p_root(field, field.from_coeffs(residue), residue)
    # the p-th powers mod p are the classes of the F_p-span of zeta**(p*j), p*j < e
    assert roots == p ** len(range(0, field.e, p))


@pytest.mark.parametrize("p, k", [(3, 3), (2, 5)])
def test_mod_p_root_matches_the_t_basis_root_on_drawn_lifts(p, k):
    """Residues drawn at random and drawn on multiples of p (so that half
    have a root), lifted to (c + p*u) / d with d prime to p."""
    field = cyclotomic_field(p, k)
    rng = random.Random(p * 100 + k)
    roots = 0
    for n in range(200):
        c = [rng.randrange(p) if n % 2 or j % p == 0 else 0 for j in range(field.e)]
        u = [rng.randint(-9, 9) for _ in range(field.e)]
        d = rng.choice([1, 1, 2, 3, 4, 5, 7])
        d = d if d % p else d + 1
        a = field.from_coeffs([Fraction(x + p * y, d) for x, y in zip(c, u)])
        inv = pow(d, -1, p)
        roots += _check_mod_p_root(field, a, [x * inv % p for x in c])
    assert roots >= 100


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_integer_valuation_threshold_matches_the_valuation(p, k):
    """v(a) >= k read as p^k-divisibility of the coefficients, against the
    valuation: 0, units, uniformizer powers around each integer threshold,
    and drawn elements over denominators prime to p and divisible by p."""
    field = cyclotomic_field(p, k)
    t = field.uniformizer()
    rng = random.Random(p * 10 + k)
    elements = [field.zero(), field.one(), field.zeta(), field.from_int(p**3)]
    elements += [field.pow_(t, j) for j in range(4 * field.e + 2)]
    elements += [field.exact_divide_by_p(field.pow_(t, j)) for j in (field.e - 1, field.e, field.e + 1)]
    for _ in range(80):
        den = rng.choice((1, 1, 2, 7, 11, p, p * p, 3 * p))
        scale = p ** rng.randrange(4)
        elements.append(
            field.from_coeffs([Fraction(scale * rng.randint(-20, 20), den) for _ in range(field.e)])
        )
    for a in elements:
        v = field.valuation(a)
        for threshold in range(4):
            assert field.valuation_at_least(a, threshold) == (v is None or v >= threshold), (a, threshold)
