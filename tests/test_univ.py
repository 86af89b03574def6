"""Universal structure polynomials checked numerically against ghost oracles.

The polynomials are correct exactly when composing them with the ghost map
reproduces plain arithmetic on ghost coordinates; the oracle side is computed
with direct power sums, never with the package's own ghost helpers.
"""

import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import reference
from wittlab.errors import CapabilityMissing, IntegralityViolation, MalformedConfig
from wittlab.rings import Integers, Rationals
from wittlab.univ import (
    UPoly,
    _PolyRing,
    canonical_dump,
    component_labels,
    structure_cap,
    structure_poly,
    structure_poly_mod_p,
)
from wittlab.witt import GhostVec, unghost

import oracles

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _eval(p, poly, values):
    assert len(values) == poly.nvars
    return oracles.eval_poly(Integers(p), poly.terms, values)


@st.composite
def witt_inputs(draw):
    p = draw(st.sampled_from([2, 3]))
    i = draw(st.integers(0, structure_cap(p)))
    xs = [draw(st.integers(-6, 6)) for _ in range(i + 1)]
    ys = [draw(st.integers(-6, 6)) for _ in range(i + 1)]
    return p, i, xs, ys


@given(witt_inputs())
@settings(max_examples=80, deadline=None)
def test_sum_and_prod_reproduce_ghost_arithmetic(data):
    p, i, xs, ys = data
    sums = [_eval(p, structure_poly(p, j, "sum"), xs[: j + 1] + ys[: j + 1]) for j in range(i + 1)]
    prods = [_eval(p, structure_poly(p, j, "prod"), xs[: j + 1] + ys[: j + 1]) for j in range(i + 1)]
    wx = reference.ghost(p, xs)
    wy = reference.ghost(p, ys)
    assert reference.ghost(p, sums) == tuple(a + b for a, b in zip(wx, wy))
    assert reference.ghost(p, prods) == tuple(a * b for a, b in zip(wx, wy))


@given(witt_inputs())
@settings(max_examples=80, deadline=None)
def test_neg_reproduces_ghost_negation(data):
    p, i, xs, _ = data
    negs = [_eval(p, structure_poly(p, j, "neg"), xs[: j + 1]) for j in range(i + 1)]
    wx = reference.ghost(p, xs)
    assert reference.ghost(p, negs) == tuple(-a for a in wx)


@given(witt_inputs())
@settings(max_examples=80, deadline=None)
def test_frob_shifts_ghost_components(data):
    p, i, xs, _ = data
    frobs = [_eval(p, structure_poly(p, j, "frob"), xs[: j + 2]) for j in range(i)]
    wx = reference.ghost(p, xs)
    assert reference.ghost(p, frobs) == wx[1 : i + 1]


@given(witt_inputs())
@settings(max_examples=60, deadline=None)
def test_frob_carry_decomposition(data):
    # frob_i(x) = x_i^p + p*x_{i+1} + p*f_i(x_0..x_i) with integral f_i
    p, i, xs, _ = data
    for j in range(i):
        whole = _eval(p, structure_poly(p, j, "frob"), xs[: j + 2])
        carry = _eval(p, structure_poly(p, j, "frob_f"), xs[: j + 1])
        assert whole == xs[j] ** p + p * xs[j + 1] + p * carry


def test_weighted_homogeneity_degrees():
    for p in (2, 3, 5):
        for i in range(structure_cap(p) + 1):
            weights = [p**j for j in range(i + 1)]
            assert structure_poly(p, i, "sum").weighted_degrees(weights * 2) == [p**i]
            assert structure_poly(p, i, "prod").weighted_degrees(weights * 2) == [2 * p**i]
        for i in range(structure_cap(p)):
            weights = [p**j for j in range(i + 2)]
            assert structure_poly(p, i, "frob").weighted_degrees(weights) == [p ** (i + 1)]


def test_structure_caps():
    assert structure_cap(2) == 3
    assert structure_cap(3) == 2
    assert structure_cap(5) == 2


def test_unghost_over_polynomials_refuses_a_non_ghost_vector():
    # (x_0, x_0 + x_1) is no ghost vector: (x_0 + x_1 - x_0^2) / 2 is not integral
    ring = _PolyRing(2, 2)
    x0, x1 = ring.variables()
    with pytest.raises(IntegralityViolation) as err:
        unghost(GhostVec(ring, (x0, x0.add(x1))))
    assert str(err.value) == "coefficient 1/2 of exponent (1, 0) is not an integer"


def test_evaluate_over_the_rationals_is_pinned():
    # sum[p=2,i=1] = x2 + y2 - x1*y1 at (x1, x2, y1, y2) = (1/2, 3, -2/3, 1)
    poly = structure_poly(2, 1, "sum")
    values = [Fraction(1, 2), 3, Fraction(-2, 3), 1]
    assert oracles.eval_poly(Rationals(2), poly.terms, values) == Fraction(13, 3)


def test_evaluate_rejects_bad_coefficients_and_arities():
    half = UPoly(1, {(1,): Fraction(1, 2)})
    with pytest.raises(IntegralityViolation):
        half.terms_for([Fraction(4)])
    with pytest.raises(MalformedConfig):
        structure_poly(2, 1, "sum").terms_for([1, 2, 3])


def test_upoly_algebra():
    x = UPoly.variable(2, 0)
    y = UPoly.variable(2, 1)
    left = x.add(y).mul(x.sub(y))
    right = x.mul(x).sub(y.mul(y))
    assert left == right
    assert x.pow(3).weighted_degrees([1, 1]) == [3]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8, 9, 16, 27, 32, 100])
def test_upoly_pow_squares_and_multiplies_from_the_lowest_set_bit(n, monkeypatch):
    """(x + y)**n with bit_length(n) - 1 squarings and popcount(n) - 1
    products, as Ring.pow_: the base is never squared past the top bit."""
    squares, products, mul = [], [], UPoly.mul

    def counting_mul(a, b):
        (squares if a is b else products).append(1)
        return mul(a, b)

    x_plus_y = UPoly.variable(2, 0).add(UPoly.variable(2, 1))
    monkeypatch.setattr(UPoly, "mul", counting_mul)
    got = x_plus_y.pow(n)
    monkeypatch.undo()
    want_squares = max(n.bit_length() - 1, 0)
    want_products = max(bin(n).count("1") - 1, 0)
    assert (len(squares), len(products)) == (want_squares, want_products)
    assert got == UPoly(2, {(n - j, j): math.comb(n, j) for j in range(n + 1)})
    with pytest.raises(CapabilityMissing):
        x_plus_y.pow(-1)


@pytest.mark.parametrize("p", [2, 3])
def test_canonical_dump_matches_golden(p):
    with open(os.path.join(GOLDEN, f"structure_polys_p{p}.txt"), encoding="utf-8") as fh:
        assert canonical_dump(p) == fh.read()


def test_dump_covers_every_kind_up_to_the_cap():
    lines = canonical_dump(2).splitlines()
    heads = [ln.split(" = ")[0] for ln in lines]
    for kind in ("sum", "prod", "neg", "frob", "frob_f"):
        for i in range(structure_cap(2) + 1):
            assert f"{kind}[p=2,i={i}]" in heads
    labels = component_labels(2, 4)
    assert labels == ["x1", "x2", "x4", "x8"]


@pytest.mark.parametrize("p", [2, 3])
def test_mod_p_polynomials_keep_exactly_the_terms_prime_to_p(p):
    for kind in ("sum", "prod", "neg"):
        for i in range(structure_cap(p) + 1):
            full = structure_poly(p, i, kind).terms
            reduced = structure_poly_mod_p(p, i, kind).terms
            assert reduced == {e: c % p for e, c in full.items() if c % p}
            assert all(1 <= c < p for c in reduced.values())


def test_mod_p_polynomials_at_two_are_bare_monomials():
    sizes = {
        kind: [len(structure_poly_mod_p(2, i, kind).terms) for i in range(4)]
        for kind in ("sum", "prod")
    }
    assert sizes == {"sum": [2, 3, 7, 29], "prod": [1, 2, 4, 12]}
    assert [len(structure_poly(2, 3, kind).terms) for kind in ("sum", "prod")] == [40, 51]
    assert set(structure_poly_mod_p(2, 3, "sum").terms.values()) == {1}
