"""The norm identity on the kernel of ghost projection to the first slot."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wittlab import reference
from wittlab.cyclotomic import cyclotomic_field
from wittlab.errors import MalformedConfig
from wittlab.kernelnorm import (
    kernel_element_from_w1,
    kernel_exponent,
    symbolic_kernel_identity,
    verify_kernel_norm,
)
from wittlab.norms import NormValue
from wittlab.rings import Rationals
from wittlab.witt import ghost, witt_norm

import oracles


def test_kernel_exponent_partial_sums():
    assert kernel_exponent(2, 1) == Fraction(1, 2)
    assert kernel_exponent(2, 2) == Fraction(3, 4)
    assert kernel_exponent(3, 2) == Fraction(1, 3) + Fraction(1, 9)


def test_golden_kernel_element():
    x = kernel_element_from_w1(Rationals(2), Fraction(4), 2)
    assert x.components == (4, -8, -96)
    assert ghost(x).entries == (4, 0, 0)


@given(
    st.fractions(min_value=-16, max_value=16, max_denominator=8).filter(lambda t: t != 0),
    st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
)
@settings(max_examples=50, deadline=None)
def test_kernel_elements_have_vanishing_higher_ghosts(t, pj):
    p, j = pj
    ring = Rationals(p)
    x = kernel_element_from_w1(ring, t, j)
    w = reference.ghost(p, x.components)
    assert w[0] == t
    assert all(u == 0 for u in w[1:])


@given(
    st.integers(-3, 3),
    st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
)
@settings(max_examples=40, deadline=None)
@example(k=0, pj=(3, 1))
def test_norm_identity_over_the_rationals(k, pj):
    p, j = pj
    t = Fraction(3) * Fraction(p) ** k
    rep = verify_kernel_norm(Rationals(p), t, j)
    assert rep["passed"] and rep["equal"] and rep["bound_holds"]
    # independent: |t| == p^(-sum 1/p^i) * |x|_W, i.e.
    # v_p(t) == kernel_exponent(p, j) + min_i v_p(x_i)/p^i, with every valuation
    # (the left side v_p(t) included) read off by oracles.vp_fraction; v_p(t) is
    # not k at p = 3, where the factor 3 is not a unit
    x = kernel_element_from_w1(Rationals(p), t, j)
    exps = [
        Fraction(oracles.vp_fraction(c, p), p**i)
        for i, c in enumerate(x.components)
        if c != 0
    ]
    assert oracles.vp_fraction(t, p) == kernel_exponent(p, j) + min(exps)


def test_norm_identity_over_cyclotomic_fields():
    for p, k in ((2, 3), (3, 2)):
        field = cyclotomic_field(p, k)
        t_unif = field.uniformizer()
        for j in (1, 2):
            for power in (0, 1, 3):
                t = field.pow_(t_unif, power) if power else field.one()
                rep = verify_kernel_norm(field, t, j)
                assert rep["passed"] and rep["kernel_ok"] and rep["equal"], rep


def test_zero_input_gives_zero_vector():
    rep = verify_kernel_norm(Rationals(2), Fraction(0), 2)
    assert rep["passed"]
    x = kernel_element_from_w1(Rationals(2), Fraction(0), 2)
    assert witt_norm(x).is_zero


def test_symbolic_identity_for_small_indices():
    for p in (2, 3):
        for j in (1, 2):
            rep = symbolic_kernel_identity(p, j)
            assert rep["passed"], rep
            sup_offset = min(Fraction(b) for b in rep["profile_offsets"])
            assert rep["leading_terms_unique"] and sup_offset == -kernel_exponent(p, j)


def test_kernel_family_starts_at_one():
    with pytest.raises(MalformedConfig):
        kernel_element_from_w1(Rationals(2), Fraction(1), 0)


def test_scaled_norm_matches_reported_exponents():
    rep = verify_kernel_norm(Rationals(2), Fraction(4), 2)
    assert rep["w1_exponent"] == rep["scaled_sup_exponent"]
    value = NormValue.p_power(Fraction(rep["w1_exponent"]))
    assert value == NormValue.from_exponent(2)
