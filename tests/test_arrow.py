"""Coherent families under Frobenius: arithmetic, norms, theta, rigidity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab.arrow import (
    arrow_add,
    arrow_eq,
    arrow_from_integer,
    arrow_from_top,
    arrow_mul,
    arrow_norm,
    arrow_teichmuller,
    arrow_to_json,
    check_coherence,
    inverse_frobenius,
    inverse_frobenius_sandwich,
    lift_arrow_precision,
    make_arrow,
    rigidity_profile,
    sample_coherent,
    theta,
    theta_series,
)
from wittlab.cyclotomic import CycloModPM
from wittlab.errors import CapabilityMissing, IntegralityViolation, LengthMismatch
from wittlab.norms import NormValue
from wittlab import witt
from wittlab.rings import Integers, ZModPM
from wittlab.witt import WittVec, frobenius, witt_eq, witt_from_integer

import oracles


def _draw(ring, rng):
    return lambda: ring.from_int(rng.randrange(ring.p**ring.M))


def test_integer_family_levels():
    a = arrow_from_integer(Integers(2), 2, 2)
    assert [lv.components for lv in a.levels] == [(2,), (2, -1), (2, -1, -4)]


def test_integer_family_is_coherent_and_rigid():
    for c in (-5, -2, 0, 3, 7):
        a = arrow_from_integer(Integers(3), c, 3)
        for n in range(a.depth):
            assert witt_eq(frobenius(a.levels[n + 1]), a.levels[n])
        assert all(rigidity_profile(a))


def test_integer_family_makes_no_transport_on_a_warm_call(monkeypatch):
    # coherent by construction: once the integer components are cached,
    # building the family over Z/2^6 unghosts nothing
    ring = ZModPM(2, 6)
    want = arrow_from_integer(ring, 5, 4)
    calls, unghost = [], witt.unghost
    monkeypatch.setattr(witt, "unghost", lambda g, *a: calls.append(g) or unghost(g, *a))
    a = arrow_from_integer(ring, 5, 4)
    assert calls == []
    assert arrow_eq(a, want) and a.tail_bound == NormValue.one()
    check_coherence(ring, a.levels)
    assert len(calls) == 4


def test_perturbing_a_component_breaks_coherence():
    ring = Integers(2)
    a = arrow_from_integer(ring, 6, 3)
    levels = list(a.levels)
    bad = list(levels[2].components)
    bad[1] += 1
    levels[2] = WittVec(ring, tuple(bad))
    with pytest.raises(IntegralityViolation):
        make_arrow(ring, tuple(levels), validate=True)


def test_norm_of_two_at_full_weight():
    a = arrow_from_integer(Integers(2), 2, 4)
    result = arrow_norm(a, 1)
    assert result.value == NormValue.from_exponent(1)
    assert result.status == "exact"


def test_norm_of_two_at_half_weight():
    a = arrow_from_integer(Integers(2), 2, 4)
    result = arrow_norm(a, Fraction(1, 2))
    assert result.value == NormValue.from_exponent(Fraction(1, 2))
    assert result.status == "exact"
    assert result.attained_at == 1


@given(st.integers(-9, 9), st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_norm_of_integer_constants(c, p):
    # |c|_{W,b} for an ordinary p-adic integer is just p**(-v_p(c)) once b >= 1
    a = arrow_from_integer(Integers(p), c, 3)
    result = arrow_norm(a, 2)
    if c == 0:
        assert result.value.is_zero
    else:
        assert result.value == NormValue.from_exponent(oracles.vp_int(c, p))


def test_arrow_ring_laws_over_truncated_base():
    ring = ZModPM(2, 5)
    rng = random.Random(11)
    for _ in range(10):
        a = sample_coherent(ring, 3, _draw(ring, rng))
        b = sample_coherent(ring, 3, _draw(ring, rng))
        assert arrow_eq(arrow_add(a, b), arrow_add(b, a))
        assert arrow_eq(arrow_mul(a, b), arrow_mul(b, a))
        minus_a = arrow_mul(arrow_from_integer(ring, -1, 3), a)
        assert arrow_eq(arrow_add(a, minus_a), arrow_from_integer(ring, 0, 3))


def test_depth_mismatch_is_rejected():
    ring = ZModPM(2, 4)
    with pytest.raises(LengthMismatch):
        arrow_add(arrow_from_integer(ring, 1, 2), arrow_from_integer(ring, 1, 3))


def test_frobenius_and_inverse_shift_levels():
    ring = ZModPM(2, 5)
    rng = random.Random(5)
    a = sample_coherent(ring, 3, _draw(ring, rng))
    down = inverse_frobenius(a)
    assert down.depth == a.depth - 1
    # F drops the top level; F^{-1} then round-trips onto the truncated family
    back = inverse_frobenius(make_arrow(ring, a.levels[:-1]))
    for n in range(back.depth + 1):
        assert witt_eq(back.levels[n], a.levels[n])


def test_theta_fixes_ordinary_integers():
    ring = ZModPM(2, 6)
    for k in (-3, -1, 0, 1, 2, 3):
        a = arrow_from_integer(ring, k, 3)
        assert ring.eq(theta(a), ring.from_int(k))


def test_theta_of_teichmuller_one():
    ring = ZModPM(3, 4)
    a = arrow_teichmuller(ring, [ring.one()] * 3)
    assert ring.eq(theta(a), ring.one())


def test_theta_series_agrees_and_perturbations_stay_small():
    ring = ZModPM(2, 6)
    rng = random.Random(3)
    for _ in range(10):
        a = sample_coherent(ring, 2, _draw(ring, rng))
        tv = theta(a)
        sv, _terms = theta_series(a)
        assert ring.eq(sv, tv)
        # changing the lifts by multiples of p^(M-N) cannot move the series
        pert = [ring.from_int(2 ** (6 - 2) * rng.randrange(4)) for _ in range(3)]
        sv2, _ = theta_series(a, lift_perturbation=lambda i: pert[i])
        assert ring.seminorm(ring.sub(sv2, tv)) <= NormValue.from_exponent(6 - 2)


def test_theta_and_its_series_refuse_an_exact_base():
    a = arrow_from_integer(Integers(2), 3, 2)
    for evaluate in (theta, theta_series):
        with pytest.raises(CapabilityMissing):
            evaluate(a)


def test_theta_is_a_ring_map_on_samples():
    ring = ZModPM(3, 5)
    rng = random.Random(9)
    for _ in range(10):
        a = sample_coherent(ring, 2, _draw(ring, rng))
        b = sample_coherent(ring, 2, _draw(ring, rng))
        assert ring.eq(theta(arrow_add(a, b)), ring.add(theta(a), theta(b)))
        assert ring.eq(theta(arrow_mul(a, b)), ring.mul(theta(a), theta(b)))


def test_precision_lift_reproduces_the_washed_family():
    small = ZModPM(2, 2)
    a = arrow_from_integer(small, 3, 5)
    lifted = lift_arrow_precision(a, 1)
    assert lifted.ring.M == 3
    want = arrow_from_integer(lifted.ring, 3, 1)
    for n in range(2):
        assert witt_eq(lifted.levels[n], want.levels[n])


def test_a_family_from_its_top_takes_one_frobenius_per_level(monkeypatch):
    """The top pushed down by F is coherent by construction: depth
    transports, counted as unghost calls, and no second pass re-checks them."""
    calls = []
    unghost = witt.unghost
    monkeypatch.setattr(witt, "unghost", lambda w, *a: calls.append(w) or unghost(w, *a))
    ring = ZModPM(2, 6)
    rng = random.Random(7)
    for depth in range(1, 6):
        calls.clear()
        a = sample_coherent(ring, depth, _draw(ring, rng))
        assert len(calls) == depth
        assert a.tail_bound == NormValue.one()
        check_coherence(ring, a.levels)
        b = arrow_from_top(a.levels[-1])
        assert b.levels == a.levels and b.tail_bound == a.tail_bound
    assert arrow_from_top(WittVec(Integers(2), (3, 1))).tail_bound is None


def test_sandwich_statuses_are_the_arrow_norm_statuses():
    rng = random.Random(5)
    for ring in (ZModPM(2, 6), ZModPM(3, 4), CycloModPM(2, 3, 4)):
        for _ in range(6):
            a = sample_coherent(ring, rng.randint(2, 4), _draw_digits(ring, rng))
            for b in (1, 2, 4):
                rep = inverse_frobenius_sandwich(a, b)
                shifted = arrow_norm(inverse_frobenius(a), Fraction(b, ring.p))
                assert rep["value_status"] == arrow_norm(a, b).status
                assert rep["shifted_status"] == shifted.status


def _draw_digits(ring, rng):
    return lambda: ring.from_digits([rng.randrange(ring.p**ring.M) for _ in range(ring.e)])


def test_sandwich_on_integer_families():
    ring = ZModPM(2, 6)
    rng = random.Random(2)
    for b in (1, 2, 4):
        a = sample_coherent(ring, 3, _draw(ring, rng))
        rep = inverse_frobenius_sandwich(a, b)
        assert rep["passed"], rep


def test_sandwich_reads_a_zero_head_as_an_interval():
    """Seed 0, sample 4 of the arrow suite: z_(0,0) = 0 mod 3^4 has norm in
    [0, 3^-4], not 0, and the value 3^-5 is carried by z_(1,1) = 54, so
    neither inequality is certain and neither is violated at every point."""
    ring = ZModPM(3, 4)
    rows = [(0,), (54, 54), (9, 45, 72), (45, 57, 6, 33)]
    levels = [WittVec(ring, tuple(ring.from_int(c) for c in row)) for row in rows]
    a = make_arrow(ring, levels, tail_bound=NormValue.one())
    rep = inverse_frobenius_sandwich(a, 2)
    assert rep["status"] == "inconclusive" and not rep["passed"]
    assert rep["zero_components"] == ["z_(0,0) = 0 mod 3^4"]
    # reading the zero head as 0 gave upper p^-7 < value p^-5, a false failure
    assert rep["value_exponents"] == ["-5", "-4"]
    assert rep["upper_exponents"] == ["-7", "-4"]
    assert rep["lower_exponents"] == ["-9", "-4"]


@pytest.mark.parametrize("p, M", [(5, 3), (2, 10)])
def test_sandwich_has_no_definite_failure_on_deep_rings(p, M):
    ring = ZModPM(p, M)
    rng = random.Random(f"sandwich|{p}|{M}")
    statuses = set()
    for _ in range(40):
        a = sample_coherent(ring, 4, _draw(ring, rng))
        for b in (1, Fraction(3, 2), 2, 4):
            rep = inverse_frobenius_sandwich(a, b)
            assert rep["status"] != "fail", rep
            statuses.add(rep["status"])
    assert "pass" in statuses


def test_json_export_reconstructs_the_family():
    ring = ZModPM(2, 4)
    a = arrow_from_integer(ring, 5, 2)
    data = arrow_to_json(a)
    assert data == {
        "ring": {"kind": "Zmod", "p": 2, "M": 4},
        "levels": [[5], [5, 6], [5, 6, 3]],
        "tail_bound_exponent": "0",
    }
    # every digit is at full precision, so each entry is one bare digit
    levels = tuple(
        WittVec(ring, tuple(ring.from_digits([c]) for c in row)) for row in data["levels"]
    )
    back = make_arrow(ring, levels, validate=True)
    assert arrow_eq(back, a)


def test_precision_lift_over_a_cyclotomic_base():
    ring = CycloModPM(2, 2, 1)
    tops = iter([[1, 1], [0, 1], [1, 0], [1, 1], [0, 1]])
    a = sample_coherent(ring, 4, lambda: ring.make(next(tops)))
    lifted = lift_arrow_precision(a, 1)
    assert lifted.ring.to_config() == CycloModPM(2, 2, 2).to_config()
    assert lifted.depth == 1
    assert arrow_to_json(lifted)["levels"] == [[[2, 0]], [[2, 0], [1, 0]]]
