"""Witt-perfectness verdicts, root sequences, and both Frobenius solvers."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from wittlab import reference
from wittlab import perfect
from wittlab.cyclotomic import CyclotomicField, GaussianField
from wittlab.errors import (
    CapabilityMissing,
    IntegralityViolation,
    MalformedConfig,
    NoRoot,
    NotEnumerable,
)
from wittlab.perfect import (
    build_root_sequence,
    solve_frobenius,
    solve_frobenius_normed,
    witt_perfect_test,
)
from wittlab.rings import Integers, ZModPM
from wittlab.witt import WittVec, frobenius, witt_eq, witt_norm, witt_to_json, witt_zero

import oracles


def test_root_sequence_p2_certificates():
    seq = build_root_sequence(2, 8)
    checks = seq.verify()
    # x_1^2 = 2 mod 4, the valuation at every level and coherence between them
    assert len(checks) == 1 + 8 + 7 and all(checks.values())
    f1 = seq.tower.field(1)
    x1 = seq.value(1)
    assert f1.valuation(x1) == Fraction(1, 2)
    # independent: x1^2 = 2 mod 4 by convolution in the conductor-8 basis
    coeffs = list(f1.integral_coeffs(x1))
    square = reference.conv_reduce(coeffs, coeffs, 2, 3, 4)
    assert square[0] % 4 == 2
    assert all(c % 4 == 0 for c in square[1:])


def test_root_sequence_p3_certificates():
    seq = build_root_sequence(3, 4)
    checks = seq.verify()
    assert len(checks) == 1 + 4 + 3 and all(checks.values())
    f1 = seq.tower.field(1)
    coeffs = list(f1.integral_coeffs(seq.value(1)))
    cube = reference.conv_reduce(
        coeffs, reference.conv_reduce(coeffs, coeffs, 3, 3, 27), 3, 3, 27
    )
    assert cube[0] % 9 == 3
    assert all(c % 9 == 0 for c in cube[1:])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_integers_are_not_witt_perfect(p):
    report = witt_perfect_test({"instance": "Z", "p": p})
    assert report.verdict == "no"
    assert report.condition_a["holds"]
    assert not report.condition_b["holds"]
    a = Integers(p).parse_elt(report.condition_b["witness_a"])
    # independent recheck: no b has b^p = p*a mod p^2
    assert all(pow(b, p, p * p) != (p * a) % (p * p) for b in range(p * p))


def test_gaussian_integers_fail_at_five():
    report = witt_perfect_test({"instance": "Qi", "p": 5})
    assert report.verdict == "no"
    witness = GaussianField(5).parse_elt(report.condition_b["witness_a"])
    assert witness.den == 1
    a = (witness.nums[0] % 25, witness.nums[1] % 25)
    found = False
    for c in range(25):
        for d in range(25):
            z = (1, 0)
            for _ in range(5):
                z = (
                    (z[0] * c - z[1] * d) % 25,
                    (z[0] * d + z[1] * c) % 25,
                )
            if z == ((5 * a[0]) % 25, (5 * a[1]) % 25):
                found = True
    assert not found


def test_zeta8_ring_contains_a_square_root_of_two():
    report = witt_perfect_test({"instance": "zeta-ring", "p": 2, "k": 3})
    root = report.condition_b["root_of_p"]
    assert root is not None
    square = reference.conv_reduce(list(root), list(root), 2, 3, 4)
    assert square[0] % 4 == 2 and all(c % 4 == 0 for c in square[1:])


def test_zeta9_ring_is_not_witt_perfect():
    report = witt_perfect_test({"instance": "zeta-ring", "p": 3, "k": 2})
    assert report.verdict == "no"
    assert not (report.condition_a["holds"] and report.condition_b["holds"])


def test_gaussian_integers_at_two_are_the_zeta4_ring():
    """Z[i] at p = 2 is Z[zeta_4]: both reports agree on verdicts, counts and
    holds, and each witness, read with its own ring's parser, names the same
    element."""
    qi = witt_perfect_test({"instance": "Qi", "p": 2})
    z4 = witt_perfect_test({"instance": "zeta-ring", "p": 2, "k": 2})
    assert qi.verdict == z4.verdict == "no"
    witness_keys = {"witness", "witness_a"}
    for cond in ("condition_a", "condition_b"):
        got, want = getattr(qi, cond), getattr(z4, cond)
        assert {k: v for k, v in got.items() if k not in witness_keys} == {
            k: v for k, v in want.items() if k not in witness_keys
        }
        for key in witness_keys & set(got):
            a = GaussianField(2).parse_elt(got[key])
            b = CyclotomicField(2, 2).parse_elt(want[key])
            assert a == b, (cond, got[key], want[key])


def test_every_enumerated_instance_reports_the_same_keys():
    configs = [
        {"instance": "Z", "p": 3},
        {"instance": "Zmod", "p": 2, "M": 1},
        {"instance": "Zmod", "p": 3, "M": 3},
        {"instance": "Qi", "p": 5},
        {"instance": "zeta-ring", "p": 3, "k": 1},
    ]
    shapes = {
        (tuple(rep.condition_a), tuple(rep.condition_b))
        for rep in map(witt_perfect_test, configs)
    }
    assert shapes == {
        (
            ("holds", "checked", "roots_found", "witness"),
            ("holds", "checked_b_residues", "witness_a", "root_of_p"),
        )
    }


def test_a_zeta_ring_residue_space_past_the_limit_is_refused():
    with pytest.raises(NotEnumerable, match="exceeds the enumeration limit$"):
        witt_perfect_test({"instance": "zeta-ring", "p": 2, "k": 18})


def test_only_zeta_rings_are_refused_past_the_enumeration_limit(monkeypatch):
    monkeypatch.setattr(perfect, "_ZETA_ENUM_LIMIT", 16)
    for config in (
        {"instance": "Z", "p": 17},
        {"instance": "Zmod", "p": 17, "M": 2},
        {"instance": "Qi", "p": 5},
    ):
        assert witt_perfect_test(config).verdict == "no"
    with pytest.raises(NotEnumerable, match="exceeds the enumeration limit$"):
        witt_perfect_test({"instance": "zeta-ring", "p": 5, "k": 1})


def test_tower_is_witt_perfect_up_to_level_two():
    report = witt_perfect_test(
        {"instance": "tower", "p": 2, "levels": 2}, random.Random(0)
    )
    assert report.verdict == "yes-up-to-level-2"
    assert report.condition_a["holds"] and report.condition_b["holds"]
    assert all(report.condition_b["x1_checks"].values())


def test_solve_frobenius_roundtrip_and_precision():
    ring = ZModPM(2, 6)
    rng = random.Random(4)
    for _ in range(25):
        length = rng.randint(2, 4)
        y = WittVec(ring, tuple(ring.from_int(rng.randrange(64)) for _ in range(length)))
        x = frobenius(y)
        y2, rep = solve_frobenius(x)
        assert witt_eq(frobenius(y2), x)
        assert rep["solved"]
        precs = rep["output_precisions"]
        assert precs == sorted(precs, reverse=True)


def test_solve_frobenius_certifies_no_preimage():
    ring = ZModPM(2, 6)
    with pytest.raises(NoRoot):
        solve_frobenius(WittVec(ring, (ring.from_int(3), ring.from_int(0))))


def _zmod_vec(ring, values):
    return WittVec(ring, tuple(ring.from_int(v) for v in values))


def test_solve_frobenius_no_root_messages_are_pinned():
    # digit equation 0 always divides (the head root r has r^p = x_0 mod p),
    # so the earliest failure is at digit 1
    ring = ZModPM(2, 6)
    for v in range(64):
        x = _zmod_vec(ring, (v,))
        y, _ = solve_frobenius(x)
        assert witt_eq(frobenius(y), x)
    for values, digit in (((0, 1), 1), ((0, 0, 3), 2)):
        with pytest.raises(NoRoot) as exc:
            solve_frobenius(_zmod_vec(ring, values))
        assert str(exc.value) == (
            f"no Frobenius preimage: digit equation {digit} is not divisible by 2 "
            "(certified: the mod-p root in step 0 is unique)"
        )


@pytest.mark.parametrize(
    "p, M, lengths", [(2, 9, (5, 6, 7)), (3, 7, (4, 5)), (5, 6, (4, 5))]
)
def test_solve_frobenius_round_trips_past_the_cached_carry_range(p, M, lengths):
    """Lengths the carry polynomials never reached: x = F(y) by the oracle's
    rational transport, then the solved y' has ghost(y')_{m+1} =
    ghost(x)_m mod p^(k+m), k the reported precision, on plain integers."""
    ring = ZModPM(p, M)
    rng = random.Random(f"{p}^{M}")
    for L in lengths:
        for _ in range(3):
            y = tuple(ring.from_int(rng.randrange(p**M)) for _ in range(L + 1))
            x = WittVec(ring, oracles.cover_transport(ring, "frob", y))
            y2, rep = solve_frobenius(x)
            k = rep["verified_at_precision"]
            assert rep["output_precisions"] == list(range(M, M - L - 1, -1))
            assert k == M - L
            wy = reference.ghost(p, [ring.digits(c)[0] for c in y2.components])
            wx = reference.ghost(p, [ring.digits(c)[0] for c in x.components])
            for m in range(L):
                assert (wy[m + 1] - wx[m]) % p ** (k + m) == 0, (L, m)


def test_solve_frobenius_reports_the_precision_it_checks():
    """The report names the precision at which F(y) = x was checked: the
    minimum output precision, which is 1 when M = L + 1."""
    ring = ZModPM(2, 6)
    _, rep = solve_frobenius(_zmod_vec(ring, (4, 0)))
    assert rep["output_precisions"] == [6, 5, 4]
    assert rep["verified_at_precision"] == 4
    ring = ZModPM(2, 5)
    y, rep = solve_frobenius(_zmod_vec(ring, (1, 2, 3, 4)))
    assert rep["verified_at_precision"] == 1
    assert witt_eq(frobenius(y), _zmod_vec(ring, (1, 2, 3, 4)))


def test_solve_frobenius_needs_a_truncated_base():
    with pytest.raises(CapabilityMissing):
        solve_frobenius(WittVec(Integers(2), (2, 0)))


def test_normed_solver_on_the_integer_two():
    seq = build_root_sequence(2, 6)
    f1 = seq.tower.field(1)
    x = WittVec(f1, (f1.from_int(2),))
    y, rep = solve_frobenius_normed(seq, 1, x)
    assert rep["exact"] and rep["norm_contract"]
    W = seq.tower.field(rep["working_level"])
    X = WittVec(W, (seq.tower.embed_up(1, rep["working_level"], f1.from_int(2)),))
    assert witt_eq(frobenius(y), X)
    assert witt_norm(y).pow(2) <= witt_norm(X)


def test_normed_solver_on_uniformizer_powers():
    seq = build_root_sequence(2, 6)
    f1 = seq.tower.field(1)
    t = f1.uniformizer()
    for j in (1, 2, 3):
        x = WittVec(f1, (f1.pow_(t, j),))
        y, rep = solve_frobenius_normed(seq, 1, x)
        assert rep["exact"] and rep["norm_contract"], (j, rep)


def test_normed_solver_repairs_the_two_digit_branch():
    seq = build_root_sequence(2, 6)
    f1 = seq.tower.field(1)
    t2 = f1.pow_(f1.uniformizer(), 2)
    x = WittVec(f1, (t2, t2))
    y, rep = solve_frobenius_normed(seq, 1, x)
    assert rep["digit_fix"]
    assert rep["exact"] and rep["norm_contract"]
    W = seq.tower.field(rep["working_level"])
    X = WittVec(W, tuple(seq.tower.embed_up(1, rep["working_level"], c) for c in x.components))
    assert witt_eq(frobenius(y), X)


def test_normed_solver_solves_zero_trivially():
    seq = build_root_sequence(2, 3)
    x = witt_zero(seq.tower.field(1), 2)
    y, rep = solve_frobenius_normed(seq, 1, x)
    assert y.length == 3 and witt_eq(frobenius(y), x)
    assert rep == {"trivial": True, "exact": True, "norm_contract": True}


def test_normed_solver_never_returns_a_contract_violation():
    seq = build_root_sequence(2, 6)
    f1 = seq.tower.field(1)
    x = WittVec(f1, (f1.zero(), f1.uniformizer()))
    with pytest.raises(IntegralityViolation):
        solve_frobenius_normed(seq, 1, x)


@pytest.mark.parametrize("p, levels", [(2, 3), (3, 2)])
def test_root_powers_match_direct_powering(p, levels):
    seq = build_root_sequence(p, levels)
    tower = seq.tower
    for n in range(1, levels + 1):
        for level in range(n, levels + 2):
            F = tower.field(level)
            xn = tower.embed_up(n, level, seq.value(n))
            for e in (0, 1, 2, p, 5, p * p + 1):
                direct = F.pow_(xn, e)
                assert seq.power(n, e, level) == direct, (n, level, e)
                assert seq.power(n, -e, level) == F.inv(direct), (n, level, -e)
                assert F.mul(seq.power(n, e, level), seq.power(n, -e, level)) == F.one()
    # a second call hands back the memoized object
    assert seq.power(1, -5, 2) is seq.power(1, -5, 2)
    assert seq.power(levels, 3, levels + 1) is seq.power(levels, 3, levels + 1)


def test_a_second_solve_in_the_same_window_inverts_nothing(monkeypatch):
    seq = build_root_sequence(2, 6)
    f1 = seq.tower.field(1)
    x = WittVec(f1, (f1.from_int(6),))
    y, rep = solve_frobenius_normed(seq, 1, x)
    calls = []
    real = CyclotomicField.inv
    monkeypatch.setattr(CyclotomicField, "inv", lambda self, a: calls.append(a) or real(self, a))
    y2, rep2 = solve_frobenius_normed(seq, 1, x)
    assert calls == []
    assert (y2, rep2) == (y, rep)
    # a new sequence builds its own powers: the first solve does invert
    solve_frobenius_normed(build_root_sequence(2, 6), 1, x)
    assert calls


# sha256 of the JSON of the pinned normed solves' preimages and reports
_NORMED_SOLVES = "ae8b0edcf602fc1fde478ffdfab409458dde52b1a2cc56e72ec1c69db5f9d51d"


def test_normed_solves_are_pinned_byte_for_byte():
    """Integers, units times uniformizer powers, halves of uniformizer
    powers, and the branch-repair input (t^2, t^2)."""
    seq = build_root_sequence(2, 6)
    f1, f2 = seq.tower.field(1), seq.tower.field(2)
    t1, t2 = f1.uniformizer(), f2.uniformizer()
    u1 = f1.from_coeffs([1, 2, 0, 2])
    u2 = f2.from_coeffs([1, 0, 2, 2, 0, 0, 2, 0])
    cases = [(1, (f1.from_int(c),)) for c in (2, 3, 6, 10)]
    cases += [(1, (f1.mul(u1, f1.pow_(t1, j)),)) for j in (1, 5)]
    cases += [(2, (f2.mul(u2, f2.pow_(t2, j)),)) for j in (3, 11)]
    cases += [(2, (f2.scalar_mul(Fraction(1, 2), f2.pow_(t2, j)),)) for j in (1, 6)]
    sq = f1.pow_(t1, 2)
    cases += [(1, (f1.pow_(t1, 3),)), (1, (sq, sq))]
    out = []
    for level, comps in cases:
        x = WittVec(seq.tower.field(level), comps)
        y, rep = solve_frobenius_normed(seq, level, x)
        out.append({"y": witt_to_json(y), "report": rep})
        # the contract compares against |x|: embedding keeps the norm
        W = seq.tower.field(rep["working_level"])
        X = WittVec(W, tuple(seq.tower.embed_up(level, rep["working_level"], c) for c in x.components))
        assert witt_norm(X) == witt_norm(x)
    assert [o["report"]["digit_fix"] for o in out].count(True) == 1
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _NORMED_SOLVES


def test_unknown_instance_is_rejected():
    with pytest.raises(MalformedConfig):
        witt_perfect_test({"instance": "nope", "p": 2})


@pytest.mark.parametrize(
    "config, key",
    [
        ({"levels": 0}, "levels"),
        ({"levels": -1}, "levels"),
        ({"levels": 1, "samples": 0}, "samples"),
    ],
)
def test_a_tower_test_that_checks_nothing_is_refused(config, key):
    with pytest.raises(MalformedConfig, match=f"^tower {key} must be an integer >= 1, got "):
        witt_perfect_test({"instance": "tower", "p": 3, **config})


def test_a_residue_without_a_root_fails_its_tower_level(monkeypatch):
    """A root that cannot be built is counted out of ``roots_constructed``,
    the level fails and a note names the residue: the verdict is ``no``, and
    no ``NoRoot`` escapes the test."""
    build = CyclotomicField.mod_p_root
    calls = []

    def one_fails(field, a):
        calls.append(a)
        if len(calls) == 2:
            raise NoRoot("refused by the test")
        return build(field, a)

    monkeypatch.setattr(CyclotomicField, "mod_p_root", one_fails)
    report = witt_perfect_test({"instance": "tower", "p": 2, "levels": 1})
    level = report.condition_a["levels"]["level_1"]
    assert report.verdict == "no"
    assert level["roots_constructed"] == level["residues_checked"] - 1 == len(calls) - 1
    assert report.notes == ("level 1: residue [0, 0, 0, 1] has no root: refused by the test",)
