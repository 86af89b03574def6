"""Tilts over truncated bases and overconvergence in characteristic p."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from wittlab.cyclotomic import CycloModPM
from wittlab.errors import (
    CapabilityMissing,
    DepthExceeded,
    LengthMismatch,
    MalformedConfig,
    NotEnumerable,
)
from wittlab.norms import NormValue
from wittlab.perfpoly import PerfPolyRing
from wittlab.rings import Integers, Rationals, ZModPM
from wittlab import tilt
from wittlab.tilt import (
    TiltElt,
    TiltRing,
    charp_arrow_realization,
    charp_limit_norm,
    charp_overconv_norm,
    growth_family,
    growth_profile_report,
    make_tilt,
    tilt_add,
    tilt_from_top,
    tilt_mul,
    tilt_pth_root,
    tilt_to_json,
    untilt,
    untilt_isometry,
)
from wittlab.witt import WittVec
from wittlab.arrow import arrow_norm

import oracles


def test_chains_are_pth_power_coherent():
    base = ZModPM(2, 3)
    x = tilt_from_top(base, base.from_int(3), 3)
    for m in range(3):
        assert base.eq(base.mul(x.entries[m + 1], x.entries[m + 1]), x.entries[m])
    bad = list(x.entries)
    bad[0] = base.from_int(5)
    with pytest.raises(LengthMismatch):
        make_tilt(base, bad, validate=True)


def test_enumeration_counts_over_small_bases():
    base = ZModPM(2, 2)
    chains = TiltRing(base, 2).elements()
    # every chain is determined by (top entry, compatible lower entries)
    seen = {tuple(base.digits(e)[0] for e in c.entries) for c in chains}
    assert len(seen) == len(chains)
    for c in chains:
        for m in range(2):
            assert base.eq(base.mul(c.entries[m + 1], c.entries[m + 1]), c.entries[m])


def test_ring_laws_on_all_depth_two_chains_mod_four():
    base = ZModPM(2, 2)
    ring = TiltRing(base, 2)
    chains = ring.elements()
    zero = ring.from_int(0)
    for x, y in itertools.product(chains[:8], chains[:8]):
        assert ring.eq(tilt_add(x, y), tilt_add(y, x))
        assert ring.eq(tilt_mul(x, y), tilt_mul(y, x))
    for x in chains:
        assert ring.eq(tilt_add(x, ring.neg(x)), zero)
        # characteristic p: the p-fold sum vanishes
        assert ring.is_zero(tilt_add(x, x))


def test_frobenius_and_root_are_mutual_shifts():
    base = ZModPM(3, 2)
    ring, lower = TiltRing(base, 3), TiltRing(base, 2)
    x = tilt_from_top(base, base.from_int(2), 3)
    trunc = TiltElt(base, x.entries[:-1])
    assert lower.eq(tilt_pth_root(ring.pow_p_tower(x, 1)), trunc)
    assert lower.eq(lower.pow_p_tower(tilt_pth_root(x), 1), trunc)
    with pytest.raises(DepthExceeded):
        tilt_pth_root(TiltElt(base, (base.from_int(2),)))


def test_residue_and_norm():
    base = ZModPM(2, 3)
    two = tilt_from_top(base, base.from_int(2), 1)
    # head entry is 2**2 = 4, so the head norm sees exponent 2
    assert TiltRing(base, 1).seminorm(two) == NormValue.from_exponent(2)
    deep = tilt_from_top(base, base.from_int(2), 3)
    assert TiltRing(base, 3).seminorm(deep).is_zero  # 2**8 = 0 mod 8: below resolution
    assert base.digits(deep.entries[0]) == (0,)


def test_serialization_roundtrips():
    base = ZModPM(2, 3)
    ring = TiltRing(base, 2)
    x = tilt_from_top(base, base.from_int(3), 2)
    assert ring.eq(ring.parse_elt(ring.format_elt(x)), x)
    # the JSON form is written, never read back: pin it
    assert tilt_to_json(x) == {"base": {"kind": "Zmod", "p": 2, "M": 3}, "entries": [1, 1, 3]}


def test_tilt_ring_wraps_chains_as_ring_elements():
    base = ZModPM(2, 3)
    tring = TiltRing(base, 2)
    a = tring.from_int(3)
    b = tring.from_int(1)
    assert tring.char_p
    assert tring.eq(tring.add(a, b), tilt_add(a, b))
    assert tring.is_zero(tring.add(a, a))


def test_overconvergence_formula_agrees_with_truncated_limits():
    ring = PerfPolyRing(2, 1, 6)
    x = WittVec(
        ring,
        (
            ring.monomial([Fraction(3, 4)]),
            ring.monomial([2]),
            ring.add(ring.one(), ring.monomial([Fraction(1, 2)])),
        ),
    )
    # zero-padded to length 5, so that the realization reaches depth 4
    padded = WittVec(ring, x.components + (ring.zero(),) * 2)
    for b in (Fraction(1, 2), 1, 2):
        rep = charp_limit_norm(padded, b)
        assert rep["passed"], rep
        # exported exponents are log_p of the value
        assert charp_overconv_norm(x, b) == NormValue.p_power(
            Fraction(rep["formula_exponent"])
        )


def test_realized_arrow_reproduces_the_formula_norm():
    ring = PerfPolyRing(2, 1, 5)
    x = WittVec(ring, (ring.monomial([Fraction(1, 2)]), ring.monomial([3])))
    # zero-padded to length 4, so that the realization reaches depth 3
    a = charp_arrow_realization(WittVec(ring, x.components + (ring.zero(),) * 2))
    got = arrow_norm(a, 1)
    assert got.value == charp_overconv_norm(x, 1)


def test_a_tilt_has_no_realization_past_level_zero():
    # a chain loses a level per p-th root, so a tilt keeps the Ring default
    # refusal of roots mod p, and the realization of a longer vector refuses
    ring = TiltRing(ZModPM(3, 3), 2)
    x = WittVec(ring, (ring.one(), ring.one()))
    with pytest.raises(CapabilityMissing, match="^tilt: p-th roots mod p not supported$"):
        charp_arrow_realization(x)


@pytest.mark.parametrize("C,D", [(0, 0), (1, 0), (1, 2), (2, 1)])
def test_growth_dichotomy(C, D):
    ring = PerfPolyRing(2, 1, 4)
    x = growth_family(ring, C, D, 4)
    for b in (Fraction(1, 2), 1, 2, 3):
        rep = growth_profile_report(x, b, C, D)
        assert rep["degree_bound_holds"]
        assert rep["bounded_predicted"] == (b >= C)
        assert rep["passed"]
        if b >= C:
            assert rep["sup_exponent"] == str(Fraction(D))


def test_growth_report_fails_a_family_over_its_declared_bound():
    ring = PerfPolyRing(2, 1, 4)
    x = growth_family(ring, 2, 1, 4)
    rep = growth_profile_report(x, 3, 1, 1)
    assert not rep["degree_bound_holds"] and not rep["passed"]
    # a looser D keeps the degree bound but predicts the supremum p^2, not p^1
    rep = growth_profile_report(x, 2, 2, 2)
    assert rep["degree_bound_holds"] and not rep["passed"]


def test_untilt_of_a_teichmuller_chain_is_coherent():
    base = ZModPM(2, 4)
    tring = TiltRing(base, 3)
    chain = tilt_from_top(base, base.from_int(3), 3)
    x = WittVec(tring, (chain,))
    a = untilt(x, 2)
    assert a.depth == 2
    # level n is the Teichmueller lift of the chain entry n levels down
    for n in range(3):
        head = a.levels[n].components[0]
        assert base.eq(head, chain.entries[n])
        for c in a.levels[n].components[1:]:
            assert base.is_zero(c)


def _top_chain(rng, base, depth):
    top = base.from_digits([rng.randrange(base.p ** base.M) for _ in range(base.e)])
    return tilt_from_top(base, top, depth)


def _short_chain(rng, base, depth):
    """A coherent chain with a random top, cut at every slot to a random
    precision (coherence only needs the minimum)."""
    chain = _top_chain(rng, base, depth)
    return make_tilt(base, [base.truncate(e, rng.randint(1, base.M)) for e in chain.entries])


@pytest.mark.parametrize(
    "base",
    [ZModPM(3, 3), CycloModPM(3, 2, 2), CycloModPM(2, 5, 4)],
    ids=["Z/3^3", "Zzeta9/3^2", "Zzeta32/2^4"],
)
def test_untilt_matches_the_chain_of_arrow_ops(base, monkeypatch):
    """One transport per family level gives the bytes of the zero family
    plus p^j times each Teichmueller family, tail bound included, on full
    chains, chain sums (whose deep slots are short) and chains cut to random
    precisions."""
    from wittlab import witt as witt_module
    from wittlab.arrow import arrow_to_json

    unghosts = []
    real_unghost = witt_module.unghost
    monkeypatch.setattr(witt_module, "unghost", lambda g, *a: unghosts.append(g) or real_unghost(g, *a))
    rng = random.Random(base.e * 10 + base.M)
    for N in range(4):
        for length in (1, 2, 3):
            depth = N + length - 1 + rng.randint(0, 1)
            ring = TiltRing(base, depth)
            draws = [
                lambda: _top_chain(rng, base, depth),
                lambda: tilt_add(_top_chain(rng, base, depth), _top_chain(rng, base, depth)),
                lambda: _short_chain(rng, base, depth),
            ]
            for draw in draws:
                x = WittVec(ring, tuple(draw() for _ in range(length)))
                unghosts.clear()
                got = untilt(x, N)
                # one transport per family level, none for the families
                assert len(unghosts) == N + 1
                want = oracles.untilt_by_arrow_ops(x, N)
                assert json.dumps(arrow_to_json(got)) == json.dumps(arrow_to_json(want)), (N, length)


def test_a_chain_needs_a_base_with_a_digit_budget():
    # over Z the top 3 would give the "chain" (81, 9, 3), which tilt_mul accepted
    for base in (Integers(2), Rationals(3)):
        with pytest.raises(
            CapabilityMissing,
            match=f"^tilting needs a truncated base with a digit budget; got {base.kind}$",
        ):
            tilt_from_top(base, base.from_int(3), 2)


def test_negative_depths_are_refused():
    base = ZModPM(3, 2)
    depth = "^tilt depth must be an integer >= 0, got -1$"
    with pytest.raises(MalformedConfig, match=depth):
        tilt_from_top(base, base.one(), -1)
    with pytest.raises(MalformedConfig, match=depth):
        TiltRing(base, -1).from_int(1)
    with pytest.raises(MalformedConfig, match=depth):
        TiltRing(base, -1)
    x = WittVec(TiltRing(base, 2), (tilt_from_top(base, base.one(), 2),))
    with pytest.raises(MalformedConfig, match="^family depth must be an integer >= 0, got -1$"):
        untilt(x, -1)


def test_untilt_isometry_on_certified_inputs():
    from wittlab.cyclotomic import CycloModPM

    base = CycloModPM(2, 5, 4)
    tring = TiltRing(base, 4)
    t = base.make([1, -1])
    chains = [
        tilt_from_top(base, base.one(), 4),
        tilt_from_top(base, t, 4),
        tilt_from_top(base, base.mul(t, t), 4),
    ]
    for chain in chains:
        x = WittVec(tring, (chain,))
        for b in (Fraction(1, 4), Fraction(1, 2), 1):
            rep = untilt_isometry(x, 2, b)
            assert rep["isometric"], rep


def test_enumeration_over_a_cyclotomic_base():
    base = CycloModPM(2, 2, 1)
    chains = TiltRing(base, 2).elements()
    assert len(chains) == 4
    # M = 1: each head's digits are its residue
    assert [base.digits(c.entries[0]) for c in chains] == [(0, 0), (1, 0), (1, 0), (0, 0)]


def test_enumeration_refuses_past_its_limit(monkeypatch):
    monkeypatch.setattr(tilt, "_ENUMERATION_LIMIT", 10)
    with pytest.raises(NotEnumerable, match="^64 .*exceed the enumeration limit 10$"):
        TiltRing(CycloModPM(2, 2, 3), 2).elements()


# -- tilt_add against the per-slot formula ----------------------------------------

_SUM_BASES = [
    (ZModPM(3, 3), 4),  # D > M
    (CycloModPM(2, 2, 2), 4),  # D > M over a ramified base
    (CycloModPM(2, 5, 4), 4),  # D = M
    (CycloModPM(2, 2, 4), 2),  # D < M
    (ZModPM(2, 5), 3),  # D < M
]


def _oracle_sum_json(base, xs, ys):
    k = getattr(base, "k", None)
    entries = []
    for digits, prec in oracles.chain_sum(base.p, k, base.M, xs, ys, len(xs) - 1):
        payload = digits[0] if k is None else list(digits)
        key = "value" if k is None else "coeffs"
        entries.append(payload if prec == base.M else {key: payload, "prec": prec})
    return {"base": base.to_config(), "entries": entries}


@pytest.mark.parametrize(
    "base, depth",
    _SUM_BASES,
    ids=["Zmod-3-3-D4", "ZzetaMod-2-2-2-D4", "ZzetaMod-2-5-4-D4", "ZzetaMod-2-2-4-D2", "Zmod-2-5-D3"],
)
def test_tilt_add_matches_the_per_slot_formula(base, depth):
    """z_m = (x_{m+l} + y_{m+l})^(p^l) mod p^min(l+1, M), l = min(M, D - m),
    byte for byte, from chains whose slots carry mixed precisions.  The last
    four draws leave the chains incoherent: the sum reads only their top
    entries, so it is the sum of the coherent chains built from those tops,
    which the per-slot formula gives too."""

    def draw():
        return base.from_digits(
            [rng.randrange(base.p ** base.M) for _ in range(base.e)], rng.randint(1, base.M)
        )

    def oracle_json(chains):
        xs, ys = ([(base.digits(e), e.prec) for e in c.entries] for c in chains)
        return json.dumps(_oracle_sum_json(base, xs, ys), sort_keys=True)

    rng = random.Random(f"{base!r}|{depth}")
    for sample in range(8):
        chains = []
        for _ in range(2):
            if sample >= 4:
                chains.append(make_tilt(base, [draw() for _ in range(depth + 1)], validate=False))
                continue
            entries = tilt_from_top(base, draw(), depth).entries
            chains.append(make_tilt(base, [base.truncate(e, rng.randint(1, base.M)) for e in entries]))
        got = json.dumps(tilt_to_json(tilt_add(*chains)), sort_keys=True)
        if sample >= 4:
            chains = [tilt_from_top(base, c.entries[-1], depth) for c in chains]
            assert got == json.dumps(tilt_to_json(tilt_add(*chains)), sort_keys=True)
        assert got == oracle_json(chains)


# -- TiltRing, method by method, against the oracles --------------------------------

_TABLE = [
    (ZModPM(2, 3), 4),  # D > M
    (ZModPM(2, 3), 3),  # D = M
    (ZModPM(2, 3), 2),  # D < M
    (ZModPM(3, 2), 3),
    (ZModPM(3, 2), 2),
    (ZModPM(3, 2), 1),
    (CycloModPM(2, 2, 2), 3),
    (CycloModPM(2, 2, 2), 2),
    (CycloModPM(2, 2, 2), 1),
]


@pytest.mark.parametrize(
    "base, depth", _TABLE, ids=[f"{base.label}-D{depth}" for base, depth in _TABLE]
)
def test_tilt_ring_methods_match_the_oracles(base, depth):
    """Each method on (digits, prec) views of chains, of chain sums (whose
    deep slots are short) and of chains cut to random precisions, against the
    direct formulas: constants are n^(p^M) in every slot, products and p-th
    powers slot by slot under the precision rule, sums per
    ``oracles.chain_sum``, and the norm that of the head.  A chain one level
    deeper is refused by every method."""
    p, M, k = base.p, base.M, getattr(base, "k", None)
    ring = TiltRing(base, depth)

    def view(x):
        return [(base.digits(e), e.prec) for e in x.entries]

    def cut(ds, prec):
        return tuple(d % p**prec for d in ds)

    def text(ds, prec):
        body = str(ds[0]) if k is None else "[" + ", ".join(map(str, ds)) + "]"
        return body if prec == M else f"{body}~{prec}"

    chains = ring.elements()
    assert len(chains) == p ** (M * base.e)
    rng = random.Random(f"{base!r}|{depth}")
    xs = rng.sample(chains, 6)
    xs += [ring.add(*rng.sample(xs, 2)) for _ in range(4)]
    xs += [
        make_tilt(base, [base.truncate(e, rng.randint(1, M)) for e in c.entries])
        for c in rng.sample(chains, 4)
    ]

    zero_digits = (0,) * (base.e - 1)
    for n in (0, 1, 2, -1, 5):
        omega = oracles.trunc_pow(p, k, (n,) + zero_digits, p**M, p**M)
        assert view(ring.from_int(n)) == [(omega, M)] * (depth + 1)

    for x in xs:
        vx = view(x)
        negated = [(cut([-d for d in ds], prec), prec) for ds, prec in vx]
        assert view(ring.neg(x)) == (vx if p == 2 else negated)
        assert ring.is_zero(x) == all(not any(ds) for ds, _ in vx)
        want = vx
        for l in range(3):
            assert view(ring.pow_p_tower(x, l)) == want
            ds, prec = want[0]
            up = min(prec + 1, M)
            want = [(oracles.trunc_pow(p, k, ds, p, p**up), up)] + want[:-1]
        head = vx[0][0]
        if not any(head):
            assert ring.seminorm(x) == NormValue.zero()
        else:
            if k is None:
                v = oracles.vp_int(head[0], p)
            else:
                v = oracles.cyclotomic_valuation(head, p, k)
            assert ring.seminorm(x) == NormValue.from_exponent(v)
        shown = ring.format_elt(x)
        assert shown == "[" + "; ".join(text(ds, prec) for ds, prec in vx) + "]"
        assert ring.eq(ring.parse_elt(shown), x)
        assert ring.format_elt(ring.parse_elt(shown)) == shown

    for x, y in itertools.product(xs, repeat=2):
        vx, vy = view(x), view(y)
        assert view(ring.add(x, y)) == oracles.chain_sum(p, k, M, vx, vy, depth)
        precs = [min(a[1], b[1]) for a, b in zip(vx, vy)]
        assert view(ring.mul(x, y)) == [
            (oracles.trunc_mul(p, k, a, b, p**prec), prec)
            for (a, _), (b, _), prec in zip(vx, vy, precs)
        ]
        same = all(cut(a, prec) == cut(b, prec) for (a, _), (b, _), prec in zip(vx, vy, precs))
        assert ring.eq(x, y) == same

    deeper = tilt_from_top(base, base.one(), depth + 1)
    x = xs[0]
    calls = [
        lambda: ring.add(x, deeper),
        lambda: ring.mul(deeper, x),
        lambda: ring.neg(deeper),
        lambda: ring.eq(x, deeper),
        lambda: ring.is_zero(deeper),
        lambda: ring.pow_p_tower(deeper, 1),
        lambda: ring.seminorm(deeper),
        lambda: ring.format_elt(deeper),
        lambda: TiltRing(base, depth + 1).parse_elt(ring.format_elt(x)),
    ]
    for call in calls:
        with pytest.raises(LengthMismatch, match="^this tilt ring holds depth-"):
            call()


_DELETED_CHAIN_FUNCTIONS = (
    "tilt_constant", "tilt_neg", "tilt_eq", "tilt_is_zero", "tilt_frobenius", "tilt_norm",
    "enumerate_tilts", "format_tilt", "parse_tilt", "check_chain",
)


def test_chains_have_one_api():
    """The chain ring's methods are the only copy of its arithmetic, text and
    enumeration: no module function duplicates them."""
    import wittlab

    for name in _DELETED_CHAIN_FUNCTIONS:
        assert not hasattr(tilt, name), name
        assert not hasattr(wittlab, name), name
