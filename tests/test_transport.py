"""Ghost transport over Z, Z/p^M and Z[zeta]/p^M against the exact cover
transport on canonical lifts (``oracles.cover_transport``), byte for byte,
the Frobenius included at every length; the carry formula checks its
values.  The truncated transport settles each component it unghosts to a
balanced lift at its output precision; its numbers stay that small."""

import json
import random

import pytest

from wittlab import witt
from wittlab.cyclotomic import CycloModPM, cyclotomic_field
from wittlab.rings import Integers, ZModPM
from wittlab.univ import structure_cap, structure_poly
from wittlab.witt import WittVec, frobenius, witt_add, witt_mul, witt_neg

import oracles

_OPS = {"sum": witt_add, "prod": witt_mul}


def _bytes(ring, elts):
    return json.dumps([ring.elt_to_json(c) for c in elts])


def _carry_frobenius(ring, comps):
    """F(x) by the carry formula F_i = x_i^p + p*x_{i+1} + p*f_i(x_1..x_i)
    in the ring, at lengths up to structure_cap(p) + 2, where frob_f is
    cached; each component keeps the precision its own inputs give it."""
    p = ring.p
    p_elt = ring.from_int(p)
    out = []
    for i in range(len(comps) - 1):
        acc = ring.add(ring.pow_(comps[i], p), ring.mul(p_elt, comps[i + 1]))
        if i:
            carry = oracles.eval_poly(ring, structure_poly(p, i, "frob_f").terms, comps[: i + 1])
            acc = ring.add(acc, ring.mul(p_elt, carry))
        out.append(acc)
    return tuple(out)


def _truncated_vectors(ring, length, rng):
    """Components whose digits have a nonzero leading p-adic digit: one
    vector at full precision, two with one component a digit short, then
    zero and one."""
    p, M = ring.p, ring.M
    out = []
    for short in (False, True, True):
        comps = [
            ring.from_digits([rng.randrange(1, p) * p ** (M - 1) + rng.randrange(p ** (M - 1))
                              for _ in range(ring.e)])
            for _ in range(length)
        ]
        if short:
            i = rng.randrange(length)
            comps[i] = ring.truncate(comps[i], M - 1)
        out.append(tuple(comps))
    out.append(tuple(ring.zero() for _ in range(length)))
    out.append((ring.one(),) + tuple(ring.zero() for _ in range(length - 1)))
    return out


def _matches_the_cover_transport(ring, lengths, rng):
    for length in lengths:
        vecs = _truncated_vectors(ring, length, rng)
        for x, y in zip(vecs, vecs[1:] + vecs[:1]):
            X, Y = WittVec(ring, x), WittVec(ring, y)
            for kind, op in _OPS.items():
                got = op(X, Y).components
                want = oracles.cover_transport(ring, kind, x, y)
                assert got == want and _bytes(ring, got) == _bytes(ring, want), (kind, x, y)
            got = witt_neg(X).components
            want = oracles.cover_transport(ring, "neg", x)
            assert got == want and _bytes(ring, got) == _bytes(ring, want), ("neg", x)
            if length < 2:
                continue
            got = frobenius(X).components
            want = oracles.cover_transport(ring, "frob", x)
            assert got == want and _bytes(ring, got) == _bytes(ring, want), ("frob", x)
            if length - 2 > structure_cap(ring.p):
                continue
            # every component carries the minimum input precision, and the
            # carry formula agrees with it mod p to that power
            prec = min(c.prec for c in x)
            for a, b in zip(got, _carry_frobenius(ring, x)):
                assert a.prec == prec and ring.eq(a, b), ("frob", x)


@pytest.mark.parametrize("p, M", [(2, 6), (3, 4), (5, 3)])
def test_zmod_transport_on_ints_matches_the_rational_cover(p, M):
    _matches_the_cover_transport(ZModPM(p, M), range(1, 8), random.Random(f"Z/{p}^{M}"))


@pytest.mark.parametrize("p, k, M", [(2, 3, 4), (3, 2, 2)])
def test_cyclo_mod_transport_matches_the_field_cover(p, k, M):
    ring = CycloModPM(p, k, M)
    _matches_the_cover_transport(ring, range(1, 6), random.Random(ring.label))


def test_settling_keeps_the_unghosted_components_small(monkeypatch):
    """Over Z/5^3 at length 7 the transport settles every component it
    unghosts, each to the balanced lift at the minimum input precision a:
    |z| <= 5**a / 2."""
    ring, real_unghost = ZModPM(5, 3), witt.unghost
    settled = []

    def spy(g, settle):
        def recorded(z):
            settled.append(settle(z))
            return settled[-1]

        return real_unghost(g, recorded)

    monkeypatch.setattr(witt, "unghost", spy)
    rng = random.Random("settle")
    for low in (1, 2, 3) * 4:
        x, y = (
            WittVec(ring, tuple(ring.make(rng.randrange(125), rng.randint(low, 3)) for _ in range(7)))
            for _ in range(2)
        )
        for op, args in ((witt_add, (x, y)), (witt_mul, (x, y)), (frobenius, (x,))):
            a = min(c.prec for v in args for c in v.components)
            settled.clear()
            assert op(*args).length == len(settled)
            assert all(2 * abs(z) <= 5**a for z in settled), (a, settled)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_z_transports_in_place_like_the_rational_cover(p):
    ring = Integers(p)
    rng = random.Random(f"Z|{p}")
    for length in range(1, 6):
        for _ in range(4):
            x = tuple(rng.randint(-9, 9) for _ in range(length))
            y = tuple(rng.randint(-9, 9) for _ in range(length))
            X, Y = WittVec(ring, x), WittVec(ring, y)
            for kind, op in _OPS.items():
                assert op(X, Y).components == oracles.cover_transport(ring, kind, x, y)
            assert witt_neg(X).components == oracles.cover_transport(ring, "neg", x)
            if length > 1:
                assert frobenius(X).components == oracles.cover_transport(ring, "frob", x)


_FROB_RINGS = {"Z/3^4": ZModPM(3, 4), "Z": Integers(2), "Qzeta9": cyclotomic_field(3, 2)}


def _counting(monkeypatch, module, name, calls):
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("name", list(_FROB_RINGS))
def test_one_frobenius_is_one_ghost_shift(name, monkeypatch):
    """At every length, below the cached carry range and past it, one
    Frobenius ghosts once and unghosts once."""
    ring = _FROB_RINGS[name]
    rng = random.Random(name)
    if ring.kind == "Zmod":
        draw = lambda: ring.from_int(rng.randrange(ring.p**ring.M))
    elif ring.kind == "Z":
        draw = lambda: rng.randint(-9, 9)
    else:
        draw = lambda: ring.from_coeffs([rng.randint(-1, 1) for _ in range(ring.e)])
    calls = []
    for fn in ("ghost", "unghost"):
        _counting(monkeypatch, witt, fn, calls)
    for length in range(2, 8):
        x = WittVec(ring, tuple(draw() for _ in range(length)))
        calls.clear()
        frobenius(x)
        assert calls == ["ghost", "unghost"], (length, calls)
