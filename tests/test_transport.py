"""Ghost transport over Z and Z/p^M on ints against the rational-cover
transport (``oracles.cover_transport``), byte for byte."""

import json
import random

import pytest

from wittlab.rings import Integers, ZModPM
from wittlab.univ import structure_cap, structure_poly
from wittlab.witt import WittVec, frobenius, witt_add, witt_mul, witt_neg

import oracles

_OPS = {"sum": witt_add, "prod": witt_mul}


def _bytes(ring, elts):
    return json.dumps([ring.elt_to_json(c) for c in elts])


def _carry_frobenius(ring, comps):
    """F(x) as the cover dispatch computes it: up to the cached range, the
    carry formula F_i = x_i^p + p*x_{i+1} + p*f_i(x_1..x_i) in the ring;
    past it, the transport through the cover."""
    p = ring.p
    if len(comps) - 2 > structure_cap(p):
        return oracles.cover_transport(ring, "frob", comps)
    p_elt = ring.from_int(p)
    out = []
    for i in range(len(comps) - 1):
        acc = ring.add(ring.pow_(comps[i], p), ring.mul(p_elt, comps[i + 1]))
        if i:
            carry = oracles.eval_poly(ring, structure_poly(p, i, "frob_f").terms, comps[: i + 1])
            acc = ring.add(acc, ring.mul(p_elt, carry))
        out.append(acc)
    return tuple(out)


def _zmod_vectors(ring, length, rng):
    """Components with a nonzero leading digit: one vector at full precision,
    two with one component a digit short, then zero and one."""
    p, M = ring.p, ring.M
    out = []
    for short in (False, True, True):
        comps = [ring.from_int(rng.randrange(1, p) * p ** (M - 1) + rng.randrange(p ** (M - 1)))
                 for _ in range(length)]
        if short:
            i = rng.randrange(length)
            comps[i] = ring.truncate(comps[i], M - 1)
        out.append(tuple(comps))
    out.append(tuple(ring.zero() for _ in range(length)))
    out.append((ring.one(),) + tuple(ring.zero() for _ in range(length - 1)))
    return out


@pytest.mark.parametrize("p, M", [(2, 6), (3, 4), (5, 3)])
def test_zmod_transport_on_ints_matches_the_rational_cover(p, M):
    ring = ZModPM(p, M)
    rng = random.Random(f"Z/{p}^{M}")
    for length in range(1, 8):
        vecs = _zmod_vectors(ring, length, rng)
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
            want = _carry_frobenius(ring, x)
            assert got == want and _bytes(ring, got) == _bytes(ring, want), ("frob", x)
            # below the cap the carry formula keeps more digits than the cover
            # transport, and agrees with it on the digits both know
            for a, b in zip(got, oracles.cover_transport(ring, "frob", x)):
                assert a.prec >= b.prec and ring.eq(a, b), ("frob", x)


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
