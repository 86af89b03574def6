"""The one ring contract that `rings.Ring` states for every ring kind.

* A ring gives its `valuation` v (None for 0), and `seminorm` is p**(-v),
  stated once on `Ring`; v agrees with an independent valuation.
* A ring names its constructor arguments once, in `config_keys`; `to_config`
  builds the config from them in that order and `ring_from_config` inverts
  it.  The guard at the end walks every concrete `Ring` subclass defined in
  `src/wittlab`, so a new kind that skips the config table, or reorders its
  constructor, fails here.
* Only truncated rings carry a transport cover.
* An element's text reads back as the element: ``parse_elt(format_elt(a))
  == a`` for every kind, and for the suites' random draws of every kind.
"""

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest

import oracles
import wittlab
from wittlab import suites
from wittlab.config import ring_from_config
from wittlab.cyclotomic import CycloModPM, GaussianField, cyclotomic_field
from wittlab.norms import NormValue
from wittlab.perfpoly import PerfPolyRing
from wittlab.rings import Integers, Rationals, Ring, TruncatedRing, ZModPM, vp_int
from wittlab.tilt import TiltRing, tilt_from_top


def _independent_valuation(ring, a):
    """v(a) without the ring's own valuation, for a nonzero a."""
    if isinstance(ring, TiltRing):  # the norm of a chain is the norm of its head
        return _independent_valuation(ring.base, a.entries[0])
    if isinstance(ring, PerfPolyRing):
        return -ring.degree(a)
    if isinstance(ring, GaussianField):
        places = (ring.pi, ring.pibar)
        return min(oracles.gauss_place_valuation(ring.coeffs(a), ring.p, pi) for pi in places)
    if isinstance(ring, Rationals):
        return vp_int(a.numerator, ring.p) - vp_int(a.denominator, ring.p)
    if isinstance(ring, Integers):
        return vp_int(a, ring.p)
    if isinstance(ring, ZModPM):
        return vp_int(a.coeffs[0], ring.p)
    if isinstance(ring, CycloModPM):
        return oracles.cyclotomic_valuation(a.coeffs, ring.p, ring.k)
    return oracles.cyclotomic_valuation(ring.coeffs(a), ring.p, ring.k)  # Q(zeta)


def _tilt(base, tops):
    ring = TiltRing(base, 2)
    return ring, [ring.zero()] + [tilt_from_top(base, base.parse_elt(t), 2) for t in tops]


def _kinds():
    """One ring of every kind, with zero and a few elements of each."""
    z, q, qi = Integers(2), Rationals(3), GaussianField(5)
    qz, zm, zz = cyclotomic_field(2, 3), ZModPM(3, 4), CycloModPM(2, 3, 4)
    pp = PerfPolyRing(2, 1, 3)
    return [
        (z, [0, 1, 12, -40]),
        (q, [Fraction(0), Fraction(9, 2), Fraction(5, 27), Fraction(-1)]),
        (qi, [qi.zero(), qi.from_int(5), qi.parse_elt("2+i"), qi.parse_elt("1/5+3i")]),
        (qz, [qz.zero(), qz.from_int(4), *map(qz.parse_elt, ("[1, 1, 0, 0]", "[1/2, 3, 0, 1]"))]),
        (zm, [zm.zero(), zm.make(9), zm.make(5, 2), zm.make(9, 2), zm.make(18, 3)]),
        (zz, [zz.zero(), zz.make([1, 1, 0, 0]), zz.make([2, 4, 6, 0], 3), zz.make([0, 8], 3)]),
        (pp, [pp.zero(), pp.one(), pp.parse_elt("x^(1/8) + x"), pp.parse_elt("x^(3/4)")]),
        _tilt(zm, ["0", "3", "7", "6~2"]),
        _tilt(zz, ["[0, 0, 0, 0]", "[1, 1, 0, 0]", "[3, 0, 2, 0]"]),
    ]


KINDS = _kinds()
IDS = [ring.kind + (f"-{ring.base.kind}" if ring.kind == "tilt" else "") for ring, _ in KINDS]


@pytest.mark.parametrize("ring, elements", KINDS, ids=IDS)
def test_the_seminorm_is_p_to_the_minus_valuation(ring, elements):
    zeros = 0
    for a in elements:
        v = ring.valuation(a)
        if v is None:
            zeros += 1
            assert ring.seminorm(a) == NormValue.zero() and ring.seminorm(a).is_zero
        else:
            assert ring.seminorm(a) == NormValue.from_exponent(v)
            assert v == _independent_valuation(ring, a), ring.format_elt(a)
    assert 1 <= zeros < len(elements)


@pytest.mark.parametrize("ring, elements", KINDS, ids=IDS)
def test_every_kind_round_trips_its_config(ring, elements):
    config = ring.to_config()
    assert list(config) == ["kind", *type(ring).config_keys]
    back = ring_from_config(config)
    assert back.to_config() == config and repr(back) == repr(ring)
    assert back.same_ring(ring) and ring.same_ring(back)


@pytest.mark.parametrize("ring, elements", KINDS, ids=IDS)
def test_every_element_round_trips_its_text(ring, elements):
    for a in elements:
        assert ring.parse_elt(ring.format_elt(a)) == a, ring.format_elt(a)


@pytest.mark.parametrize("kind", sorted(suites._DRAWS))
def test_drawn_elements_round_trip_their_text(kind):
    """300 draws from each row of the suites' draw table, over the ring of
    that kind above."""
    ring = next(ring for ring, _ in KINDS if ring.kind == kind)
    rng = random.Random(kind)
    for _ in range(300):
        a = suites._draw_elt(rng, ring)
        assert ring.parse_elt(ring.format_elt(a)) == a, ring.format_elt(a)


def test_configs_keep_their_key_order():
    assert repr(CycloModPM(2, 3, 4)) == "ZzetaMod(p=2, k=3, M=4)"
    assert list(PerfPolyRing(2, 1, 3).to_config()) == ["kind", "p", "nvars", "depth"]
    assert ring_from_config({"kind": "Qzeta", "p": 2, "k": 3}) is cyclotomic_field(2, 3)


# -- the guard: every concrete ring class in src/wittlab ------------------------

for _module in pkgutil.iter_modules(wittlab.__path__):
    if _module.name != "__main__":
        importlib.import_module(f"wittlab.{_module.name}")


def _ring_classes():
    out, todo = [], [Ring]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("wittlab."):
            out.append(cls)
    return sorted(set(out), key=lambda c: c.__qualname__)


RING_CLASSES = _ring_classes()
CONCRETE = [cls for cls in RING_CLASSES if not inspect.isabstract(cls)]

# one value per config key, enough to build every kind
_SAMPLE = {"p": 2, "M": 3, "k": 3, "nvars": 1, "depth": 2, "base": {"kind": "Zmod", "p": 2, "M": 3}}


def test_the_guard_sees_every_kind():
    assert {cls.kind for cls in CONCRETE} >= {
        "Z", "Q", "Qi", "Qzeta", "Zmod", "ZzetaMod", "PerfPoly", "tilt",
    }


@pytest.mark.parametrize("cls", CONCRETE, ids=[cls.__name__ for cls in CONCRETE])
def test_config_keys_are_the_constructor_arguments(cls):
    params = list(inspect.signature(cls.__init__).parameters)
    assert params[0] == "self" and tuple(params[1:]) == cls.config_keys


@pytest.mark.parametrize("cls", CONCRETE, ids=[cls.__name__ for cls in CONCRETE])
def test_ring_from_config_builds_every_kind(cls):
    config = {"kind": cls.kind, **{key: _SAMPLE[key] for key in cls.config_keys}}
    ring = ring_from_config(config)
    assert type(ring) is cls and ring.to_config() == config


def test_the_contract_is_stated_once():
    """`seminorm` lives on `Ring` alone, `to_config` on `Ring` and on the
    tilt (whose base is a nested config), and the transport cover on the
    truncated rings alone."""
    assert [cls for cls in RING_CLASSES if "seminorm" in vars(cls)] == [Ring]
    assert {cls for cls in RING_CLASSES if "to_config" in vars(cls)} == {Ring, TiltRing}
    for name in ("cover_ring", "cover", "lift_to_cover", "reduce_from_cover", "precision_of"):
        assert not hasattr(Ring, name), name
    for cls in CONCRETE:
        assert hasattr(cls, "lift_to_cover") == cls.truncated == issubclass(cls, TruncatedRing)
