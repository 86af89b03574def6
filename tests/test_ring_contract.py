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
* Every numeral reads through one ASCII grammar, `rings.integer` and
  `rings.rational`: each parser, the tag of `parse_witt`, a ring spec's
  ``:`` argument and the CLI's ``--b`` refuse any other number text.
"""

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
import wittlab
from wittlab import suites
from wittlab.cli import main
from wittlab.config import ring_from_config, ring_from_spec
from wittlab.errors import MalformedConfig
from wittlab.cyclotomic import CycloModPM, GaussianField, cyclotomic_field
from wittlab.norms import NormValue
from wittlab.perfpoly import PerfPolyRing
from wittlab.rings import (
    Integers,
    Rationals,
    Ring,
    TruncatedRing,
    ZModPM,
    integer,
    rational,
    vp_int,
)
from wittlab.tilt import TiltRing, tilt_from_top
from wittlab.witt import parse_witt


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


# -- one numeral grammar ----------------------------------------------------------

# number texts outside the grammar, each of which some parser once read as a
# number: an exponent, a digit separator, non-ASCII digits, a bare trailing
# point, a space inside a numeral, and the same inside larger texts
NOT_NUMERALS = ["1e3", "1_000", "\u0663", "1.", "1 2", "x\u0660", "1e1+2i", "W(p=\u0662; 4, 0)"]


@pytest.mark.parametrize("text", NOT_NUMERALS)
@pytest.mark.parametrize("ring, elements", KINDS, ids=IDS)
def test_every_parser_refuses_number_text_outside_the_grammar(ring, elements, text):
    """Bare, as a bracketed digit or chain entry, and as a vector component."""
    for form in (text, f"[{text}]"):
        with pytest.raises(MalformedConfig):
            ring.parse_elt(form)
    for form in (f"({text})", f"W(p={ring.p}; {text})", "W(p=\u0662; 0)"):
        with pytest.raises(MalformedConfig):
            parse_witt(ring, form)


@pytest.mark.parametrize("text", NOT_NUMERALS)
def test_ring_specs_and_weights_refuse_number_text_outside_the_grammar(capsys, text):
    with pytest.raises(MalformedConfig):
        ring_from_spec(f"Zmod:{text}", p=2)
    assert main(["arrow", "norm", "3", "--b", text]) == 2
    assert capsys.readouterr().err == f"error: not a rational number: {text!r}\n"


def test_the_readers_keep_signs_fractions_decimals_and_surrounding_space():
    assert [integer(t) for t in ("7", "-7", "+7", " 07 ")] == [7, -7, 7, 7]
    assert [rational(t) for t in ("-1/2", "+3", "0.5", " 2/4 ")] == [
        Fraction(-1, 2), 3, Fraction(1, 2), Fraction(1, 2),
    ]
    for text in [*NOT_NUMERALS, "", ".5", "1/-2", "1/2/3", "0x10", "- 1"]:
        with pytest.raises(ValueError):
            rational(text)
    for text in ("1/2", "0.5"):
        with pytest.raises(ValueError):
            integer(text)


# refusals that reach a parser's own check before or after a numeral: each
# keeps its message under the grammar
KEPT_REFUSALS = [
    (ZModPM(2, 3), "3~5", "precision 5 exceeds ring modulus exponent 3"),
    (ZModPM(2, 3), "3~0", "not an element of Zmod(p=2, M=3): '3~0'"),
    (ZModPM(2, 3), "[1,2]", "not an element of Zmod(p=2, M=3): '[1,2]'"),
    (CycloModPM(2, 2, 2), "[1,2,3,4,5]~9", "precision 9 exceeds ring modulus exponent 2"),
    (PerfPolyRing(2, 2, 2), "x2", "unknown variable 'x2'"),
    (PerfPolyRing(2, 1, 2), "x**2", "empty factor in 'x**2'"),
    (PerfPolyRing(2, 1, 2), "y", "bad term 'y' in 'y'"),
    (PerfPolyRing(2, 1, 2), "x^(1+1)", "bad term 'x^(1+1)' in 'x^(1+1)'"),
    (GaussianField(5), "ii", "not a Gaussian number: 'ii'"),
    (GaussianField(5), "", "empty Gaussian number"),
    (cyclotomic_field(2, 2), "[1,2,3]", "coefficient vector longer than field degree 2: '1,2,3'"),
    (Rationals(2), "1/0", "not a rational number: '1/0'"),
    (Integers(2), "x", "not an integer: 'x'"),
    (Integers(2), "W(p=3; 1)", "vector tagged p=3 but the ring has p=2"),
]


@pytest.mark.parametrize("ring, text, message", KEPT_REFUSALS)
def test_each_parser_keeps_its_own_refusal_messages(ring, text, message):
    with pytest.raises(MalformedConfig) as exc:
        parse_witt(ring, text) if text.startswith("W(") else ring.parse_elt(text)
    assert str(exc.value) == message


# texts of 5000 characters that each element parser refuses: the message quotes
# only a prefix and the length, so it stays one short line
_LONG = "7" * 4999 + "x"
LONG_REFUSALS = [
    pytest.param(Integers(2).parse_elt, _LONG, id="Z"),
    pytest.param(Rationals(2).parse_elt, _LONG, id="Q"),
    pytest.param(ZModPM(2, 3).parse_elt, _LONG, id="Zmod"),
    pytest.param(CycloModPM(2, 2, 2).parse_elt, _LONG, id="ZzetaMod"),
    pytest.param(cyclotomic_field(2, 2).parse_elt, _LONG, id="Qzeta"),
    pytest.param(cyclotomic_field(2, 2).parse_elt, "1," * 2499 + "1", id="Qzeta-past-degree"),
    pytest.param(GaussianField(5).parse_elt, _LONG, id="Qi"),
    pytest.param(GaussianField(5).parse_elt, "i" * 5000, id="Qi-two-units"),
    pytest.param(PerfPolyRing(2, 1, 2).parse_elt, _LONG, id="PerfPoly-bad-term"),
    pytest.param(PerfPolyRing(2, 1, 2).parse_elt, "x" + "0" * 4999, id="PerfPoly-variable"),
    pytest.param(PerfPolyRing(2, 1, 2).parse_elt, "(" * 5000, id="PerfPoly-parentheses"),
    pytest.param(TiltRing(ZModPM(2, 2), 2).parse_elt, _LONG, id="tilt"),
    pytest.param(lambda t: parse_witt(Integers(2), t), "(" * 5000, id="witt-brackets"),
    pytest.param(lambda t: parse_witt(Integers(2), t), f"({' ' * 4998})", id="witt-empty"),
]


@pytest.mark.parametrize("parse, text", LONG_REFUSALS)
def test_a_refusal_quotes_a_bounded_prefix_of_a_long_text(parse, text):
    with pytest.raises(MalformedConfig) as exc:
        parse(text)
    message = str(exc.value)
    assert len(message.encode()) < 200 and message.endswith(" characters)"), message


def test_a_tag_that_names_another_prime_is_quoted_by_a_bounded_prefix():
    # 4000 digits: the interpreter's int/str digit limit holds outside the CLI
    with pytest.raises(MalformedConfig) as exc:
        parse_witt(Integers(2), f"W(p={'7' * 4000}; 1)")
    assert str(exc.value) == f"vector tagged p={'7' * 40}... (4000 characters) but the ring has p=2"


@seed(1403)
@settings(max_examples=200)
@given(st.integers())
def test_the_integer_reader_reads_back_every_int(n):
    assert integer(str(n)) == n


@seed(1403)
@settings(max_examples=200)
@given(st.fractions())
def test_the_rational_reader_reads_back_every_fraction(q):
    assert rational(str(q)) == q


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


def test_no_class_restates_a_capability_it_inherits():
    """A capability flag is set only where it changes: on `Ring`, or on a
    subclass whose value differs from the one it inherits."""
    restated = [
        (cls.__name__, flag)
        for cls in RING_CLASSES
        if cls is not Ring
        for flag in ("char_p", "q_algebra", "p_torsion_free", "truncated")
        if flag in vars(cls) and vars(cls)[flag] == getattr(super(cls, cls), flag)
    ]
    assert restated == []


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
