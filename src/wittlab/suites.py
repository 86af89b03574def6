"""Named verification suites behind the ``verify`` subcommand.

Each suite bundles executable checks of the library's mathematical
guarantees into a reproducible report.  All randomness flows from a single
seed (every check derives its own stream from seed and check name, so suites
are pure functions of their configuration), and the JSON form of a report is
byte-stable: cases are keyed and sorted on emission and the wall-clock field
is nulled out there.  Failing cases always carry the exact rational-exponent
values of both sides in their detail string.

Every sampled or iterated case is tallied by one `_Law`: it counts the
failures and keeps the witness of the first one, which a failing case appends
to its detail as ``; first: <witness>``.  A witness names the sample index
(or the iterated parameters), the ring as its config form, e.g.
``Zmod(p=3, M=4)``, and the inputs, so that ``wittlab verify <suite> --seed
<seed>`` reproduces it.  A single verdict is one ``CaseResult(name, passed,
detail)``.

The commutative-ring axioms are stated once, in `_AXIOMS`: each row is an
arity and a predicate over an `_Arith` record of one ring's add, mul, neg,
eq, zero and one.  The ghost suite runs the ghost-homomorphism rows
`_GHOST_LAWS` and then every axiom over W_L(R) on random vectors, law by
law; the tilt suite runs the sum's and the product's axioms over every tuple
of chains.

Random ring elements come from one table keyed by ring kind, `_DRAWS`,
behind the one entry point `_draw_elt`, which refuses a kind with no row
(one ``randrange(p**M)`` per digit over a truncated ring), and a random unit
1 + p*(...) of a cyclotomic field times a uniformizer power from
`kernelnorm.unit_times_power`, the sampler ``kernel verify`` draws from too.

Each check is a generator that yields its cases one by one and builds no
list.  It states its primes once, as a `_Check(name, primes, run)` in
`_SUITES` (``primes=None``: every prime), and `run_suite` alone decides what
runs and collects what it yields.  It calls ``run(rng, primes)`` with the
primes the check runs at: all of its own, or ``--p`` alone.  A grid check
keeps its instances at those primes, in grid order.  A check whose primes
exclude ``--p`` is reported as one inconclusive ``skipped`` case that names
the primes it covers, a check that yields no case as one failing case, and a
check that raises a ``WittError`` as one failing case with detail ``raised
<Class>: <message>``, even after it has yielded cases; the other checks still
run.  One suite and ``all`` follow the same rule, and either is refused only
when none of its checks covers ``--p``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import reference
from .arrow import (
    ArrowElt,
    arrow_add,
    arrow_eq,
    arrow_from_integer,
    arrow_from_top,
    arrow_mul,
    arrow_norm,
    arrow_teichmuller,
    inverse_frobenius_sandwich,
    lift_arrow_precision,
    make_arrow,
    rigidity_profile,
    sample_coherent,
    theta,
    theta_series,
)
from .artin import (
    ghost_constant_profile,
    invariant_classify,
    teichmuller_phi_invariance,
)
from .cyclotomic import CycloModPM, CyclotomicField, GaussianField, cyclotomic_field
from .errors import (
    IntegralityViolation,
    MalformedConfig,
    NoRoot,
    UnknownSuite,
    WittError,
)
from .kernelnorm import (
    kernel_element_from_w1,
    symbolic_kernel_identity,
    uniformizer_steps,
    unit_times_power,
    verify_kernel_norm,
)
from .norms import NormValue, exponent_text, norm_max
from .perfect import (
    build_root_sequence,
    solve_frobenius,
    solve_frobenius_normed,
    witt_perfect_test,
)
from .perfpoly import PerfPolyRing
from .rings import Integers, Rationals, Ring, TruncatedRing, ZModPM, check_prime
from .tilt import (
    TiltElt,
    TiltRing,
    charp_limit_norm,
    growth_family,
    growth_profile_report,
    tilt_from_top,
    tilt_pth_root,
    untilt_isometry,
)
from .univ import UPoly, structure_cap, structure_poly, structure_polys
from .witt import (
    WittVec,
    format_witt,
    frobenius,
    ghost,
    verschiebung,
    witt_add,
    witt_eq,
    witt_mul,
    witt_neg,
    witt_norm,
    witt_one,
    witt_zero,
)


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------


class CaseResult(NamedTuple):
    """One named check: pass/fail plus the evidence string.

    ``inconclusive`` marks evidence-only cases (finite sampling of an
    infinite claim); it refines a pass and never masks a failure.
    """

    name: str
    passed: bool
    detail: str = ""
    inconclusive: bool = False

    @property
    def status(self) -> str:
        if not self.passed:
            return "fail"
        return "inconclusive" if self.inconclusive else "pass"

    def to_dict(self) -> dict:
        return {
            "detail": self.detail,
            "name": self.name,
            "status": self.status,
        }


class SuiteReport:
    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.cases: List[CaseResult] = []
        self.elapsed_s: Optional[float] = None

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        """JSON form; byte-stable, so the wall clock is reported as null."""
        return {
            "cases": [c.to_dict() for c in sorted(self.cases, key=lambda c: c.name)],
            "cases_run": len(self.cases),
            "elapsed_s": None,
            "failures": self.failures,
            "passed": self.passed,
            "schema": 1,
            "seed": self.seed,
            "suite": self.suite,
        }


class _Law:
    """The tally of one sampled or iterated case: the number of failures and
    the witness of the first one."""

    def __init__(self, name: str):
        self.name, self.bad, self.first = name, 0, ""

    def check(self, ok: bool, witness: Callable[[], str]) -> None:
        """Count a failure; ``witness()`` is called on the first one only."""
        if not ok:
            if not self.bad:
                self.first = witness()
            self.bad += 1

    def case(self, detail: str, inconclusive: bool = False) -> CaseResult:
        if self.bad:
            detail += f"; first: {self.first}"
        return CaseResult(self.name, not self.bad, detail, inconclusive)


def _show(**vecs: WittVec) -> str:
    return ", ".join(f"{name}={format_witt(v)}" for name, v in vecs.items())


# ---------------------------------------------------------------------------
# random element draws
# ---------------------------------------------------------------------------

_DENOMS = (1, 1, 2, 3, 4)

# the sizes of the randomized checks, which each case's detail states
_LAW_DRAWS = 500  # per ghost ring law
_NATURALITY_M = {2: 6, 3: 4, 5: 3}  # M of Z/p^M; 2 at any other prime
_NATURALITY_ZETA = {2: (3, 4), 3: (2, 2)}  # (k, M) of Z[zeta_(p^k)]/p^M; no other prime
_NATURALITY_DRAWS = 40  # pairs of vectors per ring and length
_NORM_SAMPLES = 500  # per norm-law instance
_THETA_SAMPLES, _THETA_PAIRS = 100, 100  # per prime
_RIGIDITY_BOUND, _RIGIDITY_CROSS, _RIGIDITY_PERTURBATIONS = 8, 300, 200
_KERNEL_SAMPLES = 50  # per ring and j
_SOLVE_FUZZ = 100  # round trips per ring
_CHARP_SAMPLES = 100
_SANDWICH_SAMPLES = 100


def _draw_digits(rng: random.Random, ring: TruncatedRing) -> Any:
    return ring.from_digits([rng.randrange(ring.p ** ring.M) for _ in range(ring.e)])


def _draw_perfpoly(rng: random.Random, ring: PerfPolyRing) -> Any:
    """Zero, a monomial of degree < 7, or a two-term sum."""
    roll = rng.random()
    if roll < 0.15:
        return ring.zero()
    low = ring.monomial([rng.randint(0, 6) for _ in range(ring.nvars)])
    if roll < 0.75:
        return low
    return ring.add(low, ring.monomial([rng.randint(7, 9) for _ in range(ring.nvars)]))


# ring kind -> (rng, ring) -> a random element
_DRAWS: Dict[str, Callable[[random.Random, Any], Any]] = {
    "Z": lambda rng, ring: ring.from_int(rng.randint(-9, 9)),
    "Q": lambda rng, ring: Fraction(
        rng.randint(-24, 24), rng.choice(_DENOMS + (ring.p, ring.p * ring.p))
    ),
    "Qi": lambda rng, ring: ring.from_pair(
        Fraction(rng.randint(-9, 9), rng.choice(_DENOMS)),
        Fraction(rng.randint(-9, 9), rng.choice(_DENOMS)),
    ),
    "Qzeta": lambda rng, ring: ring.from_coeffs(
        [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, ring.p))) for _ in range(ring.e)]
    ),
    "Zmod": _draw_digits,
    "ZzetaMod": _draw_digits,
    "PerfPoly": _draw_perfpoly,
}


def _draw_elt(rng: random.Random, ring: Ring) -> Any:
    draw = _DRAWS.get(ring.kind)
    if draw is None:
        raise MalformedConfig(f"no draw strategy for ring kind {ring.kind!r}")
    return draw(rng, ring)


def _draw_vec(rng: random.Random, ring: Ring, length: int) -> WittVec:
    return WittVec(ring, tuple(_draw_elt(rng, ring) for _ in range(length)))


# ---------------------------------------------------------------------------
# structure polynomials (suite: universal)
# ---------------------------------------------------------------------------


def _ghost_compose(polys: Sequence[UPoly], p: int) -> UPoly:
    """w_{p^m} evaluated on component polynomials, as a polynomial; on
    variables it is the ghost polynomial itself."""
    m = len(polys) - 1
    acc = UPoly(polys[0].nvars)
    for i, s in enumerate(polys):
        acc = acc.add(s.pow(p ** (m - i)).scale(p ** i))
    return acc


def _check_structure_polynomials(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Exact polynomial identities and weighted homogeneity of the cached
    sum/prod/frob component polynomials."""
    del rng  # fully deterministic
    for q in primes:
        cap = structure_cap(q)
        ghosts = _Law(f"ghost_identities_p{q}")
        carry = _Law(f"carry_decomposition_p{q}")
        homog = _Law(f"weighted_homogeneity_p{q}")
        for m in range(cap + 1):
            nv = 2 * (m + 1)
            pair_vars = [UPoly.variable(nv, j) for j in range(nv)]
            sums = structure_polys(q, m, "sum")
            prods = structure_polys(q, m, "prod")
            wx = _ghost_compose(pair_vars[: m + 1], q)
            wy = _ghost_compose(pair_vars[m + 1 :], q)
            ghosts.check(_ghost_compose(sums, q) == wx.add(wy), lambda: f"sum index {m}")
            ghosts.check(_ghost_compose(prods, q) == wx.mul(wy), lambda: f"prod index {m}")
            frob_vars = [UPoly.variable(m + 2, j) for j in range(m + 2)]
            ghosts.check(
                _ghost_compose(structure_polys(q, m, "frob"), q) == _ghost_compose(frob_vars, q),
                lambda: f"frob index {m}",
            )
            # frob_m = x_m^p + p*x_{m+1} + p*f_m with f_m the carry part
            carry_f = structure_poly(q, m, "frob_f")
            recomposed = (
                UPoly.variable(m + 2, m, q)
                .add(frob_vars[m + 1].scale(q))
                .add(UPoly(m + 2, {e + (0,): c for e, c in carry_f.terms.items()}).scale(q))
            )
            carry.check(recomposed == structure_poly(q, m, "frob"), lambda: f"index {m}")
            pair_w = [q ** j for j in range(m + 1)] * 2
            single_w = [q ** j for j in range(m + 2)]
            homog.check(
                set(sums[m].weighted_degrees(pair_w)) <= {q ** m}
                and set(prods[m].weighted_degrees(pair_w)) <= {2 * q ** m}
                and set(structure_poly(q, m, "frob").weighted_degrees(single_w)) <= {q ** (m + 1)}
                and set(carry_f.weighted_degrees(single_w[: m + 1])) <= {q ** (m + 1)},
                lambda: f"index {m}",
            )
        yield ghosts.case(
            f"indices 0..{cap}: w(sum)=w(x)+w(y), w(prod)=w(x)w(y), "
            f"w(frob)=shifted ghost, all as exact polynomial identities"
        )
        yield carry.case(f"frob_i = x_i^{q} + {q}*x_(i+1) + {q}*f_i for i <= {cap}")
        yield homog.case(
            f"deg s_i = {q}^i, deg m_i = 2*{q}^i, deg frob_i = deg f_i = {q}^(i+1) "
            f"under weights {q}^j, i <= {cap}"
        )


# ---------------------------------------------------------------------------
# Witt ring laws (suite: ghost)
# ---------------------------------------------------------------------------


def _law_rings(p: Optional[int]) -> List[Ring]:
    """The exact rings and the truncated ones: the ghost map is a ring map
    over any ring, so the laws hold over Z/p^M and Z[zeta]/p^M too."""
    if p is None:
        return [
            Integers(2),
            Rationals(3),
            GaussianField(5),
            cyclotomic_field(2, 3),
            ZModPM(2, 6),
            ZModPM(3, 4),
            CycloModPM(2, 3, 4),
        ]
    return [
        Integers(p),
        Rationals(p),
        GaussianField(p),
        cyclotomic_field(p, 3 if p == 2 else 2),
        ZModPM(p, 3),
        CycloModPM(p, 3 if p == 2 else 1, 2),
    ]


def _ghost_matches(z: WittVec, expected) -> bool:
    return all(z.ring.eq(a, b) for a, b in zip(ghost(z).entries, expected.entries))


# the operations of one ring, as the law rows read them
class _Arith(NamedTuple):
    add: Callable
    mul: Callable
    neg: Callable
    eq: Callable
    zero: Any
    one: Any


# name -> (number of elements drawn, the identity they satisfy in the ring R)
_Laws = Dict[str, Tuple[int, Callable[..., bool]]]
_AXIOMS: _Laws = {
    "add_commutative": (2, lambda R, x, y: R.eq(R.add(x, y), R.add(y, x))),
    "add_associative": (3, lambda R, x, y, z: R.eq(R.add(R.add(x, y), z), R.add(x, R.add(y, z)))),
    "mul_commutative": (2, lambda R, x, y: R.eq(R.mul(x, y), R.mul(y, x))),
    "mul_associative": (3, lambda R, x, y, z: R.eq(R.mul(R.mul(x, y), z), R.mul(x, R.mul(y, z)))),
    "distributive": (
        3,
        lambda R, x, y, z: R.eq(R.mul(x, R.add(y, z)), R.add(R.mul(x, y), R.mul(x, z))),
    ),
    "additive_inverse": (1, lambda R, x: R.eq(R.add(x, R.neg(x)), R.zero)),
    "identities": (1, lambda R, x: R.eq(R.add(x, R.zero), x) and R.eq(R.mul(x, R.one), x)),
}
# the ghost map is a ring homomorphism W_L(R) -> R^L
_GHOST_LAWS: _Laws = {
    "ghost_additive": (2, lambda R, x, y: _ghost_matches(R.add(x, y), ghost(x).add(ghost(y)))),
    "ghost_multiplicative": (
        2,
        lambda R, x, y: _ghost_matches(R.mul(x, y), ghost(x).mul(ghost(y))),
    ),
    "ghost_negation": (1, lambda R, x: _ghost_matches(R.neg(x), ghost(x).neg())),
}


def _check_witt_ring_laws(
    rng: random.Random, primes: Optional[Sequence[int]]
) -> Iterable[CaseResult]:
    """Commutative-ring axioms and ghost-homomorphism identities, randomized
    over exact base rings at lengths 1-3, where ghost injectivity makes
    componentwise equality the right notion of truth, and over truncated
    rings at lengths 1-5, where equality is up to the common precision.
    The laws hold at every prime: ``primes`` is None or the one prime asked."""
    rings = _law_rings(primes[0] if primes else None)
    names = ", ".join(r.label if r.truncated else r.kind for r in rings)
    for name, (arity, identity) in {**_GHOST_LAWS, **_AXIOMS}.items():
        law = _Law(f"law_{name}")
        for i in range(_LAW_DRAWS):
            ring = rings[i % len(rings)]
            L = rng.randint(1, 5 if ring.truncated else 3)
            vecs = dict(zip("xyz", (_draw_vec(rng, ring, L) for _ in range(arity))))
            W = _Arith(witt_add, witt_mul, witt_neg, witt_eq, witt_zero(ring, L), witt_one(ring, L))
            law.check(
                identity(W, *vecs.values()), lambda: f"sample {i} over {ring!r}: {_show(**vecs)}"
            )
        yield law.case(f"{_LAW_DRAWS} randomized cases over {names}; {law.bad} failures")


# (name, arity, op) of the ops whose naturality into a truncated ring is checked
_NATURAL_OPS = (
    ("witt_add", 2, witt_add),
    ("witt_mul", 2, witt_mul),
    ("witt_neg", 1, witt_neg),
    ("frobenius", 1, frobenius),
)


def _naturality_rings(
    primes: Sequence[int],
) -> List[Tuple[TruncatedRing, Ring, Callable, Callable]]:
    """(truncated ring, the exact ring it reduces, digits -> exact element,
    exact element -> digits): Z/p^M at every prime, then Z[zeta]/p^M at the
    primes of ``_NATURALITY_ZETA``.  Q(zeta_49) at length 5 would take tens
    of seconds, so no other prime gets a Z[zeta] ring."""
    rings = [
        (ZModPM(p, _NATURALITY_M.get(p, 2)), Integers(p), operator.itemgetter(0), lambda b: (b,))
        for p in primes
    ]
    for p in primes:
        if p in _NATURALITY_ZETA:
            k, M = _NATURALITY_ZETA[p]
            field = cyclotomic_field(p, k)
            rings.append((CycloModPM(p, k, M), field, field.from_coeffs, field.integral_coeffs))
    return rings


def _check_truncated_naturality(
    rng: random.Random, primes: Optional[Sequence[int]]
) -> Iterable[CaseResult]:
    """W_L is a functor, so reduction Z -> Z/p^M and Z[zeta] -> Z[zeta]/p^M
    commutes with every Witt op, whatever integral lift of the residues the
    exact side starts from.  Over each truncated ring at lengths 1-5, with
    each input component at a random precision 1..M, the op's result must
    equal the op over Z or Q(zeta) on a random other lift (each digit plus
    p**prec * j), reduced at the precision the truncated result claims,
    component by component.  It fails when the transport keeps too few
    digits or claims too many.  The law holds at every prime: ``primes`` is
    None (Z/2^6, Z/3^4, Z/5^3, Z[zeta_8]/2^4 and Z[zeta_9]/3^2) or the one
    prime asked."""
    law = _Law("truncated_naturality")
    rings = _naturality_rings(primes or sorted(_NATURALITY_M))
    components = 0
    for ring, exact, from_digits, to_digits in rings:
        p, M = ring.p, ring.M
        for L in range(1, 6):
            for i in range(_NATURALITY_DRAWS):
                vecs = [
                    [
                        ring.from_digits(
                            [rng.randrange(p**M) for _ in range(ring.e)], rng.randint(1, M)
                        )
                        for _ in range(L)
                    ]
                    for _ in range(2)
                ]
                lifts = [
                    [
                        from_digits([d + p**c.prec * rng.randint(-(p**M), p**M) for d in c.coeffs])
                        for c in v
                    ]
                    for v in vecs
                ]
                truncated = [WittVec(ring, tuple(v)) for v in vecs]
                lifted = [WittVec(exact, tuple(v)) for v in lifts]
                for name, arity, op in _NATURAL_OPS:
                    if name == "frobenius" and L < 2:
                        continue
                    want = op(*lifted[:arity]).components
                    components += len(want)
                    sample = (
                        f"sample {i} over {ring!r}, {name} of "
                        f"{_show(**dict(zip('xy', truncated[:arity])))} lifted to "
                        f"{_show(**dict(zip('xy', lifted[:arity])))}"
                    )
                    try:
                        got = op(*truncated[:arity]).components
                    except WittError as exc:
                        law.check(False, lambda: f"{sample}: raised {exc}")
                        continue
                    for j, (a, b) in enumerate(zip(got, want)):
                        law.check(
                            a == ring.from_digits(to_digits(b), a.prec),
                            lambda: f"{sample}: component {j} is {ring.format_elt(a)}, "
                            f"the exact result {exact.format_elt(b)}",
                        )
    labels = ", ".join(ring.label for ring, *_ in rings)
    exacts = ", ".join(
        ["Z"] + [f"Q(zeta_{ring.p ** ring.k})" for ring, *_ in rings if not ring.scalar]
    )
    yield law.case(
        f"sampled: {components} components of witt_add, witt_mul, witt_neg and "
        f"frobenius over {labels} at lengths 1-5, each input component at a random "
        f"precision, against {exacts} on a random other lift; {law.bad} failures"
    )


# ---------------------------------------------------------------------------
# norm laws (suite: norms)
# ---------------------------------------------------------------------------


_RELATIONS = {"<=": operator.le, "==": operator.eq, ">=": operator.ge}


def _check_norm_laws(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Ultrametric/submultiplicative bounds, the exact Verschiebung identity,
    and the power-multiplicative lower bound for the componentwise norm."""
    instances = [
        r
        for r in (Rationals(2), Rationals(3), GaussianField(5), cyclotomic_field(2, 3))
        if r.p in primes
    ]
    laws = [
        _Law("norm_ultrametric"),
        _Law("norm_submultiplicative"),
        _Law("norm_frobenius_contraction"),
        _Law("norm_verschiebung_exact"),
        _Law("norm_power_lower_bound"),
    ]
    ultra, submult, frob, versch, power = laws
    for ring in instances:
        q = ring.p
        for s in range(_NORM_SAMPLES):
            L = rng.randint(2, 3)
            x, y = _draw_vec(rng, ring, L), _draw_vec(rng, ring, L)
            nx, ny = witt_norm(x), witt_norm(y)
            padded = WittVec(ring, x.components + tuple(ring.zero() for _ in range(x.top_index)))
            bounds = [  # (law, what is measured, its norm, relation, bound)
                (ultra, "|x+y|", witt_norm(witt_add(x, y)), "<=", norm_max([nx, ny])),
                (submult, "|xy|", witt_norm(witt_mul(x, y)), "<=", nx.mul(ny)),
                (frob, "|F(x)|", witt_norm(frobenius(x)), "<=", nx.pow(q)),
                (versch, "|V(x)|", witt_norm(verschiebung(x)), "==", nx.root(q)),
                (power, "|x^2|", witt_norm(witt_mul(padded, padded)), ">=", nx.pow(2)),
            ]
            for law, label, got, rel, bound in bounds:
                law.check(
                    _RELATIONS[rel](got, bound),
                    lambda: f"sample {s} over {ring!r}, {_show(x=x, y=y)}: "
                    f"{label}={got.text()} is not {rel} {bound.text()}",
                )
    names = ", ".join(f"{r.kind}(p={r.p})" for r in instances)
    for law in laws:
        yield law.case(f"{_NORM_SAMPLES} samples per instance over {names}; {law.bad} failures")


# ---------------------------------------------------------------------------
# multiplication-by-p norm (suite: arrow)
# ---------------------------------------------------------------------------


def _check_mul_by_p_norm(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """|p^m|_{W,b} = p^(-min(b,1)m) exactly, sup attained within depth m+1."""
    del rng
    bs = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
    for q in primes:
        ring = Integers(q)
        law = _Law(f"mul_by_p_norm_p{q}")
        for m in range(4):
            a = arrow_from_integer(ring, q ** m, m + 1)
            for b in bs:
                r = arrow_norm(a, b)
                expect = NormValue.from_exponent(min(b, Fraction(1)) * m)
                law.check(
                    r.value == expect
                    and r.status == "exact"
                    and r.attained_at is not None
                    and r.attained_at <= m + 1,
                    lambda: f"over {ring!r}, m={m}, b={b}: got {r.value.text()} "
                    f"({r.status}, at {r.attained_at}), want {expect.text()}",
                )
        # the loop's m=1, b=1/2 case checks this value; the detail prints it
        golden = arrow_norm(arrow_from_integer(ring, q, 2), Fraction(1, 2))
        yield law.case(
            f"m<=3, b in (1/4,1/2,1,2), all exact; "
            f"|{q}|_(W,1/2) = {golden.value.text()} (expect p^-1/2)"
        )


# ---------------------------------------------------------------------------
# depth lifting (suite: arrow)
# ---------------------------------------------------------------------------

def _int_chain_p2(top: Tuple[int, ...], mod: int) -> List[Tuple[int, ...]]:
    """The family of an integer top vector at p=2, every level reduced mod
    ``mod``, pushed down by the reference Frobenius."""
    levels = [tuple(v % mod for v in top)]
    for _ in range(len(top) - 1):
        levels.append(tuple(v % mod for v in reference.frobenius(2, levels[-1])))
    levels.reverse()
    return levels


def _induced(a: ArrowElt) -> Tuple[int, int, int]:
    """The depth-1 data (z_0[0], z_1[0], z_1[1]) of a family over Z/p^M."""
    (z00,), (z10, z11) = a.levels[0].components, a.levels[1].components
    return tuple(a.ring.digits(c)[0] for c in (z00, z10, z11))


def _check_depth_lifting(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Exhaustive reduction/lift analysis between depth-4 families mod 4 and
    depth-1 families mod 2: the induced depth-1 data mod 4 depends only on
    the mod-2 reduction (uniqueness), every mod-2 family is hit (existence),
    and the precision-lifting construction reproduces the same values."""
    del rng, primes  # the exhaustive instance is p=2 by design
    r4, r2 = ZModPM(2, 2), ZModPM(2, 1)
    fibers: Dict[Tuple[int, ...], set] = {}
    hit: set = set()
    for top in itertools.product(range(4), repeat=5):
        levels = _int_chain_p2(top, 4)
        induced = (levels[0][0], levels[1][0], levels[1][1])
        cls = tuple(v % 2 for v in top)
        fibers.setdefault(cls, set()).add(induced)
        hit.add(tuple(v % 2 for v in induced))
    targets = set()
    for t1 in itertools.product(range(2), repeat=2):
        levels = _int_chain_p2(t1, 2)
        targets.add((levels[0][0], levels[1][0], levels[1][1]))

    # the library's precision lift must reproduce the washed values, and the
    # generic Witt Frobenius must agree with the integer one on each class rep
    unique = _Law("lift_washing_unique")
    lift = _Law("lift_precision_construction")
    cross = _Law("lift_machinery_crosscheck")
    for cls, vals in fibers.items():
        unique.check(len(vals) == 1, lambda: f"class {cls} induces {sorted(vals)}")
        a2 = arrow_from_top(WittVec(r2, tuple(map(r2.from_int, cls))))
        lifted = _induced(lift_arrow_precision(a2, 1))
        lift.check(lifted == next(iter(vals)), lambda: f"class {cls}: lifted {lifted}")
        machine = _induced(arrow_from_top(WittVec(r4, tuple(map(r4.from_int, cls)))))
        cross.check(machine in vals, lambda: f"class {cls}: generic {machine}")

    consistent = _Law("lift_integer_consistency")
    for k in range(-8, 9):
        a4 = arrow_from_integer(r4, k, 4)
        a2 = arrow_from_integer(r2, k, 4)
        reduced = ArrowElt(
            r2,
            tuple(
                WittVec(r2, tuple(r2.from_digits(r4.digits(c)) for c in z.components))
                for z in a4.levels
            ),
            NormValue.one(),
        )
        consistent.check(arrow_eq(reduced, a2), lambda: f"k={k}: reduction mod 2")
        consistent.check(
            arrow_eq(lift_arrow_precision(a2, 1), arrow_from_integer(r4, k, 1)),
            lambda: f"k={k}: precision lift",
        )

    yield unique.case(
        "1024 depth-4 families mod 4 in 32 mod-2 classes; every class induces "
        "exactly one depth-1 family mod 4"
    )
    yield CaseResult(
        "lift_existence",
        targets == hit,
        f"all {len(targets)} coherent depth-1 families mod 2 are hit by reduction",
    )
    yield lift.case(
        "lift_arrow_precision on all 32 mod-2 classes reproduces the washed depth-1 values"
    )
    yield cross.case(
        "the reference Frobenius over Z (unghost of the shifted ghost) and the "
        "generic Witt Frobenius agree on all class reps"
    )
    yield consistent.case(
        "from_integer(k) for k in [-8,8]: reduction mod 2 and the precision lift "
        "agree with the directly built families"
    )


# ---------------------------------------------------------------------------
# theta map (suite: arrow)
# ---------------------------------------------------------------------------


def _check_theta_map(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """The projection theta against the classical partial series, lift
    stability at the p^(M-N) scale, and the ring-homomorphism property."""
    M = 6
    for q in primes:
        ring = ZModPM(q, M)
        draw = functools.partial(_draw_elt, rng, ring)
        fmt = ring.format_elt

        agree = _Law(f"theta_projection_equals_series_p{q}")
        stability = _Law(f"theta_lift_stability_p{q}")
        for s in range(_THETA_SAMPLES):
            N = rng.randint(1, 3)
            a = sample_coherent(ring, N, draw)
            at = lambda: f"sample {s} over {ring!r}, N={N}, top {format_witt(a.levels[-1])}: "
            tv = theta(a)
            sv, _terms = theta_series(a)
            agree.check(ring.eq(tv, sv), lambda: at() + f"theta {fmt(tv)} != series {fmt(sv)}")
            pert = [
                ring.from_int(q ** (M - N) * rng.randrange(q ** N)) for _ in range(N + 1)
            ]
            sv2, _terms = theta_series(a, lift_perturbation=lambda i: pert[i])
            moved = ring.seminorm(ring.sub(sv2, tv))
            stability.check(
                moved <= NormValue.from_exponent(M - N),
                lambda: at() + f"perturbed by {[fmt(c) for c in pert]}, moved by {moved.text()}",
            )
        hom = _Law(f"theta_ring_hom_p{q}")
        for s in range(_THETA_PAIRS):
            N = rng.randint(1, 3)
            a = sample_coherent(ring, N, draw)
            b = sample_coherent(ring, N, draw)
            at = lambda: (
                f"pair {s} over {ring!r}, N={N}, tops {format_witt(a.levels[-1])}, "
                f"{format_witt(b.levels[-1])}: "
            )
            hom.check(
                ring.eq(theta(arrow_add(a, b)), ring.add(theta(a), theta(b))),
                lambda: at() + "theta(a+b) != theta(a)+theta(b)",
            )
            hom.check(
                ring.eq(theta(arrow_mul(a, b)), ring.mul(theta(a), theta(b))),
                lambda: at() + "theta(ab) != theta(a)theta(b)",
            )
        golden = _Law(f"theta_integer_golden_p{q}")
        for k in range(-3, 4):
            golden.check(
                ring.eq(theta(arrow_from_integer(ring, k, 2)), ring.from_int(k)),
                lambda: f"over {ring!r}: theta(from_integer({k})) != {k}",
            )
        golden.check(
            ring.eq(theta(arrow_teichmuller(ring, [ring.one()] * 3)), ring.one()),
            lambda: f"over {ring!r}: theta([1]) != 1",
        )
        yield agree.case(
            f"{_THETA_SAMPLES} coherent samples over {ring.label}, N<=3; projection == "
            f"telescoped partial series exactly; {agree.bad} failures"
        )
        yield stability.case(
            f"perturbing level-N lifts by multiples of {q}^(M-N) moves the series "
            f"by at most {q}^-(M-N); {stability.bad} failures"
        )
        yield hom.case(
            f"{_THETA_PAIRS} sampled pairs: theta(a+b)=theta(a)+theta(b), "
            f"theta(ab)=theta(a)theta(b), exactly; {hom.bad} failures"
        )
        yield golden.case("theta(from_integer(k)) = k for |k|<=3 and theta([1]) = 1")


# ---------------------------------------------------------------------------
# integer rigidity (suite: arrow)
# ---------------------------------------------------------------------------


def _check_integer_rigidity(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Exhaustive ghost-congruence check for integer families at p=2, depth 3.

    For the family generated by a top vector z, the chain value at index
    p^-i equals the ghost coordinate w_(N-i)(z), so the congruence chain
    w_m = w_(m-1) mod 2^m over all tops is exactly the family statement;
    the sampled cross-check below re-derives it through the arrow machinery.
    """
    del primes  # the exhaustive instance is p=2 by design
    N, bound = 3, _RIGIDITY_BOUND
    exhaustive = _Law("rigidity_exhaustive")
    for top in itertools.product(range(-bound, bound + 1), repeat=N + 1):
        w = reference.ghost(2, top)
        for m in range(1, N + 1):
            exhaustive.check((w[m] - w[m - 1]) % 2 ** m == 0, lambda: f"top {top}: m={m}")
    total = (2 * bound + 1) ** 4

    ring = Integers(2)
    machinery = _Law("rigidity_machinery_crosscheck")
    for s in range(_RIGIDITY_CROSS):
        top = tuple(rng.randint(-bound, bound) for _ in range(N + 1))
        a = arrow_from_top(WittVec(ring, top))
        profile = rigidity_profile(a)
        w = reference.ghost(2, top)
        heads = [a.levels[i].components[0] for i in range(N + 1)]
        machinery.check(
            all(profile) and all(heads[i] == w[N - i] for i in range(N + 1)),
            lambda: f"sample {s} over {ring!r}: top {top}, profile {profile}, heads {heads}",
        )

    slipped = _Law("rigidity_perturbations_fail")
    for s in range(_RIGIDITY_PERTURBATIONS):
        top = tuple(rng.randint(-bound, bound) for _ in range(N + 1))
        a = arrow_from_top(WittVec(ring, top))
        lvl = rng.randint(0, N - 1)
        pos = rng.randint(0, lvl)
        delta = rng.choice([-2, -1, 1, 2, 3])
        mutated = list(a.levels)
        comps = list(mutated[lvl].components)
        comps[pos] += delta
        mutated[lvl] = WittVec(ring, tuple(comps))
        try:
            make_arrow(ring, mutated, validate=True)
        except IntegralityViolation:
            continue
        slipped.check(
            False, lambda: f"sample {s} over {ring!r}: top {top}, z_{lvl}[{pos}] += {delta}"
        )

    yield exhaustive.case(
        f"all {total} integer tops with components in [-{bound},{bound}]: "
        f"w_m = w_(m-1) mod 2^m for m=1..3; {exhaustive.bad} failures"
    )
    yield machinery.case(
        f"{_RIGIDITY_CROSS} random tops: arrow rigidity profile true and chain heads equal "
        f"the ghost coordinates; {machinery.bad} failures"
    )
    yield slipped.case(
        f"{_RIGIDITY_PERTURBATIONS} random single-component perturbations of non-top levels "
        f"all violate coherence; {slipped.bad} slipped through"
    )


# ---------------------------------------------------------------------------
# kernel norm (suite: kernel)
# ---------------------------------------------------------------------------


def _check_kernel_norm(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """|w_1(x)| = p^(-1/p-...-1/p^j) |x|_W for the Frobenius-kernel family."""
    closed = _Law("kernel_closed_form")
    closed_primes = [q for q in (2, 3) if q in primes]
    for q in closed_primes:
        for j in (1, 2):
            closed.check(symbolic_kernel_identity(q, j)["passed"], lambda: f"p={q}, j={j}")
    yield closed.case(
        "generic-valuation identity holds with unique leading terms, "
        f"p in {{{','.join(map(str, closed_primes))}}}, j <= 2"
    )
    if 2 in primes:
        golden = kernel_element_from_w1(Rationals(2), Fraction(4), 2)
        yield CaseResult(
            "kernel_golden_components",
            tuple(golden.components) == (Fraction(4), Fraction(-8), Fraction(-96)),
            f"unghost of (4,0,0) at p=2: {tuple(str(c) for c in golden.components)} "
            "(expect (4, -8, -96))",
        )
    grid: List[Tuple[int, Ring, str]] = [
        (2, Rationals(2), "Q"),
        (2, cyclotomic_field(2, 3), "Q(zeta8)"),
        (3, Rationals(3), "Q"),
        (3, cyclotomic_field(3, 2), "Q(zeta9)"),
    ]
    for q, ring, label in [g for g in grid if g[0] in primes]:
        steps = uniformizer_steps(ring)
        law = _Law(f"kernel_norm_{label.replace('(', '_').replace(')', '')}_p{q}")
        for j in (1, 2):
            for s in range(_KERNEL_SAMPLES):
                v = (s % (4 * steps + 1)) - 2 * steps
                t = ring.zero() if s == _KERNEL_SAMPLES - 1 else unit_times_power(rng, ring, v)
                rep = verify_kernel_norm(ring, t, j)
                law.check(
                    rep["passed"],
                    lambda: f"sample {s} over {ring!r}, j={j}, t={ring.format_elt(t)}: "
                    f"|w1|={exponent_text(rep['w1_exponent'])}, "
                    f"c|x|={exponent_text(rep['scaled_sup_exponent'])}",
                )
        yield law.case(
            f"{_KERNEL_SAMPLES} samples per j in {{1,2}} spanning valuations [-2,2] "
            f"over {label}; F(x)=0 and exact equality; {law.bad} failures"
        )


# ---------------------------------------------------------------------------
# Witt-perfectness verdicts (suite: perfect)
# ---------------------------------------------------------------------------


def _pth_powers(p: int, k: int, n: int, q: int) -> Tuple[Set[Tuple[int, ...]], int]:
    """Every n-th power mod q in Z[zeta_{p^k}] (Z is Z[zeta_2], Z[i] is
    Z[zeta_4]) and the number of residues it enumerated: all q**e residues
    mod q, with the standalone convolution of ``reference.conv_reduce``."""
    e = p ** (k - 1) * (p - 1)
    seen: Set[Tuple[int, ...]] = set()
    enumerated = 0
    for coeffs in itertools.product(range(q), repeat=e):
        acc = [1] + [0] * (e - 1)
        for _ in range(n):
            acc = reference.conv_reduce(acc, coeffs, p, k, q)
        seen.add(tuple(acc))
        enumerated += 1
    return seen, enumerated


def _times_n_has_no_root(digits: Sequence[int], n: int, p: int, k: int) -> Tuple[bool, int]:
    """Whether n*a, for a with these power-basis digits, is no n-th power
    mod n**2 in Z[zeta_{p^k}], and the number of residues mod n**2 searched."""
    powers, enumerated = _pth_powers(p, k, n, n * n)
    return tuple(n * c % (n * n) for c in digits) not in powers, enumerated


def _check_perfect_verdicts(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Witt-perfectness yes/no verdicts with independently re-verified
    witnesses: plain residue rings fail, the small cyclotomic rings behave as
    recorded, and the towers pass up to level 2.  Each case runs at its own
    prime, and only the cases at ``primes`` run."""
    integers = _Law("integers_not_perfect")
    z_detail = []
    for q in primes:
        rep = witt_perfect_test({"instance": "Z", "p": q})
        a = rep.condition_b["witness_a"]
        indep, searched = False, 0
        if a is not None:
            indep, searched = _times_n_has_no_root((Integers(q).parse_elt(a),), q, 2, 1)
        integers.check(rep.verdict == "no" and indep, lambda: f"p={q}: verdict {rep.verdict}, a={a}")
        z_detail.append(f"p={q}: a={a} ({searched} residues)")
    yield integers.case(
        "no b has b^p = p*a mod p^2; witnesses re-verified over all residues mod p^2 "
        "by standalone convolution arithmetic: " + ", ".join(z_detail)
    )

    if 5 in primes:
        rep = witt_perfect_test({"instance": "Qi", "p": 5})
        wa = rep.condition_b["witness_a"]
        x = None if wa is None else GaussianField(5).parse_elt(wa)
        indep, searched = False, 0
        if x is not None and x.den == 1:
            indep, searched = _times_n_has_no_root(x.nums, 5, 2, 2)
        yield CaseResult(
            "gaussian_not_perfect",
            rep.verdict == "no" and indep,
            f"Z[i] at p=5: verdict {rep.verdict}; witness a={wa} re-verified over all "
            f"{searched} candidates mod 25",
        )

    if 2 in primes:
        rep8 = witt_perfect_test({"instance": "zeta-ring", "p": 2, "k": 3})
        root = rep8.condition_b.get("root_of_p")
        root_ok = False
        if root is not None:
            sq = reference.conv_reduce(root, root, 2, 3, 4)
            root_ok = sq[0] % 4 == 2 and all(c % 4 == 0 for c in sq[1:])
        yield CaseResult(
            "zeta8_square_root_of_two",
            root is not None and root_ok,
            f"Z[zeta_8] contains b={root} with b^2 = 2 mod 4, re-verified by "
            "standalone convolution arithmetic",
        )

    if 3 in primes:
        rep3 = witt_perfect_test({"instance": "zeta-ring", "p": 3, "k": 1})
        wa3 = rep3.condition_b["witness_a"]
        indep3, searched3 = False, 0
        if wa3 is not None:
            x3 = CyclotomicField(3, 1).parse_elt(wa3)
            if x3.den == 1:
                indep3, searched3 = _times_n_has_no_root(x3.nums, 3, 3, 1)
        else:
            # condition (a) failure alone already decides the verdict
            indep3 = rep3.condition_a["witness"] is not None
        yield CaseResult(
            "zeta3_ring_not_perfect",
            rep3.verdict == "no" and indep3,
            f"Z[zeta_3] at p=3: verdict {rep3.verdict}; witness a={wa3} "
            f"has no cube root among all {searched3} residues mod 9 (independent enumeration)",
        )

    for q, samples in ((2, None), (3, 20)):
        if q not in primes:
            continue
        config = {"instance": "tower", "p": q, "levels": 2}
        if samples:
            config["samples"] = samples
        rept = witt_perfect_test(config, rng)
        seq_ok = all(rept.condition_b["x1_checks"].values())
        sampled = any("sampled" in lvl["mode"] for lvl in rept.condition_a["levels"].values())
        yield CaseResult(
            f"tower_p{q}_level2",
            rept.verdict == "yes-up-to-level-2" and seq_ok,
            f"purity certificates and x_1^{q} = {q} mod {q}^2 hold; "
            f"levels checked {'with sampling' if sampled else 'exhaustively'}",
            inconclusive=sampled,
        )

    if 3 in primes:
        seq = build_root_sequence(3, 2)
        f1 = seq.tower.field(1)
        c = f1.integral_coeffs(seq.value(1))
        cube = reference.conv_reduce(c, reference.conv_reduce(c, c, 3, 3, 27), 3, 3, 27)
        yield CaseResult(
            "tower_p3_seed_independent",
            cube[0] % 9 == 3 and all(c % 9 == 0 for c in cube[1:]),
            "the constructed x_1 in Z[zeta_27] satisfies x_1^3 = 3 mod 9 under "
            "standalone convolution arithmetic",
        )


# ---------------------------------------------------------------------------
# Frobenius solving (suite: perfect)
# ---------------------------------------------------------------------------


def _normed_contract(seq, lvl: int, head: Any) -> bool:
    """Whether the normed tower solve of x = (head) at level lvl is exact,
    keeps |y|^p <= |x| and satisfies F(y) = x at its working level."""
    tower = seq.tower
    try:
        y, rep = solve_frobenius_normed(seq, lvl, WittVec(tower.field(lvl), (head,)))
        if not (rep["exact"] and rep["norm_contract"]):
            return False
        work = rep["working_level"]
        x = WittVec(tower.field(work), (tower.embed_up(lvl, work, head),))
        return witt_eq(frobenius(y), x)
    except WittError:
        return False


def _check_frobenius_solving(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Greedy digit solving round-trips over Z/p^M and the normed tower
    solver's exact contract |y|^p <= |x|."""
    for q, M in [(q, M) for q, M in ((2, 6), (3, 5)) if q in primes]:
        ring = ZModPM(q, M)
        roundtrip = _Law(f"solve_roundtrip_p{q}")
        for s in range(_SOLVE_FUZZ):
            L = rng.randint(1, M - 1)
            y = _draw_vec(rng, ring, L + 1)
            x = frobenius(y)
            y2, _rep = solve_frobenius(x)
            roundtrip.check(
                witt_eq(frobenius(y2), x),
                lambda: f"sample {s} over {ring!r}: {_show(y=y, solved=y2)}",
            )
        yield roundtrip.case(
            f"{_SOLVE_FUZZ} fuzzed images x = F(y) over {ring.label}: solver output satisfies "
            f"F(y') = x at the tracked precision; {roundtrip.bad} failures"
        )

    if 2 in primes:
        ring = ZModPM(2, 6)
        wrong = _Law("solve_total_correctness")
        solved = refused = 0
        for s in range(40):
            x = _draw_vec(rng, ring, rng.randint(1, 3))
            try:
                y2, _rep = solve_frobenius(x)
            except NoRoot:
                refused += 1
                continue
            solved += 1
            wrong.check(
                witt_eq(frobenius(y2), x),
                lambda: f"sample {s} over {ring!r}: {_show(x=x, solved=y2)}",
            )
        yield wrong.case(
            f"40 direct draws over Z/2^6: {solved} solved and verified, {refused} "
            f"certified no-preimage, {wrong.bad} wrong answers"
        )

        seq2 = build_root_sequence(2, 6)
        t2 = seq2.tower
        f1, f2 = t2.field(1), t2.field(2)
        shapes: List[Tuple[int, Any]] = [(1, f1.from_int(c)) for c in (2, 3, 6, 10)]
        for _ in range(28):
            lvl = rng.choice((1, 2))
            fld = t2.field(lvl)
            j = rng.randint(1, 2 * fld.e - 1)
            shapes.append((lvl, unit_times_power(rng, fld, j)))
        for _ in range(8):
            j = rng.randint(1, f2.e - 1)
            shapes.append((2, f2.scalar_mul(Fraction(1, 2), f2.pow_(f2.uniformizer(), j))))
        contract = _Law("solve_normed_contract_p2")
        for s, (lvl, head) in enumerate(shapes):
            fld = t2.field(lvl)
            contract.check(
                _normed_contract(seq2, lvl, head),
                lambda: f"input {s} over {fld!r}: x=({fld.format_elt(head)})",
            )
        # x=(2) is the first input; its solve window is reported as the golden
        _y, repg = solve_frobenius_normed(seq2, 1, WittVec(f1, (f1.from_int(2),)))
        yield contract.case(
            f"{len(shapes)} single-component tower inputs at levels 1-2 "
            f"(integers, uniformizer powers, halves): F(y)=x and |y|^2<=|x| exact; "
            f"{contract.bad} failures; x=(2): window n={repg['n']}, m={repg['m']}, "
            f"working level {repg['working_level']}, |y|^2<=|x| exact"
        )

    if 3 in primes:
        seq3 = build_root_sequence(3, 3)
        f1 = seq3.tower.field(1)
        contract = _Law("solve_normed_contract_p3")
        for s in range(10):
            # exponents below e/3 keep the rescale window at its first level,
            # so the solver works inside conductor 3^5 instead of 3^6 and up
            j = rng.randint(1, 5)
            head = unit_times_power(rng, f1, j)
            contract.check(
                _normed_contract(seq3, 1, head),
                lambda: f"input {s} over {f1!r}: x=({f1.format_elt(head)})",
            )
        yield contract.case(
            "10 single-component inputs over the level-1 field of the p=3 tower "
            f"(unit times uniformizer power): exact contract; {contract.bad} failures"
        )


# ---------------------------------------------------------------------------
# tilt ring laws (suite: tilt)
# ---------------------------------------------------------------------------


def _check_tilt_ring_laws(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """The sum's and the product's rows of `_AXIOMS` over every tuple of
    depth-3 chains over Z/2^3 and Z/3^2, the characteristic-p identity, and
    Frobenius bijectivity at the precision the chains actually certify."""
    del rng
    for q, M in [(q, M) for q, M in ((2, 3), (3, 2)) if q in primes]:
        base = ZModPM(q, M)
        D = 3
        # a p-th root costs a level: roots and truncations live one level down
        ring, lower = TiltRing(base, D), TiltRing(base, D - 1)
        chains = ring.elements()
        R = _Arith(ring.add, ring.mul, ring.neg, ring.eq, ring.zero(), ring.one())

        def at(law: str, *xs: TiltElt) -> Callable[[], str]:
            return lambda: f"{law} over {base!r} at " + ", ".join(
                f"{v}={ring.format_elt(x)}" for v, x in zip("xyz", xs)
            )

        add, mul, char, frob = (
            _Law(f"tilt_{name}_p{q}")
            for name in ("add_laws", "mul_laws", "char_p", "frobenius_bijective")
        )
        for law, rows in (
            (add, ("add_commutative", "add_associative", "additive_inverse")),
            (mul, ("mul_commutative", "mul_associative", "distributive")),
        ):
            # the rows of one arity share a pass over the tuples, so the
            # first witness is the first tuple that fails any of them
            for arity, group in itertools.groupby(rows, key=lambda row: _AXIOMS[row][0]):
                for xs, row in itertools.product(itertools.product(chains, repeat=arity), group):
                    law.check(_AXIOMS[row][1](R, *xs), at(row, *xs))
        for x in chains:
            acc = x
            for _ in range(q - 1):
                acc = ring.add(acc, x)
            char.check(ring.is_zero(acc), at(f"{q}x = 0", x))

            trunc = TiltElt(base, x.entries[:-1])
            frob.check(
                lower.eq(tilt_pth_root(ring.pow_p_tower(x, 1)), trunc),
                at("root(F(x)) = trunc(x)", x),
            )
            frob.check(
                lower.eq(lower.pow_p_tower(tilt_pth_root(x), 1), trunc),
                at("F(root(x)) = trunc(x)", x),
            )
        # injectivity at matched precision (one level down); surjectivity is
        # the exact shift preimage F(root(y)) = trunc(y) verified above, and
        # distinct images biject with distinct truncations
        for x, y in itertools.combinations(chains, 2):
            frob.check(
                not ring.eq(ring.pow_p_tower(x, 1), ring.pow_p_tower(y, 1))
                or lower.eq(TiltElt(base, x.entries[:-1]), TiltElt(base, y.entries[:-1])),
                at("F(x) = F(y) implies trunc(x) = trunc(y)", x, y),
            )
        trunc_keys = {tuple(base.format_elt(c) for c in x.entries[:-1]) for x in chains}
        image_keys = {
            tuple(base.format_elt(c) for c in ring.pow_p_tower(x, 1).entries) for x in chains
        }
        frob.check(
            len(trunc_keys) == len(image_keys),
            lambda: f"over {base!r}: {len(trunc_keys)} truncations, {len(image_keys)} images",
        )

        label = base.label
        yield add.case(
            f"all {len(chains)} coherent depth-{D} chains over {label}: commutativity, "
            "associativity, additive inverse at certified precision"
        )
        yield mul.case(f"multiplicative commutativity/associativity/distributivity over {label}")
        yield char.case(f"{q}*x = 0 for every chain (characteristic {q})")
        yield frob.case(
            "p-th root undoes Frobenius exactly and the shifted chain is the exact "
            "Frobenius preimage one level down; injective at matched precision, "
            "with distinct images in bijection with distinct truncations"
        )


# ---------------------------------------------------------------------------
# char-p overconvergence (suite: tilt)
# ---------------------------------------------------------------------------


def _check_charp_overconvergence(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Inverse-limit norm equals the closed sup formula over a perfected
    polynomial ring, and the degree-growth dichotomy is two-sided."""
    del primes  # the perfected polynomial ring is F_2[x^(1/2^oo)]
    ring = PerfPolyRing(2, 1, 8)
    bs = (Fraction(1, 2), Fraction(1), Fraction(2))
    limit = _Law("charp_limit_vs_formula")
    for s in range(_CHARP_SAMPLES):
        x = _draw_vec(rng, ring, 5)
        b = bs[s % 3]
        rep = charp_limit_norm(x, b)
        limit.check(rep["passed"], lambda: f"sample {s} over {ring!r}, b={b}: {_show(x=x)}")
    yield limit.case(
        f"{_CHARP_SAMPLES} vectors over F_2[x^(1/2^oo)] at depth 4, b in (1/2,1,2): "
        f"coherent-family norm == sup formula exactly; {limit.bad} failures"
    )

    growth = _Law("charp_growth_dichotomy")
    for C in (0, 1, 2):
        for D in (0, 1, 2):
            x = growth_family(ring, C, D, 5)
            for b in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
                rep = growth_profile_report(x, b, C, D)
                growth.check(rep["passed"], lambda: f"(C,D,b)=({C},{D},{b})")
    yield growth.case(
        "families with degree profile (C*j+D)*2^j for (C,D) in {0,1,2}^2: "
        "b >= C gives a nonincreasing profile with sup 2^D at the head, "
        "b < C a strictly increasing profile"
    )


# ---------------------------------------------------------------------------
# untilt isometry (suite: tilt)
# ---------------------------------------------------------------------------


def _check_untilt_isometry(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """arrow_norm(untilt(x), b) == charp norm of x for b <= 1 on certified
    chain vectors over the conductor-32 truncated cyclotomic base."""
    del rng, primes  # the conductor-32 base is a p=2 instance
    base = CycloModPM(2, 5, 4)
    D = 4
    tring = TiltRing(base, D)
    t = base.make([1, -1])
    zeta = base.make([0, 1])
    tops = [
        base.one(),
        t,
        base.mul(t, t),
        base.mul(base.mul(t, t), t),
        zeta,
        base.add(t, base.one()),
        base.add(base.mul(t, t), t),
        base.mul(zeta, t),
        base.add(base.mul(t, t), base.one()),
        # the top must keep head valuation below the base precision: the
        # chain head is top**(p**D), so t**4 and beyond would truncate to 0
        # while the deeper slots stay visible, leaving the certified regime
        base.mul(zeta, base.mul(t, t)),
    ]
    chains = [tilt_from_top(base, top, D) for top in tops]
    zero_chain = tilt_from_top(base, base.zero(), D)
    inputs = (
        [WittVec(tring, (c,)) for c in chains]
        + [WittVec(tring, (chains[i], chains[(i + 3) % 10])) for i in range(8)]
        + [WittVec(tring, (chains[i], zero_chain, chains[(i + 5) % 10])) for i in range(8)]
        + [WittVec(tring, (zero_chain, chains[i])) for i in range(4)]
    )
    law = _Law("untilt_isometry")
    for idx, x in enumerate(inputs):
        for b in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            rep = untilt_isometry(x, 2, b)
            law.check(
                rep["isometric"],
                lambda: f"input {idx} over {tring!r}, b={b}: family "
                f"{exponent_text(rep['family_exponent'])} vs charp "
                f"{exponent_text(rep['charp_exponent'])}",
            )
    yield law.case(
        f"{len(inputs)} certified chain vectors (uniformizer powers, sums, "
        "shifted components) x b in (1/4,1/2,1): exact norm agreement"
    )


# ---------------------------------------------------------------------------
# inverse-Frobenius sandwich (suite: arrow)
# ---------------------------------------------------------------------------


def _check_inverse_frobenius_sandwich(
    rng: random.Random, primes: Sequence[int]
) -> Iterable[CaseResult]:
    """Both displayed inequalities tying |x|_{W,b} to the shifted family."""
    rings: List[TruncatedRing] = [
        r for r in (ZModPM(2, 6), ZModPM(3, 4), CycloModPM(2, 3, 4)) if r.p in primes
    ]
    bs = (Fraction(1), Fraction(2), Fraction(4))
    law = _Law("inverse_frobenius_sandwich")  # definite failures
    unsettled = _Law("inverse_frobenius_sandwich")  # inconclusive samples
    for s in range(_SANDWICH_SAMPLES):
        ring = rings[s % len(rings)]
        depth = rng.randint(2, 4)
        a = sample_coherent(ring, depth, functools.partial(_draw_elt, rng, ring))
        rep = inverse_frobenius_sandwich(a, bs[(s // len(rings)) % len(bs)])

        def witness() -> str:
            lower, value, upper = (
                "[" + ", ".join(map(exponent_text, rep[key])) + "]"
                for key in ("lower_exponents", "value_exponents", "upper_exponents")
            )
            return (
                f"sample {s} over {ring!r}, depth {depth}, b={rep['b']}: lower {lower}, "
                f"value {value}, upper {upper}; {', '.join(rep['zero_components'])}; "
                "levels " + ", ".join(format_witt(z) for z in a.levels)
            )

        law.check(rep["status"] != "fail", witness)
        unsettled.check(rep["status"] != "inconclusive", witness)
    names = ", ".join(r.label for r in rings)
    detail = (
        f"{_SANDWICH_SAMPLES} certified coherent samples over {names} with b in (1,2,4), norms of "
        f"zero residues as intervals; {law.bad} failures, {unsettled.bad} inconclusive"
    )
    if unsettled.bad:
        detail += f"; first inconclusive: {unsettled.first}"
    yield law.case(detail, inconclusive=bool(unsettled.bad))


# ---------------------------------------------------------------------------
# invariant profiles (suite: artin)
# ---------------------------------------------------------------------------


def _check_invariant_profiles(rng: random.Random, primes: Sequence[int]) -> Iterable[CaseResult]:
    """Bounded/unbounded constant-ghost profiles over Q(i) against the
    localized-subring prediction, plus the Teichmueller fixed-point test.
    Each sample runs at its own prime; only those at ``primes`` run, and a
    case left with no sample is dropped."""
    del rng
    f5, f3 = GaussianField(5), GaussianField(3)

    if 5 in primes:
        grid = _Law("invariant_grid_split_p5")
        n_grid = 0
        for a_num, b_num, da, db in itertools.product(
            range(-3, 4), range(-3, 4), (1, 2, 3), (1, 2, 3)
        ):
            f = f5.from_pair(Fraction(a_num, da), Fraction(b_num, db))
            n_grid += 1
            grid.check(invariant_classify(f5, f, 2)["passed"], lambda: f"f={f5.format_elt(f)}")
        yield grid.case(
            f"{n_grid} samples a+bi with |a|,|b|<=3 and denominators in {{1,2,3}} "
            f"over Q(i) at p=5: observed boundedness matches the two-place "
            f"valuation prediction; {grid.bad} mismatches",
            inconclusive=True,
        )

    def at_primes(samples):
        return [s for s in samples if s[0].p in primes]

    i5, i3 = f5.imag_unit(), f3.imag_unit()
    named_samples = at_primes([
        (f5, i5, True, "i at p=5 (split)"),
        (f5, f5.from_pair(Fraction(0), Fraction(1, 5)), False, "i/5 at p=5"),
        (f5, f5.from_pair(Fraction(1, 5), Fraction(0)), False, "1/5 at p=5"),
        (f3, i3, False, "i at p=3 (inert)"),
        (f3, f3.from_int(2), True, "2 at p=3"),
        (f3, f3.from_pair(Fraction(1, 2), Fraction(0)), True, "1/2 at p=3"),
        (f3, f3.from_pair(Fraction(1, 3), Fraction(0)), False, "1/3 at p=3"),
    ])
    if named_samples:
        named = _Law("invariant_named_cases")
        details = []
        for fld, f, want_bounded, label in named_samples:
            rep = invariant_classify(fld, f, 3)
            named.check(rep["bounded"] == want_bounded and rep["passed"], lambda: label)
            details.append(f"{label}: {'bounded' if rep['bounded'] else 'unbounded'}")
        yield named.case("; ".join(details))

    stable_samples = at_primes([(f3, i3), (f5, f5.from_pair(Fraction(1, 5), Fraction(0)))])
    if stable_samples:
        stable = _Law("profile_stability")
        for fld, f in stable_samples:
            r2 = ghost_constant_profile(fld, f, 2)
            r3 = ghost_constant_profile(fld, f, 3)
            stable.check(
                not r2["bounded"]
                and not r3["bounded"]
                and r2["first_unbounded_index"] == r3["first_unbounded_index"],
                lambda: f"f={fld.format_elt(f)} over {fld!r}",
            )
        yield stable.case(
            "once a profile goes unbounded it stays unbounded as the depth grows "
            "(first unbounded index stable from N=2 to N=3)"
        )

    teich = _Law("teichmuller_fixed_points")
    every_teich_sample = [
        (f5, i5, True, "i^5 = i makes [i] shift-invariant at p=5"),
        (f3, i3, False, "i^3 = -i breaks the shift-invariance of [i] at p=3"),
        (f5, f5.one(), True, "1 is invariant at p=5"),
        (Rationals(7), Fraction(1), True, "1 is invariant at p=7"),
    ]
    teich_samples = at_primes(every_teich_sample)
    for fld, f, fixed, _ in teich_samples:
        teich.check(
            teichmuller_phi_invariance(fld, f) == fixed,
            lambda: f"r={fld.format_elt(f)} over {fld!r}: r^p = r is {not fixed}",
        )
    if teich_samples == every_teich_sample:
        teich_detail = (
            "i^5 = i makes [i] shift-invariant at p=5; i^3 = -i breaks it at p=3; "
            "1 is invariant at every p"
        )
    else:
        teich_detail = "; ".join(label for *_, label in teich_samples)
    yield teich.case(teich_detail)


# ---------------------------------------------------------------------------
# suite registry and runner
# ---------------------------------------------------------------------------

class _Check(NamedTuple):
    """A registered check: its name, the primes it has cases at (None: every
    prime) and ``run(rng, primes)``, which runs it at the given primes."""

    name: str
    primes: Optional[Tuple[int, ...]]
    run: Callable[..., Iterable[CaseResult]]

    def covers(self, p: Optional[int]) -> bool:
        return p is None or self.primes is None or p in self.primes


_SUITES: Dict[str, List[_Check]] = {
    "universal": [_Check("structure_polynomials", (2, 3, 5), _check_structure_polynomials)],
    "ghost": [
        _Check("witt_ring_laws", None, _check_witt_ring_laws),
        _Check("truncated_naturality", None, _check_truncated_naturality),
    ],
    "norms": [_Check("norm_laws", (2, 3, 5), _check_norm_laws)],
    "arrow": [
        _Check("mul_by_p_norm", (2, 3), _check_mul_by_p_norm),
        _Check("depth_lifting", (2,), _check_depth_lifting),
        _Check("theta_map", (2, 3), _check_theta_map),
        _Check("integer_rigidity", (2,), _check_integer_rigidity),
        _Check("inverse_frobenius_sandwich", (2, 3), _check_inverse_frobenius_sandwich),
    ],
    "perfect": [
        _Check("perfect_verdicts", (2, 3, 5), _check_perfect_verdicts),
        _Check("frobenius_solving", (2, 3), _check_frobenius_solving),
    ],
    "tilt": [
        _Check("tilt_ring_laws", (2, 3), _check_tilt_ring_laws),
        _Check("charp_overconvergence", (2,), _check_charp_overconvergence),
        _Check("untilt_isometry", (2,), _check_untilt_isometry),
    ],
    "kernel": [_Check("kernel_norm", (2, 3), _check_kernel_norm)],
    "artin": [_Check("invariant_profiles", (3, 5, 7), _check_invariant_profiles)],
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def _covered(primes: Iterable[int]) -> str:
    return "{" + ", ".join(str(q) for q in sorted(primes)) + "}"


def run_suite(name: str, seed: int = 0, p: Optional[int] = None) -> SuiteReport:
    """Execute a named suite; deterministic given (name, seed, p).

    The one loop below decides, for a single suite and for ``all`` alike,
    which checks run, which are skipped at ``--p`` and when the selection is
    refused (see the module docstring)."""
    if not isinstance(name, str) or name not in SUITE_NAMES:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    selection = [
        (sub, check)
        for sub, checks in _SUITES.items()
        if name in (sub, "all")
        for check in checks
    ]
    if p is not None:
        check_prime(p)
        if not any(c.covers(p) for _, c in selection):
            covered = _covered({q for _, c in selection for q in c.primes})
            raise MalformedConfig(f"--p {p}: suite {name} covers p in {covered} only")
    started = time.monotonic()
    report = SuiteReport(suite=name, seed=seed)
    for sub, check in selection:
        if check.covers(p):
            primes = check.primes if p is None else (p,)
            try:
                cases = list(check.run(random.Random(f"{seed}|{sub}|{check.name}"), primes))
            except WittError as exc:
                detail = f"raised {type(exc).__name__}: {exc}"
                cases = [CaseResult(check.name, False, detail)]
            cases = cases or [CaseResult(check.name, False, "the check ran no case")]
        else:
            detail = f"skipped: --p {p}: this check covers p in {_covered(check.primes)} only"
            cases = [CaseResult(check.name, True, detail, inconclusive=True)]
        prefix = f"{sub}." if name == "all" else ""
        report.cases.extend(c._replace(name=prefix + c.name) for c in cases)
    report.elapsed_s = time.monotonic() - started
    return report
