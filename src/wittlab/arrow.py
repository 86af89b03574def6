"""Coherent towers of vectors under Frobenius, and their limit norms.

An ``ArrowElt`` of depth N over R stores levels (z_0, ..., z_N) with z_n of
length n+1 and F(z_{n+1}) = z_n exactly.  It is the finite-depth model of an
element of the inverse limit of the truncated vector rings along Frobenius;
operations are levelwise, and inverse Frobenius is the cheap shift
z'_n = restrict(z_{n+1}, n).

The b-weighted limit norm is

    |a|_b = sup_n  p**(-b*n) * |z_n| ** (p**n),     b > 0.

A finite depth can only ever certify a supremum from below, so the result
carries a status flag.  When the element comes with a *tail bound* B <= 1 (a
certificate that it extends coherently with all level norms <= B), the terms
beyond depth N are bounded by p**(-b*(N+1)) * B**(p**(N+1)), and whenever the
stored maximum dominates that bound the supremum is exact.  ``_norm_terms``
is the one loop over the terms, and the one place that may read a truncated
residue zero at precision k as p**-k, the top of its norm's interval.
``arrow_from_top`` builds a top level's family, one Frobenius per level.

``lift_arrow_precision`` trades depth for digits over a truncated base: each
new level is computed as F**(m+1) of a digit-extended lift two-plus-m levels
up, which washes out the lift ambiguity (a mod-p**m class lifts to mod
p**(m+1) only up to p**m * delta, and one application of F shrinks that
ambiguity by a factor of p).  The result is exactly coherent at the higher
precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BOutOfRange,
    CapabilityMissing,
    DepthExceeded,
    InsufficientDepth,
    IntegralityViolation,
    LengthMismatch,
)
from .norms import NormValue, as_fraction, norm_max
from .rings import Ring, size
from .witt import (
    WittVec,
    check_entry_bits,
    frobenius,
    frobenius_iter,
    max_length,
    restrict,
    teichmuller,
    witt_add,
    witt_eq,
    witt_from_integer,
    witt_mul,
    witt_to_json,
)


class ArrowElt(NamedTuple):
    ring: Ring
    levels: Tuple[WittVec, ...]
    tail_bound: Optional[NormValue] = None

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def __repr__(self) -> str:
        return f"ArrowElt(depth={self.depth}, ring={self.ring!r})"


def check_coherence(ring: Ring, levels: Sequence[WittVec]) -> None:
    for n, z in enumerate(levels):
        if z.length != n + 1:
            raise LengthMismatch(
                f"level {n} must have length {n + 1}, got {z.length}"
            )
    for n in range(len(levels) - 1):
        if not witt_eq(frobenius(levels[n + 1]), levels[n]):
            raise IntegralityViolation(
                f"levels {n}/{n + 1} are not Frobenius-coherent"
            )


def make_arrow(
    ring: Ring,
    levels: Sequence[WittVec],
    tail_bound: Optional[NormValue] = None,
    validate: bool = True,
) -> ArrowElt:
    if not levels:
        raise LengthMismatch("an arrow element needs at least one level")
    if validate:
        check_coherence(ring, levels)
    return ArrowElt(ring, tuple(levels), tail_bound)


def _integral_tail_bound(ring: Ring) -> Optional[NormValue]:
    """Over truncated integral bases every coherent family has level norms
    <= 1, so the unit tail bound is always a valid certificate."""
    return NormValue.one() if ring.truncated else None


def _combine_tail(a: ArrowElt, b: ArrowElt, how: str) -> Optional[NormValue]:
    if a.tail_bound is None or b.tail_bound is None:
        return None
    if how == "add":
        return norm_max([a.tail_bound, b.tail_bound])
    return a.tail_bound.mul(b.tail_bound)


def _check_depths(a: ArrowElt, b: ArrowElt) -> None:
    a.ring.require_same(b.ring)
    if a.depth != b.depth:
        raise LengthMismatch(f"arrow depths differ: {a.depth} vs {b.depth}")


def arrow_add(a: ArrowElt, b: ArrowElt) -> ArrowElt:
    _check_depths(a, b)
    levels = tuple(witt_add(x, y) for x, y in zip(a.levels, b.levels))
    return ArrowElt(a.ring, levels, _combine_tail(a, b, "add"))


def arrow_mul(a: ArrowElt, b: ArrowElt) -> ArrowElt:
    _check_depths(a, b)
    levels = tuple(witt_mul(x, y) for x, y in zip(a.levels, b.levels))
    return ArrowElt(a.ring, levels, _combine_tail(a, b, "mul"))


def arrow_eq(a: ArrowElt, b: ArrowElt) -> bool:
    _check_depths(a, b)
    return all(witt_eq(x, y) for x, y in zip(a.levels, b.levels))


def check_family_depth(p: int, depth: int) -> None:
    """Refuse an empty family (depth < 0) and one whose top level, of length
    depth + 1, is longer than ``witt.max_length`` at p."""
    size("family depth", depth, 0, max_length(p) - 1)


def arrow_from_integer(ring: Ring, c: int, depth: int) -> ArrowElt:
    """The constant-ghost integer c at every level.  It is coherent by
    construction: over Z the ghost of F is the shift, which fixes a constant
    ghost, and F commutes with the map Z -> R.  So nothing re-checks it, and
    only a depth past ``check_family_depth`` and a c past ``check_entry_bits``
    at p**depth (its top level is built over Z) are refused."""
    check_family_depth(ring.p, depth)
    check_entry_bits(ring.p, abs(c).bit_length(), depth)
    levels = tuple(witt_from_integer(ring, c, n + 1) for n in range(depth + 1))
    bound = norm_max([ring.seminorm(ring.from_int(c)), NormValue.one()])
    if NormValue.one() < bound:
        raise IntegralityViolation(
            f"integer image of {c} has seminorm above 1; tail certificate invalid"
        )
    return make_arrow(ring, levels, tail_bound=NormValue.one(), validate=False)


def arrow_teichmuller(ring: Ring, roots: Sequence) -> ArrowElt:
    """Arrow element ([r_n])_n from a sequence with r_{n+1}**p = r_n.

    The roots are checked; that check is the family's Frobenius coherence,
    since F([r]) = [r**p] in every ring, so the levels are not checked again.
    Level norms are |r_0| ** (1/p**n), whose supremum over all n is at most
    max(1, |r_0|); for |r_0| <= 1 the unit tail bound applies.
    """
    for n in range(len(roots) - 1):
        if not ring.eq(ring.pow_(roots[n + 1], ring.p), roots[n]):
            raise IntegralityViolation(f"roots {n}/{n + 1} are not p-power coherent")
    levels = tuple(teichmuller(ring, r, n + 1) for n, r in enumerate(roots))
    bound = None
    if not NormValue.one() < ring.seminorm(roots[0]):
        bound = NormValue.one()
    return make_arrow(ring, levels, tail_bound=bound, validate=False)


def inverse_frobenius(a: ArrowElt) -> ArrowElt:
    """Shift: level n of the result is the truncation of level n+1."""
    if a.depth < 1:
        raise DepthExceeded("inverse Frobenius consumes one level; depth 0 given")
    levels = tuple(restrict(a.levels[n + 1], n) for n in range(a.depth))
    return ArrowElt(a.ring, levels, a.tail_bound)


def theta(a: ArrowElt) -> Any:
    """Evaluation: the first component of level 0.

    Only meaningful over a truncated base (the finite digit budget is what
    models the completeness needed for the limit to evaluate)."""
    if not a.ring.truncated:
        raise CapabilityMissing(
            "theta is defined over truncated bases; this ring is exact"
        )
    return a.levels[0].components[0]


def theta_series(a: ArrowElt, lift_perturbation: Optional[Callable[[int], Any]] = None):
    """The partial sums sum_i p**i * y_i ** (p**(N-i)) with y_i level-N
    components (optionally perturbed by a caller-supplied lift change).

    For a coherent element this telescopes to theta(a) exactly: the sum is the
    top ghost coordinate of level N, and ghost coordinates are constant along
    the tower.  An exact base is refused as ``theta`` refuses it: the terms
    read the truncated ring's ``pow_p_tower``.  Returns (value, terms).
    """
    theta(a)
    ring = a.ring
    N = a.depth
    top = a.levels[N]
    terms = []
    acc = ring.zero()
    for i in range(N + 1):
        y = top.components[i]
        if lift_perturbation is not None:
            y = ring.add(y, lift_perturbation(i))
        term = ring.mul(ring.from_int(ring.p ** i), ring.pow_p_tower(y, N - i))
        terms.append(term)
        acc = ring.add(acc, term)
    return acc, terms


class ArrowNorm(NamedTuple):
    value: NormValue
    status: str  # "exact" or "lower-bound"
    attained_at: Optional[int]
    b: Fraction
    term_exponents: Tuple[Optional[Fraction], ...]
    tail_exponent: Optional[Fraction]

    def to_dict(self) -> dict:
        return {
            "exponent": self.value.exponent_json(),
            "status": self.status,
            "attained_at": self.attained_at,
            "b": str(self.b),
            "terms": [None if e is None else str(e) for e in self.term_exponents],
            "tail": None if self.tail_exponent is None else str(self.tail_exponent),
        }


def _norm_terms(a: ArrowElt, b: Fraction, zero_floor: bool = False) -> List[NormValue]:
    """The terms p**(-b*n) * |z_n|_W ** (p**n) of the b-weighted norm, one per
    level.  With ``zero_floor`` a truncated residue that is zero at precision k
    counts as p**-k, the top of the interval [0, p**-k] its norm lies in."""
    ring, p = a.ring, a.ring.p
    terms = []
    for n, z in enumerate(a.levels):
        norms = []
        for i, c in enumerate(z.components):
            v = ring.seminorm(c)
            if zero_floor and v.is_zero and ring.truncated:
                v = NormValue.from_exponent(ring.precision_of(c))
            norms.append(v.root(p**i))
        terms.append(norm_max(norms).pow(p**n).scale_exponent(b * n))
    return terms


def _tail_status(a: ArrowElt, b: Fraction, value: NormValue) -> Tuple[str, Optional[Fraction]]:
    """(status, tail exponent): ``exact`` when a tail bound B <= 1 keeps the
    terms past depth N, p**(-b*(N+1)) * B**(p**(N+1)), at most ``value``."""
    B, N = a.tail_bound, a.depth
    if B is None or NormValue.one() < B:
        return "lower-bound", None
    tail_value = B.pow(a.ring.p ** (N + 1)).scale_exponent(b * (N + 1))
    tail = None if tail_value.is_zero else -tail_value.v
    return ("exact" if tail_value <= value else "lower-bound"), tail


def arrow_norm(a: ArrowElt, b) -> ArrowNorm:
    """sup_n p**(-b*n) |z_n| ** (p**n) over the stored levels, with an
    exactness certificate when the tail bound dominates."""
    b = as_fraction(b)
    if b <= 0:
        raise BOutOfRange(f"the weight b must be positive, got {b}")
    terms = _norm_terms(a, b)
    value = norm_max(terms)
    attained = next((n for n, t in enumerate(terms) if not t.is_zero and t == value), None)
    status, tail = _tail_status(a, b, value)
    return ArrowNorm(
        value=value,
        status=status,
        attained_at=attained,
        b=b,
        term_exponents=tuple(None if t.is_zero else -t.v for t in terms),
        tail_exponent=tail,
    )


def inverse_frobenius_sandwich(a: ArrowElt, b) -> dict:
    """Both inequalities tying |x|_{W,b} to the shifted element, for b >= 1:

        max(|x_1|, p**-b * |Fi(x)|_{W,b/p} ** p)
            <= |x|_{W,b} <=
        max(|x_1|, |Fi(x)|_{W,b/p} ** p)

    where Fi is the inverse Frobenius and x_1 the level-0 component, at the
    stored depth.  Over a truncated ring a zero residue only bounds its norm,
    so each side is an interval (``_norm_terms``): ``status`` is ``pass`` when
    both inequalities hold at every point of the intervals, ``fail`` when one
    is violated at every point, and ``inconclusive`` otherwise, with the zero
    components named.  ``passed`` is true for ``pass`` only.  The
    ``arrow_norm`` statuses of a and Fi(a) are read off the same terms.
    """
    b = as_fraction(b)
    if b < 1:
        raise BOutOfRange(f"the sandwich needs b >= 1, got {b}")
    ring, p = a.ring, a.ring.p
    fi, b_fi = inverse_frobenius(a), b / p
    lows, highs = _norm_terms(a, b), _norm_terms(a, b, zero_floor=True)
    head_lo, head_hi, value_lo, value_hi = lows[0], highs[0], norm_max(lows), norm_max(highs)
    shifted_lo = norm_max(_norm_terms(fi, b_fi))
    shifted_hi = norm_max(_norm_terms(fi, b_fi, zero_floor=True))
    lower_lo = norm_max([head_lo, shifted_lo.pow(p).scale_exponent(b)])
    lower_hi = norm_max([head_hi, shifted_hi.pow(p).scale_exponent(b)])
    upper_lo = norm_max([head_lo, shifted_lo.pow(p)])
    upper_hi = norm_max([head_hi, shifted_hi.pow(p)])
    if lower_hi <= value_lo and value_hi <= upper_lo:
        status = "pass"
    elif value_hi < lower_lo or upper_hi < value_lo:
        status = "fail"
    else:
        status = "inconclusive"
    zeros = [
        f"z_({n},{i}) = 0 mod {p}^{ring.precision_of(c)}"
        for n, z in enumerate(a.levels)
        for i, c in enumerate(z.components)
        if ring.truncated and ring.is_zero(c)
    ]

    def exponents(lo: NormValue, hi: NormValue) -> list:
        return [lo.exponent_json(), hi.exponent_json()]

    return {
        "b": str(b),
        "value_exponents": exponents(value_lo, value_hi),
        "lower_exponents": exponents(lower_lo, lower_hi),
        "upper_exponents": exponents(upper_lo, upper_hi),
        "zero_components": zeros,
        "value_status": _tail_status(a, b, value_lo)[0],
        "shifted_status": _tail_status(fi, b_fi, shifted_lo)[0],
        "status": status,
        "passed": status == "pass",
    }


def lift_arrow_precision(a: ArrowElt, N: int) -> ArrowElt:
    """Rebuild levels 0..N at one more digit of base precision.

    Requires depth >= N + m + 2 where p**m is the base modulus: level n of the
    result is F**(m+1) applied to the digit-lift of stored level n + m + 2,
    restricted to length n+1.  Coherence of the result is exact, because the
    lift ambiguity p**m * delta is killed by a single extra Frobenius.  The
    digit-lift keeps the stored digits: a *chosen* representative, hence exact.
    Each level of the result is checked to reduce to the stored level n
    (``IntegralityViolation`` otherwise).
    """
    ring = a.ring
    if not ring.truncated:
        raise CapabilityMissing("precision lifting needs a truncated base ring")
    m = ring.M
    if a.depth < N + m + 2:
        raise InsufficientDepth(
            f"lifting to depth {N} at base modulus exponent {m} needs stored "
            f"depth >= {N + m + 2}, got {a.depth}"
        )
    target = ring.with_precision(m + 1)
    new_levels = []
    for n in range(N + 1):
        src = a.levels[n + m + 2]
        lifted = WittVec(target, tuple(target.from_digits(ring.digits(c)) for c in src.components))
        pushed = frobenius_iter(lifted, m + 1)
        new_levels.append(restrict(pushed, n))
    result = make_arrow(target, new_levels, tail_bound=_integral_tail_bound(target))
    for n in range(N + 1):
        back = WittVec(
            ring,
            tuple(
                ring.from_digits(target.digits(target.truncate(c, m)))
                for c in result.levels[n].components
            ),
        )
        if not witt_eq(back, a.levels[n]):
            raise IntegralityViolation(
                f"precision lift does not reduce to the original at level {n}"
            )
    return result


def arrow_from_top(top: WittVec) -> ArrowElt:
    """The coherent family with top level ``top``, pushed down one Frobenius
    per level.  It is coherent by construction, so nothing re-checks it; over
    a truncated base it carries the unit tail bound."""
    levels = [top]
    for _ in range(top.length - 1):
        levels.append(frobenius(levels[-1]))
    levels.reverse()
    return ArrowElt(top.ring, tuple(levels), _integral_tail_bound(top.ring))


def sample_coherent(ring: Ring, depth: int, draw: Callable[[], Any]) -> ArrowElt:
    """A random coherent element: the family of a drawn top level."""
    return arrow_from_top(WittVec(ring, tuple(draw() for _ in range(depth + 1))))


def rigidity_profile(a: ArrowElt) -> List[bool]:
    """Check |z_{i+1,1} - z_{i,1}| <= p**-(N-i): first components of a
    coherent family agree to p-power precision increasing with distance from
    the top level."""
    ring, N = a.ring, a.depth
    out = []
    for i in range(N):
        diff = ring.sub(a.levels[i + 1].components[0], a.levels[i].components[0])
        out.append(ring.seminorm(diff) <= NormValue.from_exponent(N - i))
    return out


def arrow_to_json(a: ArrowElt) -> dict:
    return {
        "ring": a.ring.to_config(),
        "levels": [witt_to_json(z)["components"] for z in a.levels],
        "tail_bound_exponent": None if a.tail_bound is None else a.tail_bound.exponent_json(),
    }
