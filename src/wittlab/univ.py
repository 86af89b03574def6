"""Universal structure polynomials for length-(n+1) vectors at a prime p.

The components of a vector are indexed by p-power subscripts
x_1, x_p, ..., x_{p**n}.  The ghost map sends such a vector to

    w_{p**m} = sum_{i <= m} p**i * x_{p**i} ** (p**(m-i)),   m = 0..n,

and every ring operation is defined by transporting through ghost
coordinates.  The structure polynomials are that transport run on variables:
`structure_polys` hands `witt.ghost` and `witt.unghost` vectors of variables
over `_PolyRing`, Z[x_0, ..., x_(n-1)] on `UPoly`, so the library inverts the
ghost map in one place.  The classical integrality statement says the
results have integer coefficients; `_PolyRing.exact_divide_by_p` refuses a
coefficient that p**m does not divide, so a wrong transport cannot slip
through as a silently wrong denominator.

Polynomials are built once per (p, index, kind) and cached; their
reductions mod p (``structure_poly_mod_p``, not cached) are read once per
plan by the perfected polynomial ring.  ``canonical_dump`` and every other
caller read the integer ones, and every power of a polynomial comes from
``UPoly.pow`` on the one square-and-multiply ladder, ``rings.power_ladder``.
The cached range is deliberately small (index <= 3 for p = 2, index <= 2
otherwise), and the work grows with p**index, so a p**index above
``MAX_STRUCTURE_DEGREE`` is refused.  Only ``PerfPolyRing.char_p_witt_op``
reads the polynomials for Witt ops, and it refuses longer vectors; every
other ring's Witt ops read no structure polynomial and take any length
(ghost transport, or a tilt's base-ring ops).

There is no generic evaluator: each ring of characteristic p answers the
char-p Witt ops through ``Ring.char_p_witt_op``.  A tilt evaluates nothing:
it runs the base ring's Witt ops on one-digit slot vectors
(``tilt.TiltRing.char_p_witt_op``).  A perfected polynomial ring sorts the
terms of the mod-p polynomials into one cached plan per length, kind and
arity (``perfpoly._plan``, the one cache of that form), and multiplies on
its packed-monomial kernel: each monomial is one int key in a radix one
more than the largest exponent the call can produce (the largest input
exponent times the largest total degree of a term), so a monomial product
is one addition, and each component is unpacked and sorted once
(``perfpoly.PerfPolyRing.char_p_witt_op``).

Kinds:
  * ``sum``, ``prod``  -- binary, in x-variables then y-variables;
  * ``neg``            -- unary (needed for p = 2; odd p negates componentwise);
  * ``frob``           -- component m of the Frobenius, in x_1..x_{p**(m+1)};
  * ``frob_f``         -- the carry term f_{p**m} in the decomposition
                          F_m = x_{p**m}**p + p*x_{p**(m+1)} + p*f_{p**m},
                          which involves only x_1..x_{p**m}.  Read only by
                          ``universal dump`` and the ``universal`` suite.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import CapabilityMissing, IntegralityViolation, MalformedConfig
from .rings import check_prime, power_ladder, size
from .witt import GhostVec, WittVec, ghost, unghost

Exps = Tuple[int, ...]

KINDS = ("sum", "prod", "neg", "frob", "frob_f")


# the largest p**index, the weighted degree of component ``index``, that is
# built: the work grows with it, and all five kinds at index 2 took 0.66 s
# at p = 13 and 4.2 s at p = 17 on a shared 2-CPU host.  The tests, the
# suites and the benchmark reach 5**2 = 25.
MAX_STRUCTURE_DEGREE = 13**2


def structure_cap(p: int) -> int:
    """Largest cached component index for structure polynomials at p."""
    return 3 if p == 2 else 2


class UPoly:
    """A sparse multivariate polynomial with exact coefficients.

    Treated as immutable after construction; the terms dict maps exponent
    tuples to nonzero coefficients (int or Fraction), so two polynomials
    are equal exactly when their term dicts are.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exps, object] | None = None):
        self.nvars = nvars
        self.terms: Dict[Exps, object] = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    self.terms[exps] = c

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(nvars: int, c) -> "UPoly":
        return UPoly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def variable(nvars: int, idx: int, power: int = 1) -> "UPoly":
        exps = [0] * nvars
        exps[idx] = power
        return UPoly(nvars, {tuple(exps): 1})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "UPoly") -> None:
        if self.nvars != other.nvars:
            raise MalformedConfig("polynomials over different variable sets")

    def add(self, other: "UPoly") -> "UPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return UPoly(self.nvars, terms)

    def sub(self, other: "UPoly") -> "UPoly":
        return self.add(other.scale(-1))

    def scale(self, c) -> "UPoly":
        return UPoly(self.nvars, {e: q * c for e, q in self.terms.items()})

    def mul(self, other: "UPoly") -> "UPoly":
        self._check(other)
        terms: Dict[Exps, object] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(operator.add, ea, eb))
                terms[key] = terms.get(key, 0) + ca * cb
        return UPoly(self.nvars, terms)

    def pow(self, n: int) -> "UPoly":
        """self ** n on ``rings.power_ladder``: the base is never squared past
        the top bit and the constant 1 is never multiplied in."""
        if n < 0:
            raise CapabilityMissing("UPoly: negative powers not supported")
        return power_ladder(self, n, UPoly.mul) if n else UPoly.constant(self.nvars, 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def uses_variable(self, idx: int) -> bool:
        return any(exps[idx] for exps in self.terms)

    def weighted_degrees(self, weights: Sequence[int]) -> List[int]:
        return sorted({sum(w * e for w, e in zip(weights, exps)) for exps in self.terms})

    # -- formatting -----------------------------------------------------------------

    def canonical_str(self, labels: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            factors = [str(int(c))]
            for lab, e in zip(labels, exps):
                if e == 1:
                    factors.append(lab)
                elif e > 1:
                    factors.append(f"{lab}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UPoly({self.nvars}, {len(self.terms)} terms)"


class _PolyRing:
    """Z[x_0..x_(nvars-1)] on `UPoly`, duck-typed as the p-torsion-free ring
    that `witt.ghost` and `witt.unghost` read.  Its exact division by p**k is
    the integrality certificate of the structure polynomials: a coefficient
    that p**k does not divide is refused."""

    p_torsion_free = True

    def __init__(self, p: int, nvars: int):
        self.p, self.nvars = p, nvars

    def variables(self) -> Tuple[UPoly, ...]:
        return tuple(UPoly.variable(self.nvars, i) for i in range(self.nvars))

    def from_int(self, n: int) -> UPoly:
        return UPoly.constant(self.nvars, n)

    def zero(self) -> UPoly:
        return UPoly(self.nvars)

    add = staticmethod(UPoly.add)
    sub = staticmethod(UPoly.sub)
    mul = staticmethod(UPoly.mul)
    pow_ = staticmethod(UPoly.pow)

    def neg(self, a: UPoly) -> UPoly:
        return a.scale(-1)

    def exact_divide_by_p(self, a: UPoly, k: int = 1) -> UPoly:
        q = self.p ** k
        for exps, c in a.terms.items():
            if c % q:
                raise IntegralityViolation(
                    f"coefficient {Fraction(c, q)} of exponent {exps} is not an integer"
                )
        return UPoly(self.nvars, {exps: c // q for exps, c in a.terms.items()})


@lru_cache(maxsize=None)
def structure_polys(p: int, index: int, kind: str) -> Tuple[UPoly, ...]:
    """Components 0..index of the operation ``kind`` at the prime p, all over
    the variables of component ``index``: one `witt.ghost`/`witt.unghost`
    pass over `_PolyRing`, whose exact divisions certify integrality.  A p
    that is not prime, and a p**index past ``MAX_STRUCTURE_DEGREE``, are
    refused before any transport."""
    check_prime(p)
    if kind not in KINDS:
        raise MalformedConfig(f"unknown structure polynomial kind {kind!r}")
    cap = structure_cap(p)
    if size("structure polynomial index", index, 0) > cap:
        raise CapabilityMissing(
            f"structure polynomials at p={p} are cached for indices 0..{cap}, "
            f"got {index}; use ghost transport for longer vectors"
        )
    if p**index > MAX_STRUCTURE_DEGREE:
        raise MalformedConfig(
            f"structure polynomials at p={p}, index {index}: p^{index} = {p**index} "
            f"is above the bound {MAX_STRUCTURE_DEGREE}"
        )
    if kind == "frob_f":
        # strip the exact part off each Frobenius component:
        # frob_i = x_i**p + p*x_(i+1) + p*f_i, with f_i in x_0..x_i
        ring = _PolyRing(p, index + 2)
        xs = ring.variables()
        carries = []
        for i, full in enumerate(structure_polys(p, index, "frob")):
            f = ring.exact_divide_by_p(full.sub(xs[i].pow(p)).sub(xs[i + 1].scale(p)))
            if f.uses_variable(i + 1):
                raise IntegralityViolation(
                    f"carry term f at p={p}, index {i} unexpectedly involves x_{{p^{i + 1}}}"
                )
            carries.append(UPoly(index + 1, {e[: index + 1]: c for e, c in f.terms.items()}))
        return tuple(carries)
    if kind in ("sum", "prod"):
        ring = _PolyRing(p, 2 * (index + 1))
        xs = ring.variables()
        wx, wy = ghost(WittVec(ring, xs[: index + 1])), ghost(WittVec(ring, xs[index + 1 :]))
        phi = wx.add(wy) if kind == "sum" else wx.mul(wy)
    elif kind == "neg":
        ring = _PolyRing(p, index + 1)
        phi = ghost(WittVec(ring, ring.variables())).neg()
    else:  # frob: the shifted ghost of a vector one component longer
        ring = _PolyRing(p, index + 2)
        phi = GhostVec(ring, ghost(WittVec(ring, ring.variables())).entries[1:])
    return unghost(phi).components


def structure_poly(p: int, index: int, kind: str) -> UPoly:
    """The index-th component polynomial of the requested operation at the
    prime p: the last entry of ``structure_polys``."""
    return structure_polys(p, index, kind)[-1]


def structure_poly_mod_p(p: int, index: int, kind: str) -> UPoly:
    """``structure_poly`` with its coefficients reduced to 0..p-1, the form a
    characteristic-p ring evaluates: terms divisible by p drop out and a
    coefficient 1 mod p needs no multiplication."""
    poly = structure_poly(p, index, kind)
    return UPoly(poly.nvars, {exps: c % p for exps, c in poly.terms.items()})


def component_labels(p: int, count: int, prefix: str = "x") -> List[str]:
    return [f"{prefix}{p ** i}" for i in range(count)]


def structure_poly_labels(p: int, index: int, kind: str) -> List[str]:
    if kind in ("sum", "prod"):
        return component_labels(p, index + 1) + component_labels(p, index + 1, "y")
    if kind == "frob":
        return component_labels(p, index + 2)
    return component_labels(p, index + 1)


def canonical_dump(p: int) -> str:
    """All cached structure polynomials at p, one per line, in a stable order."""
    lines = []
    for kind in KINDS:
        for index in range(structure_cap(p) + 1):
            poly = structure_poly(p, index, kind)
            labels = structure_poly_labels(p, index, kind)
            lines.append(f"{kind}[p={p},i={index}] = {poly.canonical_str(labels)}")
    return "\n".join(lines) + "\n"
