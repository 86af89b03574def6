"""Finite-depth perfections of polynomial rings over F_p.

``PerfPolyRing(p, nvars, depth)`` models the subring of
F_p[x_0**(1/p**oo), ..., x_{nvars-1}**(1/p**oo)] spanned by monomials whose
exponents have denominator dividing p**depth.  Exponents are stored as
integers in units of 1/p**depth, so all arithmetic is exact.

The ring has characteristic p.  x -> x**p is injective (the ring is a domain)
and exponent-doubling, so p-th roots exist exactly when every stored exponent
is divisible by p; at the depth boundary the root operation fails rather than
silently extending the depth.  The seminorm is p**(deg f) with deg the total
degree, which is multiplicative and takes negative exponent values; it models
a Gauss norm with radius > 1, so this ring is the stock example of unbounded
growth for overconvergence checks.

Char-p Witt ops reach this ring through its override of
``Ring.char_p_witt_op``.  It refuses vectors longer than the cached range
(``univ.structure_cap``), and evaluates the cached mod-p structure
polynomial of each component: it takes each power x_i**e once per component
(a p-power is an exponent shift), forms the term products and their sum on
plain dicts of monomials with unreduced integer coefficients, and reduces mod
p and sorts once per component.  Reduction mod p is a ring map and elements
are canonical, so this is the element that evaluating the polynomial term
by term in ring arithmetic would give.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _plus
from typing import Any, Dict, Optional, Sequence, Tuple

from .errors import (
    CapabilityMissing,
    DepthExceeded,
    MalformedConfig,
    NoRoot,
)
from .norms import NormValue
from .rings import Ring, check_prime
from .univ import structure_cap, structure_poly_mod_p

Monomial = Tuple[int, ...]
PPoly = Tuple[Tuple[Monomial, int], ...]


def _conv(a, b) -> Dict[Monomial, int]:
    """The product of two sequences of (monomial, coefficient) pairs, as a
    dict with unreduced coefficients."""
    terms: Dict[Monomial, int] = {}
    for ma, ca in a:
        for mb, cb in b:
            key = tuple(map(_plus, ma, mb))
            terms[key] = terms.get(key, 0) + ca * cb
    return terms


class PerfPolyRing(Ring):
    kind = "PerfPoly"
    char_p = True
    q_algebra = False
    p_torsion_free = False
    truncated = False

    def __init__(self, p: int, nvars: int, depth: int):
        self.p = check_prime(p)
        if nvars < 1:
            raise MalformedConfig(f"need at least one variable, got {nvars}")
        if depth < 0:
            raise MalformedConfig(f"depth must be >= 0, got {depth}")
        self.nvars = nvars
        self.depth = depth
        self.unit = p ** depth  # stored exponents are multiples of 1/unit

    def to_config(self) -> dict:
        return {"kind": self.kind, "p": self.p, "nvars": self.nvars, "depth": self.depth}

    # -- construction ---------------------------------------------------------

    def _canon(self, terms: Dict[Monomial, int]) -> PPoly:
        out = []
        for mono, c in terms.items():
            c %= self.p
            if c:
                out.append((mono, c))
        out.sort()
        return tuple(out)

    def from_int(self, n: int) -> PPoly:
        return self._canon({(0,) * self.nvars: n})

    def monomial(self, exponents: Sequence, coeff: int = 1) -> PPoly:
        if len(exponents) != self.nvars:
            raise MalformedConfig(
                f"expected {self.nvars} exponents, got {len(exponents)}"
            )
        mono = []
        for q in exponents:
            q = Fraction(q)
            scaled = q * self.unit
            if scaled.denominator != 1 or scaled < 0:
                raise DepthExceeded(
                    f"exponent {q} is not a multiple of 1/{self.p}^{self.depth}"
                )
            mono.append(int(scaled))
        return self._canon({tuple(mono): coeff})

    def exponents_of(self, mono: Monomial) -> Tuple[Fraction, ...]:
        return tuple(Fraction(m, self.unit) for m in mono)

    # -- arithmetic --------------------------------------------------------------

    def add(self, a: PPoly, b: PPoly) -> PPoly:
        terms: Dict[Monomial, int] = dict(a)
        for mono, c in b:
            terms[mono] = terms.get(mono, 0) + c
        return self._canon(terms)

    def neg(self, a: PPoly) -> PPoly:
        return tuple((mono, self.p - c) for mono, c in a)

    def mul(self, a: PPoly, b: PPoly) -> PPoly:
        return self._canon(_conv(a, b))

    def pow_(self, a: PPoly, n: int) -> PPoly:
        """a ** n for n = p**s * r with p not dividing r: the r-th power by
        the generic ladder, then s Frobenius maps, which multiply exponents
        by p and fix the F_p coefficients."""
        if n <= 0:
            return super().pow_(a, n)
        s = 0
        while n % self.p == 0:
            n //= self.p
            s += 1
        result = super().pow_(a, n)
        for _ in range(s):
            result = self.frobenius_elt(result)
        return result

    def char_p_witt_op(self, kind: str, vecs: Sequence[Any]) -> Tuple[PPoly, ...]:
        """Component i is the mod-p structure polynomial ``kind`` at the
        first i+1 components of each vector, evaluated with one
        canonicalisation, as the module docstring describes.  Lengths beyond
        the cached range are refused rather than approximated."""
        length, cap = vecs[0].length, structure_cap(self.p)
        if length > cap + 1:
            raise CapabilityMissing(
                f"characteristic-p {kind} is cached up to length {cap + 1} "
                f"at p={self.p}; got length {length}"
            )
        unit_mono = (0,) * self.nvars
        comps = []
        for i in range(length):
            values = [c for v in vecs for c in v.components[: i + 1]]
            powers: Dict[Tuple[int, int], PPoly] = {}
            acc: Dict[Monomial, int] = {}
            for c, factors in structure_poly_mod_p(self.p, i, kind).terms_for(values):
                term: Any = None if c is None else ((unit_mono, c),)
                for key in factors:
                    power = powers.get(key)
                    if power is None:
                        power = powers[key] = self.pow_(values[key[0]], key[1])
                    term = power if term is None else _conv(term, power).items()
                for mono, v in term:
                    acc[mono] = acc.get(mono, 0) + v
            comps.append(self._canon(acc))
        return tuple(comps)

    def eq(self, a: PPoly, b: PPoly) -> bool:
        return a == b

    def is_zero(self, a: PPoly) -> bool:
        return not a

    # -- p-structure ----------------------------------------------------------------

    def frobenius_elt(self, a: PPoly) -> PPoly:
        """x -> x**p: multiplies exponents by p, fixes F_p coefficients."""
        return tuple((tuple(self.p * m for m in mono), c) for mono, c in a)

    def pth_root(self, a: PPoly) -> PPoly:
        """Inverse of x -> x**p; fails at the depth boundary."""
        out = []
        for mono, c in a:
            if any(m % self.p for m in mono):
                exps = self.exponents_of(mono)
                raise NoRoot(
                    f"monomial with exponents {exps} has no p-th root at depth {self.depth}"
                )
            out.append((tuple(m // self.p for m in mono), c))
        return tuple(out)

    def pth_root_mod_p(self, a: PPoly) -> PPoly:
        return self.pth_root(a)

    def degree(self, a: PPoly) -> Optional[Fraction]:
        if not a:
            return None
        return max(Fraction(sum(mono), self.unit) for mono, _ in a)

    def seminorm(self, a: PPoly) -> NormValue:
        d = self.degree(a)
        return NormValue.zero() if d is None else NormValue.p_power(d)

    def exact_divide_by_p(self, a: PPoly, k: int = 1) -> PPoly:
        raise CapabilityMissing("PerfPoly has characteristic p; division by p is undefined")

    # -- formatting --------------------------------------------------------------------

    def _var_name(self, i: int) -> str:
        return f"x{i}" if self.nvars > 1 else "x"

    def format_elt(self, a: PPoly) -> str:
        if not a:
            return "0"
        parts = []
        for mono, c in a:
            factors = [] if c == 1 and any(mono) else [str(c)]
            for i, m in enumerate(mono):
                if m:
                    q = Fraction(m, self.unit)
                    factors.append(
                        self._var_name(i) if q == 1 else f"{self._var_name(i)}^({q})"
                    )
            parts.append("*".join(factors) if factors else str(c))
        return " + ".join(parts)

    def parse_elt(self, text: str) -> PPoly:
        total = self.from_int(0)
        for raw in text.replace("-", "+-").split("+"):
            term = raw.strip()
            if not term:
                continue
            negate = term.startswith("-")
            if negate:
                term = term[1:].strip()
            coeff = 1
            exps = [Fraction(0)] * self.nvars
            try:
                for factor in term.split("*"):
                    factor = factor.strip()
                    if not factor:
                        raise MalformedConfig(f"empty factor in {raw!r}")
                    if factor[0] == "x":
                        name, _, power = factor.partition("^")
                        idx = int(name[1:]) if len(name) > 1 else 0
                        if not 0 <= idx < self.nvars:
                            raise MalformedConfig(f"unknown variable {name!r}")
                        exps[idx] += Fraction(power.strip("()")) if power else 1
                    else:
                        coeff *= int(factor)
            except ValueError as exc:
                raise MalformedConfig(f"bad term {raw!r} in {text!r}") from exc
            if negate:
                coeff = -coeff
            total = self.add(total, self.monomial(exps, coeff))
        return total

    def elt_to_json(self, a: PPoly) -> Any:
        return [[list(mono), c] for mono, c in a]
