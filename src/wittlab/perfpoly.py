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

Products, powers and char-p Witt ops run on one kernel over packed
monomials.  A monomial with stored exponents m_0, ..., m_{nvars-1} becomes
the integer key sum_j m_j * R**j.  The radix R is one more than the largest
exponent the call can produce: the sum of the operands' largest exponents
for ``mul``, n times the operand's for ``pow_``, and for ``char_p_witt_op``
the largest input exponent times the largest total degree of a term of the
structure polynomials it reads.  No exponent reaches R, so no digit carries
into the next variable: a product of monomials is one addition of keys, and
x -> x**(p**s) multiplies every key by p**s.  So x**n, n = p**s * r with p
not dividing r, is the r-th power on ``rings.power_ladder`` and then one such
shift.  Elements stay sorted tuples of (exponent tuple, coefficient); each
call packs its operands once, and unpacks and sorts its result once.

Char-p Witt ops reach this ring through its override of
``Ring.char_p_witt_op``.  It refuses vectors longer than the cached range
(``univ.structure_cap``), and evaluates the mod-p structure polynomial of
each component from one plan per length, kind and arity (``_plan``).  It
packs each input component once and keeps one cache of powers, keyed by
(operand, component, exponent), across all output components.  Every
partial term product is reduced mod p, its zero terms dropped, and each
term's last factor is multiplied straight into the component's accumulator,
which is reduced, unpacked and sorted once.  Reduction mod p is a ring map
and elements are canonical, so this is the element that evaluating the
polynomial term by term in ring arithmetic would give.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import (
    CapabilityMissing,
    DepthExceeded,
    MalformedConfig,
    NoRoot,
    _quoted,
)
from .rings import Ring, integer, power_ladder, rational, size
from .univ import structure_cap, structure_poly_mod_p

Monomial = Tuple[int, ...]
PPoly = Tuple[Tuple[Monomial, int], ...]
Packed = List[Tuple[int, int]]  # (sum_j m_j * radix**j, coefficient) pairs

_ONE = ((0, 1),)  # the packed constant 1

# a packed monomial has nvars digits of depth * log2(p) bits; the tests, suites
# and benchmark reach 3 and 8; a 16-term length-3 mul at the bounds took 0.15 s
MAX_NVARS = 2**6
MAX_DEPTH = 2**8


def _top(a: PPoly) -> int:
    """The largest exponent, in units of 1/p**depth, in any variable of a."""
    return max((m for mono, _ in a for m in mono), default=0)


def _mul_into(acc: Dict[int, int], a: Packed, b: Packed) -> Dict[int, int]:
    """Add the product of two packed polynomials into acc, coefficients
    unreduced: a product of monomials is one addition of keys."""
    get = acc.get
    for ka, ca in a:
        for kb, cb in b:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _reduced(terms: Dict[int, int], p: int) -> Packed:
    """The terms with coefficients reduced mod p, zeros dropped."""
    return [(k, r) for k, c in terms.items() if (r := c % p)]


def _times(a: Packed, b: Packed, p: int) -> Packed:
    """The product of two packed polynomials, reduced mod p."""
    return _reduced(_mul_into({}, a, b), p)


def _power(a: Packed, n: int, p: int) -> Packed:
    """a ** n for n = p**s * r >= 1 with p not dividing r: the r-th power on
    ``rings.power_ladder``, then s Frobenius maps at once, which multiply
    every key by p**s and fix the F_p coefficients."""
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    result = power_ladder(a, n, lambda x, y: _times(x, y, p))
    shift = p**s
    return [(k * shift, c) for k, c in result] if s else result


@lru_cache(maxsize=None)
def _plan(p: int, length: int, kind: str, arity: int) -> Tuple[tuple, int]:
    """The mod-p structure polynomials of ``kind`` at components
    0..length-1 over ``arity`` vectors: per component, its terms in sorted
    exponent order as (coefficient, ((operand, component, exponent), ...)),
    the coefficient None where it is a 1 that multiplies something; and the
    largest total degree of a term."""
    comps = []
    for i in range(length):
        slots = [(a, j) for a in range(arity) for j in range(i + 1)]
        terms = []
        for exps, c in sorted(structure_poly_mod_p(p, i, kind).terms.items()):
            keys = tuple((*slots[idx], e) for idx, e in enumerate(exps) if e)
            terms.append((None if c == 1 and keys else c, keys))
        comps.append(tuple(terms))
    degree = max(sum(e for _, _, e in keys) for terms in comps for _, keys in terms)
    return tuple(comps), degree


def _signed_terms(text: str) -> List[str]:
    """The terms of a sum, split before each sign outside parentheses (so
    ``x^(-1/2)`` stays one term); a ``-`` stays with its term.  Parentheses
    that close before they open, or stay open, are refused."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch in "+-" and not depth:
            terms.append(text[start:i])
            start = i + (ch == "+")
    if depth:
        raise MalformedConfig(f"unbalanced parentheses in {_quoted(text)}")
    terms.append(text[start:])
    return terms


class PerfPolyRing(Ring):
    kind = "PerfPoly"
    config_keys = ("p", "nvars", "depth")
    char_p = True
    p_torsion_free = False

    def __init__(self, p: int, nvars: int, depth: int):
        super().__init__(p)
        self.nvars = size("PerfPoly nvars", nvars, 1, MAX_NVARS)
        self.depth = size("PerfPoly depth", depth, 0, MAX_DEPTH)
        self.unit = p ** depth  # stored exponents are multiples of 1/unit

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
            if q < 0:
                raise MalformedConfig(f"exponent {q} is negative")
            scaled = q * self.unit
            if scaled.denominator != 1:
                raise DepthExceeded(
                    f"exponent {q} is not a multiple of 1/{self.p}^{self.depth}"
                )
            mono.append(int(scaled))
        return self._canon({tuple(mono): coeff})

    # -- arithmetic --------------------------------------------------------------

    def add(self, a: PPoly, b: PPoly) -> PPoly:
        terms: Dict[Monomial, int] = dict(a)
        for mono, c in b:
            terms[mono] = terms.get(mono, 0) + c
        return self._canon(terms)

    def neg(self, a: PPoly) -> PPoly:
        return tuple((mono, self.p - c) for mono, c in a)

    def _pack(self, a: PPoly, radix: int) -> Packed:
        places = [radix**j for j in range(self.nvars)]
        return [(sum(map(operator.mul, mono, places)), c) for mono, c in a]

    def _unpack(self, terms: Packed, radix: int) -> PPoly:
        """The canonical element of packed terms whose exponents are all below
        radix and whose coefficients are reduced: unpacked, then sorted."""
        out = []
        for k, c in terms:
            mono = []
            for _ in range(self.nvars):
                k, m = divmod(k, radix)
                mono.append(m)
            out.append((tuple(mono), c))
        out.sort()
        return tuple(out)

    def mul(self, a: PPoly, b: PPoly) -> PPoly:
        radix = _top(a) + _top(b) + 1
        return self._unpack(_times(self._pack(a, radix), self._pack(b, radix), self.p), radix)

    def pow_(self, a: PPoly, n: int) -> PPoly:
        """a ** n on the packed kernel (``_power``), at radix n * top + 1."""
        if n <= 0:
            return super().pow_(a, n)
        radix = n * _top(a) + 1
        return self._unpack(_power(self._pack(a, radix), n, self.p), radix)

    def char_p_witt_op(self, kind: str, vecs: Sequence[Any]) -> Tuple[PPoly, ...]:
        """Component i is the mod-p structure polynomial ``kind`` at the
        first i+1 components of each vector, evaluated on the packed kernel
        as the module docstring describes.  Lengths beyond the cached range
        are refused rather than approximated."""
        p, length, cap = self.p, vecs[0].length, structure_cap(self.p)
        if length > cap + 1:
            raise CapabilityMissing(
                f"characteristic-p {kind} is cached up to length {cap + 1} "
                f"at p={p}; got length {length}"
            )
        plan, degree = _plan(p, length, kind, len(vecs))
        radix = max(_top(c) for v in vecs for c in v.components) * degree + 1
        powers: Dict[Tuple[int, int, int], Packed] = {
            (a, j, 1): self._pack(c, radix)
            for a, v in enumerate(vecs)
            for j, c in enumerate(v.components)
        }
        comps = []
        for terms in plan:
            acc: Dict[int, int] = {}
            for c, keys in terms:
                fs = []
                for key in keys:
                    power = powers.get(key)
                    if power is None:
                        a, j, e = key
                        power = powers[key] = _power(powers[a, j, 1], e, p)
                    fs.append(power)
                term = fs.pop(0) if c is None else [(0, c)]
                last = fs.pop() if fs else _ONE
                for f in fs:
                    term = _times(term, f, p)
                _mul_into(acc, term, last)
            comps.append(self._unpack(_reduced(acc, p), radix))
        return tuple(comps)

    def eq(self, a: PPoly, b: PPoly) -> bool:
        return a == b

    # -- p-structure ----------------------------------------------------------------

    def pth_root(self, a: PPoly) -> PPoly:
        """Inverse of x -> x**p; fails at the depth boundary."""
        out = []
        for mono, c in a:
            if any(m % self.p for m in mono):
                exps = tuple(Fraction(m, self.unit) for m in mono)
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

    def valuation(self, a: PPoly) -> Optional[Fraction]:
        """-deg a, so the seminorm is p**(deg a)."""
        d = self.degree(a)
        return None if d is None else -d

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
        """The sum of the signed terms of ``text``; a variable is read only
        under the name ``format_elt`` writes for it."""
        names = {self._var_name(i): i for i in range(self.nvars)}
        total = self.from_int(0)
        for raw in _signed_terms(text):
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
                        raise MalformedConfig(f"empty factor in {_quoted(raw)}")
                    if factor[0] == "x":
                        name, caret, power = factor.partition("^")
                        if name not in names:
                            integer(name[1:] or "0")  # an index outside the grammar: bad term
                            raise MalformedConfig(f"unknown variable {_quoted(name)}")
                        # an exponent is q or (q), with one pair of parentheses
                        inner = power[1:-1] if power[:1] + power[-1:] == "()" else power
                        exps[names[name]] += rational(inner) if caret else 1
                    else:
                        coeff *= integer(factor)
            except ValueError as exc:
                raise MalformedConfig(f"bad term {_quoted(raw)} in {_quoted(text)}") from exc
            if negate:
                coeff = -coeff
            total = self.add(total, self.monomial(exps, coeff))
        return total

    def elt_to_json(self, a: PPoly) -> Any:
        return [[list(mono), c] for mono, c in a]
