"""Cyclotomic and quadratic coefficient fields with exact p-adic valuations.

``CyclotomicField(p, k)`` models Q(zeta) for zeta a primitive p**k-th root of
unity.  There is a unique prime above p, totally ramified of index
e = phi(p**k), and the valuation is normalized by v(p) = 1, so v takes values
in (1/e)Z.  ``GaussianField(p)`` is Q(i) = Q(zeta_4) with the places above an
arbitrary prime p made explicit.

Both store an element as one ``CVec(nums, den)``: e integer numerators on the
power basis 1, zeta, ..., zeta**(e-1) over one positive denominator, with
gcd(den, *nums) = 1, so zero is ((0,) * e, 1) and ``==`` and hashing are
structural.  ``PowerBasisField`` holds the one integer kernel they share: every
operation runs on the numerators with ``_conv``, ``_pow_int`` and
``_norm_cofactor`` and normalises once at the end.  ``_pow_int`` runs the
shared ``rings.power_ladder`` on ``_conv`` and ``_sqr``, which forms each cross
product a_i * a_j (i < j) once and doubles it, so a p-th power costs about
half a convolution per squaring.  An integer
element (zero past the constant term) in ``mul``, or zero in ``add`` and
``sub``, costs O(e): the other operand's numerators are scaled or returned,
with no convolution, tail reduction or lcm; the ghost ladders multiply by
``from_int(p**i)`` and sum from ``zero()`` on every level.  The kernel reads
its own conductor (``root_p``, ``root_k``), which for Q(i) is 2**2 whatever
the valuation prime p is.  ``inv`` multiplies by conjugates down the tower
Q(zeta_{p**k}) > Q(zeta_{p**(k-1)}) > ... > Q: each step's relative norm lies
in the next subfield, the last one is the rational norm N, and
1/a = den * cofactor / N.  Coefficients print as ``str(Fraction(n, den))``.

Valuations are computed without factoring norms: strip powers of p
coefficientwise, then read off the order in t = 1 - zeta of the mod-p residue
in O/p = F_p[t]/(t**e).  The order is the multiplicity of x = 1 as a root of
the residue r(x), and mod p (x - 1)**(p**a) = x**(p**a) - 1, so ``t_order``
reads it digit by digit in base p with divisions by x**(p**a) - 1, each a
pass of suffix sums along the exponent classes mod p**a: O(e * p * log_p e)
work, one coefficient sum for a unit, and no change-of-basis matrix.  p-th
roots mod p need no change of basis either: mod p the Frobenius sends zeta**j
to zeta**(p*j) and fixes F_p, so a class is a p-th power exactly when its
power-basis residue is supported on multiples of p, and its root reads every
p-th coefficient (``mod_p_root_digits`` on residue digits, ``mod_p_root`` on
elements).  An integer threshold v(a) >= k needs no valuation at all: it is
p**k-divisibility of the coefficients in Z_(p) (``valuation_at_least``).

``CycloModPM`` is the truncation O/p**M: a ``rings.TruncatedRing`` whose
elements are ``TruncVec``s of e digits under the shared precision rule.  Its
digit product is not ``_conv``: the digits are bounded by p**M, so the
product is one big-integer product of the packed digits (Kronecker
substitution, see the class), and CPython's C multiply does the
convolution.  The field side keeps the zero-skipping schoolbook loop:
``CVec`` numerators are signed and unbounded, so there is no slot width to
pack them at.  So do the residue helpers ``pow_digits_mod`` and
``mod_p_root_digits``, which work mod p or mod p**2.  On the p = 2 tower
a packed variant of them ran x1.1-2.1 (roots) and x1.9-20 (b**p mod p**2,
e = 4..64) as fast per call, yet the numberfield benchmark, which runs
them, read the same within noise (one 15-s pair at seed 301: 9115 -> 9353
ops/s, op_p99_ms 0.522 -> 0.532), so they stay as they are.  CycloModPM's
own products ran x4-9 (Z[zeta_32]/2**4, e = 16) and x1.1-1.5
(Z[zeta_9]/3**3) as fast as on ``_conv`` (timeit, three runs on a shared
2-CPU host).  The valuation is ``integer_valuation`` of the digits and
``_reduce_tail`` folds digits past e; its ``cover``, set once, is the field,
reached by the balanced digits, each in (-p**prec/2, p**prec/2], over 1.

Every Q(zeta_{p**k}), and so every Z[zeta]/p**M, has degree e at most
``_MAX_DEGREE``; a larger k is refused before any list or power is built.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    CapabilityMissing,
    IntegralityViolation,
    MalformedConfig,
    NoRoot,
    _quoted,
)
from .rings import Ring, TruncatedRing, TruncVec, check_prime, power_ladder, rational, vp_int


class CVec(NamedTuple):
    """The field element nums / den on the power basis, in canonical form:
    den > 0 and gcd(den, *nums) = 1."""

    nums: Tuple[int, ...]
    den: int


def _canon(nums: Sequence[int], den: int) -> CVec:
    """The canonical form of nums / den, for any nonzero integer den."""
    if den == 1:
        return CVec(tuple(nums), 1)
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return CVec(tuple(nums), den)
    return CVec(tuple(c // g for c in nums), den // g)


def _add(a: CVec, b: CVec, sign: int) -> CVec:
    """a + sign * b, for sign = 1 or -1."""
    (x, dx), (y, dy) = a, b
    if dx == dy:
        return _canon([s + sign * t for s, t in zip(x, y)], dx)
    g = math.gcd(dx, dy)
    mx, my = dy // g, sign * dx // g
    return _canon([s * mx + t * my for s, t in zip(x, y)], dx * mx)


def _coeff_text(n: int, den: int) -> str:
    """str(Fraction(n, den)), without building the Fraction."""
    if den == 1:
        return str(n)
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _reduce_tail(coeffs: list, e: int, p: int, step: int) -> list:
    """Rewrite powers zeta**d with d >= e in place, using the minimal
    polynomial x**e = -(1 + x**step + ... + x**((p-2)*step))."""
    for d in range(len(coeffs) - 1, e - 1, -1):
        c = coeffs[d]
        if c:
            coeffs[d] = 0
            base = d - e
            for j in range(p - 1):
                coeffs[base + j * step] -= c
    del coeffs[e:]
    return coeffs


def _over_x_power_minus_one(r: List[int], q: int, p: int) -> Optional[List[int]]:
    """s with r = (x**q - 1) * s mod p, or None when x**q - 1 does not divide
    r; r is reduced mod p.

    Coefficient i of s is r_(i+q) + r_(i+2q) + ..., a suffix sum along the
    exponents congruent to i mod q, and the remainder at x**i, i < q, is
    r_i + s_i.
    """
    s = r[q:]
    for i in range(len(s) - q - 1, -1, -1):
        s[i] += s[i + q]
    if any(r[len(s) : q]) or any((a + b) % p for a, b in zip(r[:q], s)):
        return None
    return [v % p for v in s]


def _conv(a: Sequence[int], b: Sequence[int], e: int, p: int, step: int) -> list:
    """Product of two integer vectors in Z[x] / Phi_{p**k}(x)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return _reduce_tail(out, e, p, step)


def _sqr(a: Sequence[int], e: int, p: int, step: int) -> list:
    """a * a in Z[x] / Phi_{p**k}(x), equal to ``_conv(a, a, ...)``: each
    product a_i * a_j with i < j is formed once and doubled, the squares sit
    on the diagonal, and zero entries are skipped."""
    nonzero = [(i, x) for i, x in enumerate(a) if x]
    out = [0] * (2 * len(a) - 1)
    for s, (i, x) in enumerate(nonzero):
        out[i + i] += x * x
        x2 = x + x
        for j, y in nonzero[s + 1 :]:
            out[i + j] += x2 * y
    return _reduce_tail(out, e, p, step)


def _pow_int(v: Sequence[int], n: int, e: int, p: int, step: int, q: Optional[int] = None) -> list:
    """v ** n in Z[x] / Phi_{p**k}(x) for n >= 1 on ``rings.power_ladder``,
    with the squarings on ``_sqr`` and each product reduced mod q when q is
    given."""
    mul, sqr = (lambda a, b: _conv(a, b, e, p, step)), (lambda a: _sqr(a, e, p, step))
    if not q:
        return power_ladder(list(v), n, mul, sqr)
    return power_ladder(
        list(v), n, lambda a, b: [c % q for c in mul(a, b)], lambda a: [c % q for c in sqr(a)]
    )


def _conjugate(v: Sequence[int], m: int, p: int, k: int) -> list:
    """The image of v under zeta -> zeta**m, for m prime to p."""
    n = p**k
    out = [0] * n
    for i, c in enumerate(v):
        if c:
            out[i * m % n] = c
    return _reduce_tail(out, len(v), p, p ** (k - 1))


def _norm_cofactor(v: List[int], p: int, k: int) -> Tuple[List[int], int]:
    """(c, N) with v * c = N in Z[zeta_{p**k}], N the norm of v to Q.

    The product of the conjugates of v under zeta -> zeta**(1 + j*p**(k-1)),
    0 <= j < p, is its relative norm to Q(zeta**p), whose power-basis support
    lies on multiples of p; recurse on that subfield.  At k = 1 the
    conjugates are zeta -> zeta**j, 1 <= j < p, and the norm lies in Q.
    """
    step = p ** (k - 1)
    e = len(v)
    exps = range(2, p) if k == 1 else [1 + j * step for j in range(1, p)]
    cof = [1] + [0] * (e - 1)
    for m in exps:
        cof = _conv(cof, _conjugate(v, m, p, k), e, p, step)
    norm = _conv(v, cof, e, p, step)
    if k == 1:
        if any(norm[1:]):
            raise IntegralityViolation("norm to Q has an irrational part")
        return cof, norm[0]
    if any(c for i, c in enumerate(norm) if i % p):
        raise IntegralityViolation(f"relative norm to Q(zeta_{p}^{k - 1}) left the subfield")
    sub_cof, total = _norm_cofactor(norm[::p], p, k - 1)
    up = [0] * e
    up[::p] = sub_cof
    return _conv(cof, up, e, p, step), total


# twice the largest degree that any test, suite or benchmark builds: 2**17,
# at Q(zeta_(2**18))
_MAX_DEGREE = 1 << 18


@lru_cache(maxsize=None)
def cyclotomic_field(p: int, k: int) -> "CyclotomicField":
    return CyclotomicField(p, k)


class PowerBasisField(Ring):
    """Q(zeta) for zeta a primitive root_p**root_k-th root of unity, on the
    power basis, with elements ``CVec`` and the shared integer kernel.

    Subclasses fix the valuation prime ``p`` (which need not be ``root_p``),
    the valuation and the text form.
    """

    q_algebra = True

    def __init__(self, root_p: int, root_k: int):
        self.root_p, self.root_k = root_p, root_k
        self.step = root_p ** (root_k - 1)
        self.e = self.step * (root_p - 1)  # the field degree

    # -- construction -------------------------------------------------------

    def from_coeffs(self, coeffs: Sequence) -> CVec:
        """The element with these power-basis coefficients (ints, Fractions or
        their text); a longer list is reduced by the minimal polynomial."""
        nums, den = list(coeffs), 1
        if not all(type(c) is int for c in nums):
            fracs = [Fraction(c) for c in nums]
            den = math.lcm(*(x.denominator for x in fracs))
            nums = [x.numerator * (den // x.denominator) for x in fracs]
        if len(nums) > self.e:
            _reduce_tail(nums, self.e, self.root_p, self.step)
        nums += [0] * (self.e - len(nums))
        return _canon(nums, den)

    def from_int(self, n: int) -> CVec:
        return CVec((int(n),) + (0,) * (self.e - 1), 1)

    def coeffs(self, a: CVec) -> Tuple[Fraction, ...]:
        """The power-basis coefficients of a as Fractions."""
        return tuple(Fraction(n, a.den) for n in a.nums)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: CVec, b: CVec) -> CVec:
        if not any(b.nums):
            return a
        if not any(a.nums):
            return b
        return _add(a, b, 1)

    def sub(self, a: CVec, b: CVec) -> CVec:
        if not any(b.nums):
            return a
        if not any(a.nums):
            return self.neg(b)
        return _add(a, b, -1)

    def neg(self, a: CVec) -> CVec:
        return CVec(tuple(-s for s in a.nums), a.den)

    def mul(self, a: CVec, b: CVec) -> CVec:
        """The product; an integer element (zero past the constant term) on
        either side scales the other's numerators instead of a convolution."""
        if not any(a.nums[1:]):
            return _canon([a.nums[0] * s for s in b.nums], a.den * b.den)
        if not any(b.nums[1:]):
            return _canon([b.nums[0] * s for s in a.nums], a.den * b.den)
        return _canon(_conv(a.nums, b.nums, self.e, self.root_p, self.step), a.den * b.den)

    def pow_(self, a: CVec, n: int) -> CVec:
        if n <= 0:
            return super().pow_(a, n)
        return _canon(_pow_int(a.nums, n, self.e, self.root_p, self.step), a.den**n)

    def pow_digits_mod(self, digits: Sequence[int], n: int, q: int) -> Tuple[int, ...]:
        """The power-basis digits, each in 0..q-1, of y**n mod q for n >= 1
        and y in Z[zeta] with these digits: one ``_pow_int`` reduced mod q."""
        return tuple(_pow_int(digits, n, self.e, self.root_p, self.step, q))

    def scalar_mul(self, q, a: CVec) -> CVec:
        q = Fraction(q)
        return _canon([q.numerator * s for s in a.nums], q.denominator * a.den)

    def eq(self, a: CVec, b: CVec) -> bool:
        return a == b

    def is_zero(self, a: CVec) -> bool:
        return not any(a.nums)

    def exact_divide_by_p(self, a: CVec, k: int = 1) -> CVec:
        return _canon(a.nums, a.den * self.p**k)

    def inv(self, a: CVec) -> CVec:
        """Multiplicative inverse: 1/a = den * c / N for a = nums / den and
        nums * c = N the norm of nums to Q (see ``_norm_cofactor``)."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        cof, norm = _norm_cofactor(list(a.nums), self.root_p, self.root_k)
        return _canon([a.den * c for c in cof], norm)

    def div(self, a: CVec, b: CVec) -> CVec:
        return self.mul(a, self.inv(b))

    # -- JSON ------------------------------------------------------------------

    def elt_to_json(self, a: CVec) -> Any:
        return [_coeff_text(n, a.den) for n in a.nums]


class CyclotomicField(PowerBasisField):
    """Q(zeta_{p**k}) with the valuation at the unique prime above p."""

    kind = "Qzeta"
    config_keys = ("p", "k")

    def __init__(self, p: int, k: int):
        self.p = check_prime(p)
        if not isinstance(k, int) or k < 1:
            raise MalformedConfig(f"conductor exponent k must be a positive integer, got {k!r}")
        # k past the bound's bit length gives e >= 2**(k - 1) > _MAX_DEGREE
        if k > _MAX_DEGREE.bit_length() or (p - 1) * p ** (k - 1) > _MAX_DEGREE:
            raise MalformedConfig(
                f"conductor exponent k={k} gives field degree e = {p - 1}*{p}^{k - 1}, "
                f"above the bound {_MAX_DEGREE}"
            )
        self.k = k
        super().__init__(p, k)

    # -- construction -------------------------------------------------------

    def zeta_power(self, j: int) -> CVec:
        j %= self.p ** self.k
        return self.from_coeffs([0] * j + [1])

    def zeta(self) -> CVec:
        return self.zeta_power(1)

    def uniformizer(self) -> CVec:
        """t = 1 - zeta, with v(t) = 1/e."""
        return self.sub(self.one(), self.zeta())

    # -- integrality ----------------------------------------------------------

    def is_integral(self, a: CVec) -> bool:
        """Membership in Z[zeta] (denominator-free over the power basis)."""
        return a.den == 1

    def integral_coeffs(self, a: CVec) -> Tuple[int, ...]:
        if a.den != 1:
            raise IntegralityViolation(f"element is not in Z[zeta]: {self.format_elt(a)}")
        return a.nums

    def residue_coeffs_mod_p(self, a: CVec) -> Tuple[int, ...]:
        """Canonical power-basis coefficients of a mod p, for p-integral a."""
        p = self.p
        if a.den % p == 0:
            raise IntegralityViolation(f"element has p in a denominator: {self.format_elt(a)}")
        inv = pow(a.den, -1, p)
        return tuple(n * inv % p for n in a.nums)

    # -- valuation -------------------------------------------------------------

    def t_order(self, residue: Sequence[int]) -> Optional[int]:
        """Order in t of a nonzero mod-p class; None for the zero class.

        The order is the multiplicity of x = 1 as a root of the residue r(x),
        of degree below e, and mod p (x - 1)**q = x**q - 1 for q a power of p.
        So r is divided by x**q - 1 while it can be, with q falling from the
        largest power of p below e: at most p - 1 divisions per q, the
        base-p digits of the order, each one pass over r.
        """
        p = self.p
        r = [c % p for c in residue]
        if not any(r):
            return None
        if sum(r) % p:
            return 0  # r(1) is not 0: a unit
        q, order = 1, 0
        while q * p < len(r):
            q *= p
        while q:
            s = _over_x_power_minus_one(r, q, p)
            if s is None:
                q //= p
            else:
                r, order = s, order + q
        return order

    def valuation(self, a: CVec) -> Optional[Fraction]:
        """v(a) in (1/e)Z, normalized with v(p) = 1; None for a = 0."""
        if self.is_zero(a):
            return None
        v = self.integer_valuation(a.nums)
        shift = vp_int(a.den, self.p)
        return v - shift if shift else v

    def valuation_at_least(self, a: CVec, k: int) -> bool:
        """v(a) >= k for an integer k, True for a = 0, without a valuation:
        p**k divides every power-basis coefficient in Z_(p).  This is exact
        because the power basis is a Z-basis of Z[zeta], so a Z_(p)-basis
        of the valuation ring, whose ideal of valuations >= k is p**k."""
        need = k + vp_int(a.den, self.p)
        if need <= 0:
            return True
        q = self.p**need
        return all(c % q == 0 for c in a.nums)

    def integer_valuation(self, y: Sequence[int]) -> Fraction:
        """v of the nonzero element of Z[zeta] with power-basis digits y."""
        whole = 0
        while all(c % self.p == 0 for c in y):
            y = [c // self.p for c in y]
            whole += 1
        return Fraction(whole * self.e + self.t_order(y), self.e)

    # -- roots mod p --------------------------------------------------------------

    def mod_p_root_digits(self, residue: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """The power-basis digits of the p-th root mod p, of degree below
        e/p, of the class whose residue digits (each in 0..p-1) are given;
        None when the class is not a p-th power mod p.

        Mod p, Phi_{p**k} = (x - 1)**e and c(zeta)**p = c(zeta**p) for c over
        F_p, so the p-th powers in O/p are spanned by the zeta**(p*j) with
        p*j < e.  A class has a root exactly when its digits are supported on
        multiples of p, and the root reads every p-th digit (the Frobenius
        index map).  The root is checked on the digits: root**p = residue
        mod p, one ``_pow_int`` reduced mod p.
        """
        p, e = self.p, self.e
        res = list(residue)
        root = res[::p]
        spread = [0] * e
        spread[::p] = root
        if res != spread:
            return None
        if _pow_int(root + [0] * (e - len(root)), p, e, p, self.step, p) != res:
            raise IntegralityViolation("constructed mod-p root failed verification")
        return tuple(root)

    def mod_p_root(self, a: CVec) -> CVec:
        """The p-th root of a mod p of power-basis degree below e/p; raises
        NoRoot when a is not a p-th power mod p.

        The root is ``mod_p_root_digits`` of the residue of a, as an element.
        A class without a root is named by its first t-index off pZ, one more
        than the t-order of its derivative in zeta, which is computed only
        then.
        """
        res = self.residue_coeffs_mod_p(a)
        root = self.mod_p_root_digits(res)
        if root is None:
            # d/dx sends c_i * t**i to -i * c_i * t**(i-1), so the order of
            # the derivative is one less than the first t-index off pZ
            i = self.t_order([j * c for j, c in enumerate(res)][1:]) + 1
            raise NoRoot(
                f"t-support index {i} is not a multiple of {self.p}; "
                "the class is not a p-th power mod p"
            )
        return self.from_coeffs(root)

    # -- embeddings ------------------------------------------------------------------

    def embed(self, a: CVec, target: "CyclotomicField") -> CVec:
        if target.p != self.p or target.k < self.k:
            raise CapabilityMissing(
                f"no embedding of conductor {self.p}^{self.k} into {target.p}^{target.k}"
            )
        stretch = self.p ** (target.k - self.k)
        out = [0] * target.e  # (e - 1) * stretch < target.e: no reduction
        out[::stretch] = a.nums
        return CVec(tuple(out), a.den)

    # -- formatting ----------------------------------------------------------------------

    def format_elt(self, a: CVec) -> str:
        return "[" + ", ".join(self.elt_to_json(a)) + "]"

    def parse_elt(self, text: str) -> CVec:
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        try:
            parts = [rational(s) for s in text.split(",")] if text else []
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedConfig(f"not a coefficient vector: {_quoted(text)}") from exc
        if len(parts) > self.e:
            raise MalformedConfig(
                f"coefficient vector longer than field degree {self.e}: {_quoted(text)}"
            )
        return self.from_coeffs(parts)


# the native struct code of each item size, read from struct rather than
# assumed: a packed digit slot is 2, 4 or 8 bytes wide
_SLOT_CODES = {struct.calcsize(code): code for code in "HILQ"}


class CycloModPM(TruncatedRing):
    """Z[zeta_{p**k}] / p**M: the digits are the coefficients on 1, zeta,
    ..., zeta**(e-1); digits past e fold in by the minimal polynomial.

    A digit product is one big-integer product (Kronecker substitution):
    each operand's e digits, all in [0, q) with q <= p**M, are packed into
    one integer at a slot of 2, 4 or 8 bytes, the narrowest whose width w
    has 2**w > e * (p**M - 1)**2, the largest value a slot of the product
    takes (at zeta**(e-1), which sums e products).  So no slot carries into
    the next, and the 2e - 1 slots of the product are its convolution,
    unpacked by the same native struct code; they are folded by Phi_{p**k}
    (one negacyclic pass at p = 2) and reduced mod q.  A ring whose bound
    passes 8 bytes multiplies by ``_conv`` instead.  Powers run the shared
    ``rings.power_ladder`` on this product, reduced mod q at every step.
    """

    kind = "ZzetaMod"
    config_keys = ("p", "k", "M")
    scalar = False
    json_key = "coeffs"

    def __init__(self, p: int, k: int, M: int):
        super().__init__(p, M)
        self.k = k
        self.field = self.cover = cyclotomic_field(p, k)
        self.e = e = self.field.e
        bound = e * (self.p**M - 1) ** 2
        size = next((s for s in (2, 4, 8) if s in _SLOT_CODES and bound < 1 << 8 * s), None)
        # (pack e digits, unpack 2e - 1 slots), or None: multiply by _conv
        self._slots = None if size is None else (
            struct.Struct(f"{e}{_SLOT_CODES[size]}"),
            struct.Struct(f"{2 * e - 1}{_SLOT_CODES[size]}"),
        )

    def _reduce(self, seq: Iterable[int], prec: int) -> TruncVec:
        q = self.p**prec
        lst = [int(c) % q for c in seq]
        if len(lst) > self.e:
            _reduce_tail(lst, self.e, self.p, self.field.step)
            lst = [c % q for c in lst]
        lst += [0] * (self.e - len(lst))
        return TruncVec(tuple(lst), prec)

    def _mul(self, a: Tuple[int, ...], b: Tuple[int, ...], q: int) -> Tuple[int, ...]:
        e, p, step = self.e, self.p, self.field.step
        if self._slots is None:
            return tuple([c % q for c in _conv(a, b, e, p, step)])
        pack, unpack = self._slots
        order = sys.byteorder
        x = int.from_bytes(pack.pack(*a), order)
        y = x if a is b else int.from_bytes(pack.pack(*b), order)
        c = unpack.unpack((x * y).to_bytes(unpack.size, order))
        if p == 2:  # Phi = x**e + 1: slot e + i is subtracted from slot i
            return tuple([(s - t) % q for s, t in zip(c, c[e:] + (0,))])
        return tuple([s % q for s in _reduce_tail(list(c), e, p, step)])

    def _pow(self, a: Tuple[int, ...], n: int, q: int) -> Tuple[int, ...]:
        return power_ladder(a, n, lambda x, y: self._mul(x, y, q))

    def valuation(self, a: TruncVec) -> Optional[Fraction]:
        return self.field.integer_valuation(a.coeffs) if any(a.coeffs) else None

    def lift_to_cover(self, a: TruncVec) -> CVec:
        q = self.p**a.prec
        half = q >> 1  # 2d <= q exactly when d <= q // 2: ``rings.balanced``, inline
        return CVec(tuple([d if d <= half else d - q for d in a.coeffs]), 1)

    def reduce_from_cover(self, a: CVec, prec: int) -> TruncVec:
        return self._reduce(self.field.integral_coeffs(a), prec)


def _two_square_decomposition(p: int) -> Tuple[int, int]:
    u = 1
    while u * u <= p:
        w = math.isqrt(p - u * u)
        if u * u + w * w == p:
            return u, w
        u += 1
    raise CapabilityMissing(f"{p} is not a sum of two squares")


class GaussianField(PowerBasisField):
    """Q(i) with the sup-seminorm over the places above p.

    Elements are ``CVec`` over the basis 1, i, and the arithmetic is the
    kernel of Q(zeta_4), where i**2 reduces to -1, whatever p is.  For p = 2
    (ramified) and p = 3 mod 4 (inert) there is one place and the seminorm is
    multiplicative.  For p = 1 mod 4 the prime splits as p = pi * conj(pi);
    the seminorm is the maximum over the two places, which is
    power-multiplicative but not multiplicative.
    """

    kind = "Qi"

    def __init__(self, p: int):
        self.p = check_prime(p)
        super().__init__(2, 2)
        self.split = p % 4 == 1
        if self.split:
            u, w = _two_square_decomposition(p)
            self.pi = (u, w)
            self.pibar = (u, -w)

    def from_pair(self, a, b) -> CVec:
        return self.from_coeffs((a, b))

    def imag_unit(self) -> CVec:
        return CVec((0, 1), 1)

    @staticmethod
    def _divide_out(z: Tuple[int, int], piv: Tuple[int, int], p: int) -> int:
        count = 0
        x, y = z
        u, w = piv
        while x or y:
            rx, ry = x * u + y * w, y * u - x * w
            if rx % p or ry % p:
                break
            x, y = rx // p, ry // p
            count += 1
        return count

    def place_valuations(self, a: CVec) -> dict:
        """Exact valuations at the places above p, None meaning +infinity."""
        if self.is_zero(a):
            if self.split:
                return {"pi": None, "pibar": None}
            return {"p": None}
        (x, y), d = a
        shift = vp_int(d, self.p)
        if not self.split:
            # v(x + yi) = v_p(x**2 + y**2) / 2
            return {"p": Fraction(vp_int(x * x + y * y, self.p) - 2 * shift, 2)}
        return {
            "pi": Fraction(self._divide_out((x, y), self.pi, self.p) - shift),
            "pibar": Fraction(self._divide_out((x, y), self.pibar, self.p) - shift),
        }

    def valuation(self, a: CVec) -> Optional[Fraction]:
        vals = [v for v in self.place_valuations(a).values()]
        if any(v is None for v in vals):
            return None
        return min(vals)

    def format_elt(self, a: CVec) -> str:
        re_, im = self.coeffs(a)
        if im == 0:
            return str(re_)
        if im == 1:
            itxt = "i"
        elif im == -1:
            itxt = "-i"
        else:
            itxt = f"{im}i"
        if re_ == 0:
            return itxt
        return f"{re_}+{itxt}" if im > 0 else f"{re_}{itxt}"

    def parse_elt(self, text: str) -> CVec:
        """Forms like '2', '1/2', 'i', '-i', '3i' (= 3*i), '2/3i', '1/2+3i'."""
        # spaces may surround an operator, but not split a numeral
        s = re.sub(r"(?<=[0-9])\*i$", "i", re.sub(r"\s*([-+*/])\s*", r"\1", text.strip()))
        if not s:
            raise MalformedConfig("empty Gaussian number")
        try:
            if "i" not in s:
                return self.from_pair(rational(s), 0)
            s = s[:-1] if s.endswith("i") else s
            if "i" in s:
                raise MalformedConfig(f"not a Gaussian number: {_quoted(text)}")
            split_at = None
            for idx in range(len(s) - 1, 0, -1):
                if s[idx] in "+-" and s[idx - 1] not in "/+-":
                    split_at = idx
                    break
            if split_at is None:
                imag = s if s not in ("", "+", "-") else s + "1"
                return self.from_pair(0, rational(imag))
            re_txt, im_txt = s[:split_at], s[split_at:]
            if im_txt in ("+", "-"):
                im_txt += "1"
            return self.from_pair(rational(re_txt), rational(im_txt))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedConfig(f"not a Gaussian number: {_quoted(text)}") from exc


class CyclotomicTower:
    """The tower Q(zeta_{p**3}) in Q(zeta_{p**4}) in ... used for root
    sequences: level n holds the field Q(zeta_{p**(n+2)}), the smallest layer
    that carries an exact element x_n of valuation p**(-n) satisfying the
    root-sequence congruences.

    For p = 2 level 1 is Q(zeta_8), where zeta + 1/zeta is an exact square
    root of 2.  For p = 3 level 1 is Q(zeta_27): one conductor step more than
    the valuation alone requires, because Z[zeta_9] contains elements of
    valuation 1/3 but none of them cubes to 3 mod 9 (cubing residues mod 3 is
    t -> t**3 on the uniformizer basis, so unit cubes have 3-divisible
    t-support, and the unit (1 - zeta_9)**6 / 3 does not).
    """

    def __init__(self, p: int):
        self.p = check_prime(p)
        self.offset = 2

    def conductor_exponent(self, level: int) -> int:
        return level + self.offset

    def field(self, level: int) -> CyclotomicField:
        return cyclotomic_field(self.p, self.conductor_exponent(level))

    def embed_up(self, level_from: int, level_to: int, a: CVec) -> CVec:
        return self.field(level_from).embed(a, self.field(level_to))

    def check_uniformizer_purity(self, level: int) -> bool:
        """(1 - zeta_next)**p = 1 - zeta mod p, exactly: embedded classes have
        p-divisible t-support one level up, which is what makes mod-p roots
        constructive in the tower."""
        lo, hi = self.field(level), self.field(level + 1)
        s = self.embed_up(level, level + 1, lo.uniformizer())
        t_pow = hi.pow_(hi.uniformizer(), self.p)
        return hi.valuation_at_least(hi.sub(s, t_pow), 1)
