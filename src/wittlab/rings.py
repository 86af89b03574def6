"""Base coefficient rings.

Everything downstream manipulates ring elements only through the `Ring`
interface, so vectors never need to know whether a component is an `int`, a
`Fraction`, a truncated residue, or a cyclotomic coefficient vector.  A ring
instance fixes the prime p once; the prime is part of the ring, not of the
element.

Capability flags drive dispatch:

  * `char_p`            -- p = 0 in the ring (componentwise Frobenius etc.)
  * `q_algebra`         -- division by p is exact and total
  * `p_torsion_free`    -- multiplication by p is injective, so the ghost map
                           is too: the ring is its own cover and Witt
                           operations transport through ghost coordinates in
                           place (Z on ints, Q and the number fields on their
                           own elements)
  * `truncated`         -- elements carry a finite digit budget; true exactly
                           for the subclasses of `TruncatedRing`, which lift
                           to an integral cover (Z/p**M to Z, Z[zeta]/p**M to
                           integral elements of Q(zeta)) and reduce back

No transport runs over Q unless its ring is Q.

Truncated rings use per-element precision: an element "known mod p**k" records
k, binary operations take the minimum of the budgets, exact division by p
costs one digit, and p-power maps a -> a**(p**l) gain l digits (a value known
mod p**k determines its p**l-th power mod p**(k+l)).  Operations raise
`PrecisionExhausted` rather than produce an element with no digits at all.
`TruncatedRing` owns the digit layout of Z/p**M (here) and Z[zeta]/p**M (in
`cyclotomic`): the budget, the text and JSON forms, and the digit view that
generic code reads instead of element payloads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .errors import (
    CapabilityMissing,
    MalformedConfig,
    NotDivisible,
    NotEnumerable,
    PrecisionExhausted,
    RingMismatch,
)
from .norms import NormValue


def check_prime(p: int) -> int:
    if not isinstance(p, int) or p < 2:
        raise MalformedConfig(f"p must be an integer >= 2, got {p!r}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise MalformedConfig(f"p must be prime, got {p} = {d}*{p // d}")
        d += 1
    return p


def vp_int(n: int, p: int) -> Optional[int]:
    """p-adic valuation of an integer, None for 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int) -> Optional[int]:
    if q == 0:
        return None
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def power_ladder(a: Any, n: int, mul: Callable, sqr: Optional[Callable] = None) -> Any:
    """a ** n, n >= 1, by square-and-multiply from the lowest set bit, on
    ``mul`` and ``sqr`` (default ``mul(x, x)``): bit_length(n) - 1 squarings
    and popcount(n) - 1 products, with no one multiplied in."""
    sqr = sqr or (lambda x: mul(x, x))
    while not n & 1:
        a = sqr(a)
        n >>= 1
    result = a
    n >>= 1
    while n:
        a = sqr(a)
        if n & 1:
            result = mul(result, a)
        n >>= 1
    return result


class Ring(ABC):
    """Abstract coefficient ring at a fixed prime p."""

    p: int
    kind: str = "abstract"
    char_p: bool = False
    q_algebra: bool = False
    p_torsion_free: bool = True
    truncated: bool = False

    # -- element constructors ---------------------------------------------

    @abstractmethod
    def from_int(self, n: int) -> Any: ...

    def zero(self) -> Any:
        return self.from_int(0)

    def one(self) -> Any:
        return self.from_int(1)

    # -- arithmetic ---------------------------------------------------------

    @abstractmethod
    def add(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def neg(self, a: Any) -> Any: ...

    @abstractmethod
    def mul(self, a: Any, b: Any) -> Any: ...

    def sub(self, a: Any, b: Any) -> Any:
        return self.add(a, self.neg(b))

    def pow_(self, a: Any, n: int) -> Any:
        if n < 0:
            raise CapabilityMissing(f"{self.kind}: negative powers not supported")
        return power_ladder(a, n, self.mul) if n else self.one()

    def pow_p_tower(self, a: Any, l: int) -> Any:
        """a ** (p ** l); truncated rings override this to gain l digits."""
        return self.pow_(a, self.p ** l)

    def char_p_witt_op(self, kind: str, vecs: Sequence[Any]) -> Tuple[Any, ...]:
        """The components of the characteristic-p Witt op ``kind`` (``sum``,
        ``prod`` or ``neg``) on the equal-length vectors ``vecs``.  Every ring
        of characteristic p overrides it: the tilt by one base-ring Witt op per
        chain slot, at any length; the perfected polynomial ring by evaluating
        the cached mod-p structure polynomials, refusing lengths past
        ``structure_cap``."""
        raise CapabilityMissing(f"{self.kind}: no characteristic-p Witt arithmetic")

    @abstractmethod
    def eq(self, a: Any, b: Any) -> bool: ...

    def is_zero(self, a: Any) -> bool:
        return self.eq(a, self.zero())

    # -- p-structure ---------------------------------------------------------

    @abstractmethod
    def seminorm(self, a: Any) -> NormValue: ...

    def exact_divide_by_p(self, a: Any, k: int = 1) -> Any:
        """a / p**k, refused (``NotDivisible``) unless it lies in the ring."""
        raise CapabilityMissing(f"{self.kind}: exact division by p not supported")

    def pth_root_mod_p(self, a: Any) -> Any:
        raise CapabilityMissing(f"{self.kind}: p-th roots mod p not supported")

    # -- torsion-free cover (for ghost transport) ----------------------------
    # A p-torsion-free ring is its own cover; a ring with p-torsion overrides
    # all three, or has no cover.

    def cover_ring(self) -> "Ring":
        if self.p_torsion_free:
            return self
        raise CapabilityMissing(f"{self.kind}: no p-torsion-free cover available")

    def lift_to_cover(self, a: Any) -> Any:
        if self.p_torsion_free:
            return a
        raise CapabilityMissing(f"{self.kind}: no p-torsion-free cover available")

    def reduce_from_cover(self, a: Any, prec: Optional[int] = None) -> Any:
        if self.p_torsion_free:
            return a
        raise CapabilityMissing(f"{self.kind}: no p-torsion-free cover available")

    # -- precision bookkeeping (trivial unless truncated) ---------------------

    def precision_of(self, a: Any) -> Optional[int]:
        return None

    def truncate(self, a: Any, k: int) -> Any:
        return a

    # -- formatting / serialization -------------------------------------------

    @abstractmethod
    def format_elt(self, a: Any) -> str: ...

    @abstractmethod
    def parse_elt(self, text: str) -> Any: ...

    def elt_to_json(self, a: Any) -> Any:
        return self.format_elt(a)

    def to_config(self) -> dict:
        return {"kind": self.kind, "p": self.p}

    def same_ring(self, other: "Ring") -> bool:
        return self.to_config() == other.to_config()

    def require_same(self, other: "Ring") -> None:
        if not self.same_ring(other):
            raise RingMismatch(
                f"operands live in different rings: {self.to_config()} vs {other.to_config()}"
            )

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.to_config().items() if k != "kind")
        return f"{self.kind}({params})"


class Integers(Ring):
    """The ring of integers, with the p-adic seminorm for the chosen p."""

    kind = "Z"
    p_torsion_free = True

    def __init__(self, p: int):
        self.p = check_prime(p)

    def from_int(self, n: int) -> int:
        return int(n)

    def add(self, a: int, b: int) -> int:
        return a + b

    def neg(self, a: int) -> int:
        return -a

    def mul(self, a: int, b: int) -> int:
        return a * b

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            raise CapabilityMissing(f"{self.kind}: negative powers not supported")
        return a**n

    def eq(self, a: int, b: int) -> bool:
        return a == b

    def seminorm(self, a: int) -> NormValue:
        v = vp_int(a, self.p)
        return NormValue.zero() if v is None else NormValue.from_exponent(v)

    def exact_divide_by_p(self, a: int, k: int = 1) -> int:
        q, r = divmod(a, self.p**k)
        if r:
            # name the quotient at the first division by p that fails
            while a % self.p == 0:
                a //= self.p
            raise NotDivisible(f"{a} is not divisible by {self.p}")
        return q

    def format_elt(self, a: int) -> str:
        return str(a)

    def parse_elt(self, text: str) -> int:
        try:
            return int(text.strip())
        except ValueError as exc:
            raise MalformedConfig(f"not an integer: {text!r}") from exc


class Rationals(Ring):
    """The rational numbers, with the p-adic seminorm for the chosen p."""

    kind = "Q"
    q_algebra = True
    p_torsion_free = True

    def __init__(self, p: int):
        self.p = check_prime(p)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def pow_(self, a: Fraction, n: int) -> Fraction:
        # Fraction ** n powers numerator and denominator, which stay coprime;
        # a negative n would invert silently, so it is refused as elsewhere
        if n < 0:
            raise CapabilityMissing(f"{self.kind}: negative powers not supported")
        return a**n

    def eq(self, a: Fraction, b: Fraction) -> bool:
        return a == b

    def seminorm(self, a: Fraction) -> NormValue:
        v = vp_fraction(a, self.p)
        return NormValue.zero() if v is None else NormValue.from_exponent(v)

    def exact_divide_by_p(self, a: Fraction, k: int = 1) -> Fraction:
        return a / self.p**k

    def format_elt(self, a: Fraction) -> str:
        return str(a)

    def parse_elt(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedConfig(f"not a rational number: {text!r}") from exc


class TruncatedRing(Ring):
    """A quotient O / p**M of a p-torsion-free order O of rank e over Z.

    An element is e integer digits known modulo p**prec, 1 <= prec <= M, and
    carries its budget as `prec`.  This base owns the digit budget and the
    digit layout: the `~prec` text suffix, the JSON form
    `{<json_key>: ..., "prec": k}` (the bare payload at full precision), and
    the digit view `digits`, `from_digits` and `elements` that
    generic code uses in place of element payloads.  A scalar ring (Z/p**M)
    prints its one digit bare, any other ring `[d_0, ..., d_(e-1)]`, even
    when e = 1.  Subclasses define `make`, `digits`, `from_digits` and the
    arithmetic directly, without a call layer.
    """

    p_torsion_free = False
    truncated = True
    e = 1  # the rank of O over Z
    scalar: bool = True
    json_key: str = "value"

    def __init__(self, p: int, M: int):
        self.p = check_prime(p)
        if not isinstance(M, int) or M < 1:
            raise MalformedConfig(f"modulus exponent M must be a positive integer, got {M!r}")
        self.M = M

    @abstractmethod
    def digits(self, a: Any) -> Tuple[int, ...]:
        """The e digits of the canonical representative of a."""

    @abstractmethod
    def from_digits(self, seq: Sequence[int], prec: Optional[int] = None) -> Any:
        """The element with these digits, known mod p**prec (default M)."""

    def elements(self, limit: int) -> List[Any]:
        """Every element at full precision, in lexicographic digit order."""
        count = self.p ** (self.M * self.e)
        if count > limit:
            raise NotEnumerable(f"{count} elements exceed the enumeration limit {limit}")
        span = range(self.p ** self.M)
        return [self.from_digits(seq) for seq in product(span, repeat=self.e)]

    @property
    def label(self) -> str:
        """Z/p^M or Z[zeta_(p^k)]/p^M."""
        base = "Z" if self.scalar else f"Z[zeta_{self.p ** self.k}]"
        return f"{base}/{self.p}^{self.M}"

    def precision_of(self, a: Any) -> int:
        return a.prec

    def truncate(self, a: Any, k: int) -> Any:
        if k >= a.prec:
            return a
        return self.from_digits(self.digits(a), k)

    def format_elt(self, a: Any) -> str:
        ds = self.digits(a)
        body = str(ds[0]) if self.scalar else "[" + ", ".join(map(str, ds)) + "]"
        return body if a.prec == self.M else f"{body}~{a.prec}"

    def parse_elt(self, text: str) -> Any:
        body, tilde, prec = text.strip().partition("~")
        body = body.strip()
        if not self.scalar and body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            seq = [int(s) for s in body.split(",")] if body.strip() else []
            return self.from_digits(seq, int(prec) if tilde else None)
        except (ValueError, PrecisionExhausted) as exc:
            raise MalformedConfig(f"not an element of {self!r}: {text!r}") from exc

    def elt_to_json(self, a: Any) -> Any:
        ds = self.digits(a)
        payload = ds[0] if self.scalar else list(ds)
        return payload if a.prec == self.M else {self.json_key: payload, "prec": a.prec}


@dataclass(frozen=True)
class TruncInt:
    """A residue known modulo p**prec, stored canonically in [0, p**prec)."""

    value: int
    prec: int


class ZModPM(TruncatedRing):
    """The quotient Z / p**M with per-element precision tracking.

    Fresh elements carry the full budget M.  The seminorm is the quotient
    seminorm p**(-v) of the canonical lift; the class of 0 has seminorm 0.
    This ring has p-torsion, so Witt operations over it lift the canonical
    residues to Z (``cover_ring`` is ``Integers(p)``), transport there on
    ints and reduce back at the minimum input precision.
    """

    kind = "Zmod"

    def to_config(self) -> dict:
        return {"kind": self.kind, "p": self.p, "M": self.M}

    def with_precision(self, M: int) -> "ZModPM":
        return ZModPM(self.p, M)

    def make(self, value: int, prec: Optional[int] = None) -> TruncInt:
        if prec is None:
            prec = self.M
        if prec < 1:
            raise PrecisionExhausted("cannot build a residue with no significant digits")
        if prec > self.M:
            raise MalformedConfig(f"precision {prec} exceeds ring modulus exponent {self.M}")
        return TruncInt(value % self.p ** prec, prec)

    def digits(self, a: TruncInt) -> Tuple[int]:
        return (a.value,)

    def from_digits(self, seq: Sequence[int], prec: Optional[int] = None) -> TruncInt:
        (value,) = seq
        return self.make(int(value), prec)

    def from_int(self, n: int) -> TruncInt:
        return self.make(n, self.M)

    def _join(self, a: TruncInt, b: TruncInt) -> int:
        return min(a.prec, b.prec)

    def add(self, a: TruncInt, b: TruncInt) -> TruncInt:
        k = self._join(a, b)
        return self.make(a.value + b.value, k)

    def neg(self, a: TruncInt) -> TruncInt:
        return self.make(-a.value, a.prec)

    def mul(self, a: TruncInt, b: TruncInt) -> TruncInt:
        k = self._join(a, b)
        return self.make(a.value * b.value, k)

    def pow_(self, a: TruncInt, n: int) -> TruncInt:
        if n < 0:
            raise CapabilityMissing("Zmod: negative powers not supported")
        if n == 0:
            return self.make(1, self.M)
        return self.make(pow(a.value, n, self.p ** a.prec), a.prec)

    def pow_p_tower(self, a: TruncInt, l: int) -> TruncInt:
        """a ** (p**l), gaining l digits (capped at M)."""
        if l < 0:
            raise CapabilityMissing("Zmod: negative Frobenius powers not supported")
        k = min(a.prec + l, self.M)
        return self.make(pow(a.value, self.p ** l, self.p ** k), k)

    def eq(self, a: TruncInt, b: TruncInt) -> bool:
        k = self._join(a, b)
        return (a.value - b.value) % self.p ** k == 0

    def is_zero(self, a: TruncInt) -> bool:
        return a.value == 0

    def seminorm(self, a: TruncInt) -> NormValue:
        v = vp_int(a.value, self.p)
        return NormValue.zero() if v is None else NormValue.from_exponent(v)

    def exact_divide_by_p(self, a: TruncInt, k: int = 1) -> TruncInt:
        """a / p**k, one digit less per division by p; the first division
        that fails names its quotient and precision, as k single ones would."""
        value, prec = a.value, a.prec
        for _ in range(k):
            if value % self.p:
                raise NotDivisible(
                    f"{value} is not divisible by {self.p} (mod {self.p}^{prec})"
                )
            if prec - 1 < 1:
                raise PrecisionExhausted(
                    "dividing by p would leave no significant digits"
                )
            value, prec = value // self.p, prec - 1
        return TruncInt(value, prec)

    def pth_root_mod_p(self, a: TruncInt) -> TruncInt:
        # The canonical residue of a mod p is itself a p-th root of a mod p.
        return self.make(a.value % self.p, self.M)

    def cover_ring(self) -> Ring:
        return Integers(self.p)

    def lift_to_cover(self, a: TruncInt) -> int:
        return a.value

    def reduce_from_cover(self, a: int, prec: Optional[int] = None) -> TruncInt:
        return self.make(a, self.M if prec is None else prec)
