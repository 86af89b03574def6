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
                           is too: Witt operations unghost in place (Z on
                           ints, Q and the number fields on their own
                           elements)
  * `truncated`         -- elements carry a finite digit budget; true exactly
                           for the subclasses of `TruncatedRing`, the only
                           rings with a `cover` (Z/p**M lifts to Z and
                           Z[zeta]/p**M to Z[zeta] for a Witt operation)

No transport runs over Q unless its ring is Q.

Truncated rings use per-element precision, the capped-absolute model: an
element "known mod p**k" records k, binary operations take the minimum of the
budgets, exact division by p costs one digit, and p-power maps
a -> a**(p**l) gain l digits, capped at M (a value known mod p**k determines
its p**l-th power mod p**(k+l)).  Operations raise `PrecisionExhausted`
rather than produce an element with no digits at all.  Z/p**M (here) and
Z[zeta]/p**M (in `cyclotomic`) share one element, `TruncVec(coeffs, prec)`,
and `TruncatedRing` implements this rule once for both, with the budget, the
text and JSON forms and the digit view that generic code reads.  A subclass
gives only its digit product, digit power, valuation and digit fold, besides
its constructor and its cover hooks.

Every numeral in element text and on the command line reads through one
ASCII grammar, stated here once.  An integer is an optional sign followed
by digits 0-9; a rational is an integer, optionally followed by ``/`` and
digits or by ``.`` and digits (``0.5`` stays, as a CLI weight).  `integer`
and `rational` read it: they act like ``int`` and ``Fraction``, surrounding
whitespace included, and raise ``ValueError`` for any other text, such as
``1e3``, ``1_000``, ``1.`` or non-ASCII digits.
"""

from __future__ import annotations

import math
import operator
import re
from abc import ABC, abstractmethod
from fractions import Fraction
from itertools import product, repeat
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    CapabilityMissing,
    MalformedConfig,
    NotDivisible,
    NotEnumerable,
    PrecisionExhausted,
    RingMismatch,
    _quoted,
)
from .norms import NormValue


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + r"(?:[/.][0-9]+)?")


def integer(text: str) -> int:
    """``int(text)`` for an integer numeral; ``ValueError`` otherwise."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an integer numeral: {text!r}")
    return int(text)


def rational(text: str) -> Fraction:
    """``Fraction(text)`` for a rational numeral; ``ValueError`` otherwise."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f"not a rational numeral: {text!r}")
    return Fraction(text)


def integer_key(config: dict, key: str, kind: str) -> int:
    """``config[key]``, which a ring or instance config of this kind must
    give as an integer."""
    if key not in config or config[key] is None:
        raise MalformedConfig(f"ring kind {_quoted(kind)} needs {key!r}")
    value = config[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedConfig(f"{key!r} must be an integer, got {_quoted(value)}")
    return value


# the largest prime and the largest modulus exponent M a ring takes; the
# largest reached by the tests, the suites and the benchmark are 17 and 15000
MAX_PRIME = 2**16
MAX_PRECISION = 2**16


def check_prime(p: int) -> int:
    if not isinstance(p, int) or p < 2:
        raise MalformedConfig(f"p must be an integer >= 2, got {_quoted(p)}")
    # trial division below runs up to sqrt(p)
    if p > MAX_PRIME:
        raise MalformedConfig(f"p = {_quoted(p)} is above the bound {MAX_PRIME}")
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


def balanced(d: int, q: int) -> int:
    """The representative of d mod q in (-q/2, q/2], for d in [0, q)."""
    return d if 2 * d <= q else d - q


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
    """Abstract coefficient ring at a fixed prime p.  A ring gives its
    `valuation` and names its constructor arguments in `config_keys`, and
    `seminorm`, `to_config` (read by `config.ring_from_config`) follow.
    `__init__` checks the prime, and `pow_` alone refuses a negative power:
    a ring's own `pow_` hands it every exponent it does not compute."""

    p: int
    kind: str = "abstract"
    config_keys: Tuple[str, ...] = ("p",)  # the constructor's arguments, in order
    char_p: bool = False
    q_algebra: bool = False
    p_torsion_free: bool = True
    truncated: bool = False

    def __init__(self, p: int):
        self.p = check_prime(p)

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
    def valuation(self, a: Any) -> Any:
        """The exponent v with |a| = p**(-v); None for a = 0."""

    def seminorm(self, a: Any) -> NormValue:
        """|a| = p**(-v(a)), and 0 for a = 0."""
        v = self.valuation(a)
        return NormValue.zero() if v is None else NormValue.from_exponent(v)

    def exact_divide_by_p(self, a: Any, k: int = 1) -> Any:
        """a / p**k, refused (``NotDivisible``) unless it lies in the ring."""
        raise CapabilityMissing(f"{self.kind}: exact division by p not supported")

    def pth_root_mod_p(self, a: Any) -> Any:
        raise CapabilityMissing(f"{self.kind}: p-th roots mod p not supported")

    # -- precision bookkeeping (trivial unless truncated) ---------------------

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
        # a plain loop: a dict comprehension costs three times as much, and
        # every Witt, tilt and arrow JSON form builds one config
        config = {"kind": self.kind}
        for key in self.config_keys:
            config[key] = getattr(self, key)
        return config

    def same_ring(self, other: "Ring") -> bool:
        return self is other or self.to_config() == other.to_config()

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

    def from_int(self, n: int) -> int:
        return int(n)

    def add(self, a: int, b: int) -> int:
        return a + b

    def neg(self, a: int) -> int:
        return -a

    def mul(self, a: int, b: int) -> int:
        return a * b

    def pow_(self, a: int, n: int) -> int:
        return a**n if n >= 0 else super().pow_(a, n)

    def eq(self, a: int, b: int) -> bool:
        return a == b

    def valuation(self, a: int) -> Optional[int]:
        return vp_int(a, self.p)

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
            return integer(text)
        except ValueError as exc:
            raise MalformedConfig(f"not an integer: {_quoted(text)}") from exc


class Rationals(Ring):
    """The rational numbers, with the p-adic seminorm for the chosen p."""

    kind = "Q"
    q_algebra = True

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
        return a**n if n >= 0 else super().pow_(a, n)

    def eq(self, a: Fraction, b: Fraction) -> bool:
        return a == b

    def valuation(self, a: Fraction) -> Optional[int]:
        return vp_fraction(a, self.p)

    def exact_divide_by_p(self, a: Fraction, k: int = 1) -> Fraction:
        return a / self.p**k

    def format_elt(self, a: Fraction) -> str:
        return str(a)

    def parse_elt(self, text: str) -> Fraction:
        try:
            return rational(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedConfig(f"not a rational number: {_quoted(text)}") from exc


class TruncVec(NamedTuple):
    """An element of a truncated ring: its e digits, each in [0, p**prec),
    known modulo p**prec.  A NamedTuple, like ``cyclotomic.CVec``, because
    Z/p**M builds one per residue on every Witt transport."""

    coeffs: Tuple[int, ...]
    prec: int


class TruncatedRing(Ring):
    """A quotient O / p**M of a p-torsion-free order O of rank e over Z.

    An element is one ``TruncVec``: e integer digits known modulo p**prec,
    1 <= prec <= M.  This base owns the element and the precision rule, so
    Z/p**M and Z[zeta]/p**M run the same code for `with_precision`,
    `from_digits`, `make`, `from_int`, `add`, `neg`, `mul`, `pow_`,
    `pow_p_tower`, `eq`, `is_zero` and `exact_divide_by_p`.  It also owns the
    digit layout: the `~prec` text suffix, the JSON form
    `{<json_key>: ..., "prec": k}` (the bare payload at full precision), and
    the digit view `digits`, `from_digits` and `elements` that generic code
    uses in place of element payloads.  A scalar
    ring (Z/p**M) prints its one digit bare, any other ring
    `[d_0, ..., d_(e-1)]`, even when e = 1.

    A subclass supplies the digit product `_mul`, the digit power `_pow`,
    the fold `_reduce` of digits into an element, the `valuation`
    of the canonical representative, and the cover hooks: the integral ring
    `cover`, built once; `lift_to_cover`, the balanced digits, each in
    (-p**prec/2, p**prec/2]; and `reduce_from_cover(z, a)`, z's class mod
    p**a, whose lift is a least lift of that class.
    """

    p_torsion_free = False
    truncated = True
    config_keys = ("p", "M")
    cover: Ring
    e = 1  # the rank of O over Z
    scalar: bool = True
    json_key: str = "value"

    def __init__(self, p: int, M: int):
        super().__init__(p)
        if not isinstance(M, int) or M < 1:
            raise MalformedConfig(
                f"modulus exponent M must be a positive integer, got {_quoted(M)}"
            )
        # p**M is built from here on, by every constructor and operation
        if M > MAX_PRECISION:
            raise MalformedConfig(
                f"modulus exponent M = {_quoted(M)} is above the bound {MAX_PRECISION}"
            )
        self.M = M

    def with_precision(self, M: int) -> "TruncatedRing":
        """The same ring modulo p**M, rebuilt from its ``config_keys``."""
        return type(self)(*[M if key == "M" else getattr(self, key) for key in self.config_keys])

    # -- subclass hooks ------------------------------------------------------

    @abstractmethod
    def _reduce(self, seq: Iterable[int], prec: int) -> TruncVec:
        """The element with the integer digits seq known mod p**prec, for
        1 <= prec <= M: each digit reduced into [0, p**prec), with digits
        past e folded in or refused (``ValueError``)."""

    @abstractmethod
    def _mul(self, a: Tuple[int, ...], b: Tuple[int, ...], q: int) -> Tuple[int, ...]:
        """The digits of a * b mod q, each in [0, q), for digits a and b in
        [0, p**M): already reduced, so ``mul`` keeps them as the product's
        digits without a ``_reduce``."""

    @abstractmethod
    def _pow(self, a: Tuple[int, ...], n: int, q: int) -> Tuple[int, ...]:
        """The digits of a ** n mod q, each in [0, q), for n >= 1 and digits
        a already in [0, q); reduced like ``_mul``."""

    @abstractmethod
    def lift_to_cover(self, a: TruncVec) -> Any: ...

    @abstractmethod
    def reduce_from_cover(self, a: Any, prec: int) -> TruncVec: ...

    # -- the digit view ----------------------------------------------------

    def digits(self, a: TruncVec) -> Tuple[int, ...]:
        """The e digits of the canonical representative of a."""
        return a.coeffs

    def from_digits(self, seq: Sequence[int], prec: Optional[int] = None) -> TruncVec:
        """The element with these digits, known mod p**prec (default M)."""
        if prec is None:
            prec = self.M
        if prec < 1:
            raise PrecisionExhausted("cannot build a residue with no significant digits")
        if prec > self.M:
            raise MalformedConfig(f"precision {prec} exceeds ring modulus exponent {self.M}")
        return self._reduce(seq, prec)

    def make(self, payload: Any, prec: Optional[int] = None) -> TruncVec:
        """``from_digits`` of the payload: one digit when scalar, else the
        digit list."""
        return self.from_digits((payload,) if self.scalar else payload, prec)

    def elements(self, limit: int) -> List[TruncVec]:
        """Every element at full precision, in lexicographic digit order."""
        count = self.p ** (self.M * self.e)
        if count > limit:
            raise NotEnumerable(f"{count} elements exceed the enumeration limit {limit}")
        span = range(self.p ** self.M)
        return [self.from_digits(seq) for seq in product(span, repeat=self.e)]

    # -- arithmetic under the precision rule ----------------------------------
    # Sums and products keep the smaller budget, a p**l-th power gains l
    # digits (capped at M), and a division by p spends one.

    def from_int(self, n: int) -> TruncVec:
        return self._reduce((n,), self.M)

    def add(self, a: TruncVec, b: TruncVec) -> TruncVec:
        return self._reduce(map(operator.add, a.coeffs, b.coeffs), min(a.prec, b.prec))

    def neg(self, a: TruncVec) -> TruncVec:
        return self._reduce(map(operator.neg, a.coeffs), a.prec)

    def sub(self, a: TruncVec, b: TruncVec) -> TruncVec:
        return self._reduce(map(operator.sub, a.coeffs, b.coeffs), min(a.prec, b.prec))

    def mul(self, a: TruncVec, b: TruncVec) -> TruncVec:
        prec = min(a.prec, b.prec)
        return TruncVec(self._mul(a.coeffs, b.coeffs, self.p**prec), prec)

    def pow_(self, a: TruncVec, n: int) -> TruncVec:
        if n <= 0:
            return super().pow_(a, n)
        return TruncVec(self._pow(a.coeffs, n, self.p**a.prec), a.prec)

    def pow_p_tower(self, a: TruncVec, l: int) -> TruncVec:
        """a ** (p**l), gaining l digits (capped at M)."""
        if l < 0:
            raise CapabilityMissing(f"{self.kind}: negative Frobenius powers not supported")
        k = min(a.prec + l, self.M)
        return TruncVec(self._pow(a.coeffs, self.p**l, self.p**k), k)

    def eq(self, a: TruncVec, b: TruncVec) -> bool:
        """Equality mod p**min(a.prec, b.prec): canonical digits compare
        after the longer budget is cut to the shorter one."""
        if a.prec > b.prec:
            a, b = b, a
        if a.prec == b.prec:
            return a.coeffs == b.coeffs
        return a.coeffs == tuple(map(operator.mod, b.coeffs, repeat(self.p**a.prec)))

    def is_zero(self, a: TruncVec) -> bool:
        return not any(a.coeffs)

    def exact_divide_by_p(self, a: TruncVec, k: int = 1) -> TruncVec:
        """a / p**k, one digit less per division by p; the first division
        that fails names its quotient and precision, as k single ones would."""
        p, coeffs, prec = self.p, a.coeffs, a.prec
        for _ in range(k):
            if math.gcd(*coeffs) % p:  # p divides every digit iff it divides their gcd
                raise NotDivisible(f"{self._body(coeffs)} is not divisible by {p} (mod {p}^{prec})")
            if prec <= 1:
                raise PrecisionExhausted("dividing by p would leave no significant digits")
            coeffs, prec = tuple(map(operator.floordiv, coeffs, repeat(p))), prec - 1
        return TruncVec(coeffs, prec)

    # -- labels, text and JSON ------------------------------------------------

    @property
    def label(self) -> str:
        """Z/p^M or Z[zeta_(p^k)]/p^M."""
        base = "Z" if self.scalar else f"Z[zeta_{self.p ** self.k}]"
        return f"{base}/{self.p}^{self.M}"

    def precision_of(self, a: TruncVec) -> int:
        return a.prec

    def truncate(self, a: TruncVec, k: int) -> TruncVec:
        if k >= a.prec:
            return a
        return self.from_digits(a.coeffs, k)

    def _body(self, ds: Sequence[int]) -> str:
        return str(ds[0]) if self.scalar else "[" + ", ".join(map(str, ds)) + "]"

    def format_elt(self, a: TruncVec) -> str:
        body = self._body(a.coeffs)
        return body if a.prec == self.M else f"{body}~{a.prec}"

    def parse_elt(self, text: str) -> TruncVec:
        body, tilde, prec = text.strip().partition("~")
        body = body.strip()
        if not self.scalar and body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            seq = [integer(s) for s in body.split(",")] if body.strip() else []
            return self.from_digits(seq, integer(prec) if tilde else None)
        except (ValueError, PrecisionExhausted) as exc:
            raise MalformedConfig(f"not an element of {self!r}: {_quoted(text)}") from exc

    def elt_to_json(self, a: TruncVec) -> Any:
        ds = a.coeffs
        payload = ds[0] if self.scalar else list(ds)
        return payload if a.prec == self.M else {self.json_key: payload, "prec": a.prec}


class ZModPM(TruncatedRing):
    """The quotient Z / p**M: elements are 1-digit ``TruncVec``s.

    Fresh elements carry the full budget M.  The seminorm is the quotient
    seminorm p**(-v) of the canonical lift; the class of 0 has seminorm 0.
    This ring has p-torsion, so Witt operations over it lift each residue
    known mod p**k to its balanced representative in Z, in (-p**k/2,
    p**k/2] (``cover`` is ``Integers(p)``), transport there on ints,
    settling each unghosted component to the balanced lift at the output
    precision, and reduce back at the minimum input precision.
    """

    kind = "Zmod"

    def __init__(self, p: int, M: int):
        super().__init__(p, M)
        self.cover = Integers(p)

    def _reduce(self, seq: Iterable[int], prec: int) -> TruncVec:
        (value,) = seq  # one digit; a longer or empty list is refused
        return TruncVec((value % self.p**prec,), prec)

    def _mul(self, a: Tuple[int], b: Tuple[int], q: int) -> Tuple[int]:
        return (a[0] * b[0] % q,)

    def _pow(self, a: Tuple[int], n: int, q: int) -> Tuple[int]:
        return (pow(a[0], n, q),)

    def valuation(self, a: TruncVec) -> Optional[int]:
        return vp_int(a.coeffs[0], self.p)

    def pth_root_mod_p(self, a: TruncVec) -> TruncVec:
        # The canonical residue of a mod p is itself a p-th root of a mod p.
        return TruncVec((a.coeffs[0] % self.p,), self.M)

    def lift_to_cover(self, a: TruncVec) -> int:
        return balanced(a.coeffs[0], self.p**a.prec)

    def reduce_from_cover(self, a: int, prec: int) -> TruncVec:
        return TruncVec((a % self.p**prec,), prec)
