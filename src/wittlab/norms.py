"""Exact norm values of the form p**(-v) with v a rational number or +infinity.

A norm value never stores p itself and never touches floating point: all
comparisons, products, and powers happen on the exponent v, which is a
`Fraction`.  The additive convention is

    value = p**(-v),   v = None  <=>  value = 0  (v = +infinity).

Larger norm means smaller v, so the comparison operators below are reversed
relative to the exponent order.

Every Witt, arrow and tilt norm builds one value per component, so the
value is a one-field NamedTuple (immutable and hashable, like ``CVec`` and
``TruncVec``), and no operation re-wraps an exponent that is already a
`Fraction`: ``Fraction(Fraction)`` costs more than building the whole value.
Factors and shifts (``pow``, ``scale_exponent``) are ints or `Fraction`s and
enter `Fraction` arithmetic as they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .errors import WittError

RatLike = Union[int, Fraction]


def as_fraction(r) -> Fraction:
    """r as a `Fraction`: r itself when it is one, else ``Fraction(r)``."""
    return r if type(r) is Fraction else Fraction(r)


class NormValue(NamedTuple):
    """An element of p**Q united with 0, ordered as a norm."""

    v: Optional[Fraction]  # None encodes +infinity, i.e. the norm value 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_exponent(v: RatLike) -> "NormValue":
        return NormValue(as_fraction(v))

    @staticmethod
    def zero() -> "NormValue":
        return _ZERO

    @staticmethod
    def one() -> "NormValue":
        return _ONE

    @staticmethod
    def p_power(e: RatLike) -> "NormValue":
        """The norm value p**e (so the stored exponent is -e)."""
        return NormValue(-as_fraction(e))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.v is None

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "NormValue") -> "NormValue":
        if self.v is None or other.v is None:
            return _ZERO
        return NormValue(self.v + other.v)

    def pow(self, r: RatLike) -> "NormValue":
        if self.v is None:
            if r <= 0:
                raise WittError("0 cannot be raised to a non-positive power")
            return self
        return NormValue(self.v * r)

    def root(self, n: int) -> "NormValue":
        """The value ** (1/n) for a positive integer n: the exponent over n,
        one `Fraction` division in place of ``pow(Fraction(1, n))``."""
        if self.v is None or n == 1:
            return self
        return NormValue(self.v / n)

    def scale_exponent(self, c: RatLike) -> "NormValue":
        """Multiply the value by p**(-c)."""
        if self.v is None:
            return self
        return NormValue(self.v + c)

    # -- text and JSON forms ------------------------------------------------

    def text(self) -> str:
        """'0', or 'p^e' for the value p**e (e rational)."""
        return exponent_text(self.exponent_json())

    def exponent_json(self) -> Optional[str]:
        """The e of the value p**e as a string, None for the value 0."""
        return None if self.v is None else str(-self.v)

    # -- order (as norms: 0 is the minimum) --------------------------------

    def __lt__(self, other: "NormValue") -> bool:
        if self.v is None:
            return other.v is not None
        if other.v is None:
            return False
        return self.v > other.v

    def __le__(self, other: "NormValue") -> bool:
        return self == other or self < other

    def __gt__(self, other: "NormValue") -> bool:
        return other < self

    def __ge__(self, other: "NormValue") -> bool:
        return other <= self


_ZERO = NormValue(None)
_ONE = NormValue(Fraction(0))


def exponent_text(e: Optional[str]) -> str:
    """The text of the norm value whose ``exponent_json()`` is e: '0' for
    None (the value 0), else 'p^e'; every text form of a norm goes through it."""
    return "0" if e is None else f"p^{e}"


def norm_max(values: Iterable[NormValue]) -> NormValue:
    """Supremum of finitely many norm values (0 if the iterable is empty)."""
    best = _ZERO
    for val in values:
        if best < val:
            best = val
    return best
