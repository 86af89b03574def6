"""Independent arithmetic for checking wittlab outputs.

Nothing here imports wittlab.  Every check reads an op's output in the JSON
form the CLI prints and tests it against an identity that any correct answer
satisfies, computed with plain ints and Fractions:

* over Z/p^k (and over integer lifts of char-p residues) the ghost map is a
  ring homomorphism modulo p^(k+m) in component m, because a = b mod p^k
  implies a^(p^j) = b^(p^j) mod p^(k+j); the congruences for m = 0..n
  determine a vector mod p^k, so the check is complete at that precision;
* over Q(zeta_{p^k}) and Q(i) the ghost map is an exact ring homomorphism;
* valuations in Q(zeta_{p^k}) come from field norms (one prime above p, so
  v(a) = v_p(N(a)) / e), and in Q(i) at a split p from the two embeddings
  i -> +-sqrt(-1) into Z_p.  Neither uses the t-adic basis the library uses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple


def vp(n: int, p: int) -> Optional[int]:
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def norm_text_exponent(text: str) -> Optional[Fraction]:
    """log_p of a norm printed as 'p^e' (None for the norm 0)."""
    if text == "0":
        return None
    if not text.startswith("p^"):
        raise ValueError(f"not a norm text: {text!r}")
    return Fraction(text[2:])


def opt_fraction(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else Fraction(text)


# -- truncated residues ------------------------------------------------------------


def trunc_int(value, M: int) -> Tuple[int, int]:
    """(value, prec) of a Z/p^M element in its JSON form."""
    if isinstance(value, dict):
        return int(value["value"]), int(value["prec"])
    return int(value), M


def trunc_vec(value, M: int) -> Tuple[Tuple[int, ...], int]:
    """(coeffs, prec) of a Z[zeta]/p^M element in its JSON form."""
    if isinstance(value, dict):
        return tuple(int(c) for c in value["coeffs"]), int(value["prec"])
    return tuple(int(c) for c in value), M


def ghost_int(xs: Sequence[int], p: int, m: int, q: int) -> int:
    """Ghost component w_{p^m} of an integer vector, mod q."""
    return sum(p ** i * pow(x, p ** (m - i), q) for i, x in enumerate(xs[: m + 1])) % q


def ghost_int_exact(xs: Sequence[int], p: int) -> List[int]:
    return [sum(p ** i * x ** (p ** (m - i)) for i, x in enumerate(xs[: m + 1])) for m in range(len(xs))]


def unghost_int(ws: Sequence[int], p: int) -> List[int]:
    """Inverse of the ghost map over Z; raises if a division is inexact."""
    xs: List[int] = []
    for m, w in enumerate(ws):
        acc = w - sum(p ** i * x ** (p ** (m - i)) for i, x in enumerate(xs))
        if acc % p ** m:
            raise ArithmeticError("ghost vector has no integral preimage")
        xs.append(acc // p ** m)
    return xs


def frobenius_int(ys: Sequence[int], p: int, M: int) -> List[int]:
    """F(y) for an integer vector, computed exactly over Z and reduced mod p^M."""
    ws = ghost_int_exact(ys, p)
    return [x % p ** M for x in unghost_int(ws[1:], p)]


def coherent_family(top: Sequence[int], p: int, M: int) -> List[List[int]]:
    """Levels z_n = restrict(F^(N-n)(top), n) of the coherent family with the
    given top level, all mod p^M."""
    N = len(top) - 1
    levels = [list(top)]
    for _ in range(N):
        levels.append(frobenius_int(levels[-1], p, M))
    levels.reverse()
    return [lvl[: n + 1] for n, lvl in enumerate(levels)]


# -- cyclotomic arithmetic -------------------------------------------------------------


class Cyclo:
    """Q(zeta_{p^k}) (or Z[zeta_{p^k}]) on the power basis, reduced by the
    cyclotomic polynomial Phi = sum_{j<p} x^(j p^(k-1)), k >= 1."""

    def __init__(self, p: int, k: int):
        self.p, self.k = p, k
        self.step = p ** (k - 1)
        self.e = (p - 1) * self.step

    def reduce(self, coeffs: Sequence, q: Optional[int] = None) -> tuple:
        c = list(coeffs) + [0] * max(0, self.e - len(coeffs))
        for d in range(len(c) - 1, self.e - 1, -1):
            t = c[d]
            if t:
                c[d] = 0
                for j in range(self.p - 1):
                    c[d - self.e + j * self.step] -= t
        out = c[: self.e]
        if q is not None:
            out = [x % q for x in out]
        return tuple(out)

    def gen(self) -> tuple:
        return self.reduce([0, 1])

    def one(self) -> tuple:
        return self.reduce([1])

    def add(self, a, b, q: Optional[int] = None) -> tuple:
        out = [x + y for x, y in zip(a, b)]
        return tuple(x % q for x in out) if q is not None else tuple(out)

    def scale(self, c, a, q: Optional[int] = None) -> tuple:
        out = [c * x for x in a]
        return tuple(x % q for x in out) if q is not None else tuple(out)

    def mul(self, a, b, q: Optional[int] = None) -> tuple:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self.reduce(out, q)

    def pow(self, a, n: int, q: Optional[int] = None) -> tuple:
        result, base = self.one(), tuple(a)
        while n:
            if n & 1:
                result = self.mul(result, base, q)
            base = self.mul(base, base, q)
            n >>= 1
        return result

    def embed(self, a, target: "Cyclo") -> tuple:
        """zeta_{p^k} -> zeta_{p^K}^(p^(K-k))."""
        stretch = target.e // self.e
        out = [0] * ((len(a) - 1) * stretch + 1)
        for i, x in enumerate(a):
            out[i * stretch] = x
        return target.reduce(out)

    def norm_int(self, a: Sequence[int]) -> int:
        """N_{K/Q}(a) for integer coefficients, by relative norms down the
        tower Q(zeta_{p^k}) / Q(zeta_{p^(k-1)}); p in (2, 3)."""
        p, k = self.p, self.k
        if k == 1 and p == 2:
            return a[0]
        if k == 1 and p == 3:
            a0, a1 = a
            return a0 * a0 - a0 * a1 + a1 * a1
        sub = Cyclo(p, k - 1)
        parts = [tuple(a[r::p]) for r in range(p)]
        eta = sub.gen()
        if p == 2:
            A, B = parts
            rel = sub.add(sub.mul(A, A), sub.scale(-1, sub.mul(eta, sub.mul(B, B))))
        elif p == 3:
            A, B, C = parts
            cube = lambda u: sub.mul(u, sub.mul(u, u))  # noqa: E731
            eta2 = sub.mul(eta, eta)
            rel = cube(A)
            rel = sub.add(rel, sub.mul(eta, cube(B)))
            rel = sub.add(rel, sub.mul(eta2, cube(C)))
            rel = sub.add(rel, sub.scale(-3, sub.mul(eta, sub.mul(A, sub.mul(B, C)))))
        else:
            raise ValueError(f"norms are implemented for p in (2, 3), got {p}")
        return sub.norm_int(rel)

    def valuation(self, a: Sequence) -> Optional[Fraction]:
        """v(a) with v(p) = 1, None for a = 0."""
        fr = [Fraction(x) for x in a]
        if not any(fr):
            return None
        d = math.lcm(*(x.denominator for x in fr))
        ints = [int(x * d) for x in fr]
        return Fraction(vp(self.norm_int(ints), self.p), self.e) - (vp(d, self.p) or 0)


def fraction_vec(value) -> tuple:
    return tuple(Fraction(s) for s in value)


# -- Gaussian numbers ----------------------------------------------------------------------


def gauss_mul(a, b) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_pow(a, n: int) -> tuple:
    result, base = (Fraction(1), Fraction(0)), a
    while n:
        if n & 1:
            result = gauss_mul(result, base)
        base = gauss_mul(base, base)
        n >>= 1
    return result


def _sqrt_minus_one(p: int, N: int) -> int:
    """A root of x^2 + 1 mod p^N (p = 1 mod 4), by Hensel lifting."""
    s = next(x for x in range(2, p) if (x * x + 1) % p == 0)
    for _ in range(N.bit_length() + 1):
        q = p ** N
        s = (s - (s * s + 1) * pow(2 * s, -1, q)) % q
    return s


def gauss_valuation(a, p: int) -> Optional[Fraction]:
    """min over the two places above a split p of v(a), with v(p) = 1."""
    re_, im = Fraction(a[0]), Fraction(a[1])
    if re_ == 0 and im == 0:
        return None
    d = math.lcm(re_.denominator, im.denominator)
    x, y = int(re_ * d), int(im * d)
    N = vp(x * x + y * y, p) + 2
    s = _sqrt_minus_one(p, N)
    q = p ** N
    places = [vp((x + y * s) % q, p), vp((x - y * s) % q, p)]
    return Fraction(min(v if v is not None else N for v in places) - (vp(d, p) or 0))


# -- generic ghost over a field --------------------------------------------------------------


def ghost_field(xs: Sequence, p: int, mul, add, pow_, scale) -> List:
    out = []
    for m in range(len(xs)):
        acc = None
        for i in range(m + 1):
            term = scale(p ** i, pow_(xs[i], p ** (m - i)))
            acc = term if acc is None else add(acc, term)
        out.append(acc)
    return out


def cyclo_ops(C: Cyclo, q: Optional[int] = None):
    return (
        lambda a, b: C.mul(a, b, q),
        lambda a, b: C.add(a, b, q),
        lambda a, n: C.pow(a, n, q),
        lambda c, a: C.scale(c, a, q),
    )


def gauss_ops():
    return (
        gauss_mul,
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        gauss_pow,
        lambda c, a: (c * a[0], c * a[1]),
    )


def witt_valuation(vals: Sequence[Optional[Fraction]], p: int) -> Optional[Fraction]:
    """v of |x| = max_i |x_i|^(1/p^i), given the component valuations."""
    terms = [v / p ** i for i, v in enumerate(vals) if v is not None]
    return min(terms) if terms else None


# -- perfected polynomials over F_p, lifted to Z ---------------------------------------------

Poly = Dict[Tuple[int, ...], int]


def poly_from_json(value) -> Poly:
    return {tuple(int(m) for m in mono): int(c) for mono, c in value}


def poly_add(a: Poly, b: Poly, q: int) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        out[mono] = (out.get(mono, 0) + c) % q
    return {m: c for m, c in out.items() if c % q}


def poly_mul(a: Poly, b: Poly, q: int) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = (out.get(key, 0) + ca * cb) % q
    return {m: c for m, c in out.items() if c}


def poly_pow(a: Poly, n: int, q: int, nvars: int) -> Poly:
    result: Poly = {(0,) * nvars: 1 % q}
    base = a
    while n:
        if n & 1:
            result = poly_mul(result, base, q)
        base = poly_mul(base, base, q)
        n >>= 1
    return result


def poly_ghost(xs: Sequence[Poly], p: int, m: int, q: int, nvars: int) -> Poly:
    acc: Poly = {}
    for i in range(m + 1):
        term = poly_pow(xs[i], p ** (m - i), q, nvars)
        acc = poly_add(acc, {mono: (p ** i * c) % q for mono, c in term.items()}, q)
    return acc
