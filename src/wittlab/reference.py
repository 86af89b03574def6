"""Reference arithmetic for the independent checks, on plain Python numbers.

The verification suites and the tests re-derive the library's answers with
these few formulas.  The module imports only the standard library and
nothing of ``wittlab``, so a check that reads it never checks the package
against itself:

  * ``ghost``      -- w_m = sum_{i <= m} p**i * x_i ** (p**(m-i)), each power
                      taken directly;
  * ``unghost``    -- its inverse over the integers, one exact division by
                      p**m per level, refused when a level is not integral;
  * ``frobenius``  -- the integer Witt Frobenius, ``unghost`` of the shifted
                      ghost vector;
  * ``conv_reduce`` -- multiplication in Q(zeta_{p^k}) on power-basis
                      coefficient vectors by schoolbook convolution and the
                      relation sum_{i<p} x**(i * p**(k-1)) = 0, over ints or
                      Fractions, reduced mod q when q is given.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def ghost(p: int, xs: Sequence) -> Tuple:
    """The ghost coordinates of (x_0, ..., x_n) at p, with plain powers."""
    return tuple(
        sum(p**i * xs[i] ** (p ** (m - i)) for i in range(m + 1)) for m in range(len(xs))
    )


def unghost(p: int, ws: Sequence[int]) -> Tuple[int, ...]:
    """The integer vector with ghost coordinates ws; ``ValueError`` when
    level m leaves a remainder on its division by p**m."""
    xs: List[int] = []
    for m, w in enumerate(ws):
        rest = w - sum(p**i * xs[i] ** (p ** (m - i)) for i in range(m))
        x, r = divmod(rest, p**m)
        if r:
            raise ValueError(f"ghost level {m} is not integral: {rest} / {p}^{m}")
        xs.append(x)
    return tuple(xs)


def frobenius(p: int, xs: Sequence[int]) -> Tuple[int, ...]:
    """F on an integer vector: the shifted ghost vector, unghosted."""
    return unghost(p, ghost(p, xs)[1:])


def conv_reduce(a: Sequence, b: Sequence, p: int, k: int, q: Optional[int] = None) -> List:
    """a * b in Q(zeta_{p^k}) on coefficient vectors of length
    e = (p-1) * p**(k-1): convolve, then clear the degrees d >= e from the top
    with the relation sum_{i<p} x**(i*s) = 0, s = p**(k-1), shifted up to d,
    which subtracts the coefficient at d from d - e + i*s for each i < p - 1.
    The entries keep their type (int or Fraction); with q they are reduced
    mod q."""
    s = p ** (k - 1)
    e = s * (p - 1)
    out = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    for idx in range(len(out) - 1, e - 1, -1):
        c = out[idx]
        if c:
            out[idx] = 0
            for i in range(p - 1):
                out[idx - e + i * s] -= c
    return out[:e] if q is None else [c % q for c in out[:e]]
