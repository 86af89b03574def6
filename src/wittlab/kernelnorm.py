"""The norm identity on the kernel of Frobenius.

A vector x of length j+1 with ghost coordinates (t, 0, ..., 0) spans the
kernel of F down to length j; it is determined by t via the unghost
recursion over a p-torsion-free ring.  Its weighted sup norm satisfies

    |t| = p**(-(1/p + ... + 1/p**j)) * |x|_W

exactly.  ``verify_kernel_norm`` computes both sides in exponent space and
reports whether they are equal, over every ring; it never raises on a
failed identity, so a caller reads the verdict from ``passed``.

``symbolic_kernel_identity`` proves the identity once and for all over any
ring where |t| = p**-v with v free: every valuation in sight is a linear
form v + const with the same v-coefficient, so the leading-term selections
in the recursion are uniform in v and the whole computation reduces to exact
Fraction arithmetic on the constants.

The ``kernel`` suite and ``kernel verify`` draw t from ``unit_times_power``:
a random unit times a power, of either sign, of the uniformizer (p over Q and
Q(i), 1 - zeta of valuation 1/e over Q(zeta); see ``uniformizer_steps``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, List

from .cyclotomic import CyclotomicField
from .errors import CapabilityMissing, MalformedConfig
from .rings import Rationals, Ring, size
from .witt import (
    GhostVec,
    WittVec,
    frobenius,
    max_length,
    unghost,
    witt_eq,
    witt_norm,
    witt_zero,
)


def kernel_exponent(p: int, j: int) -> Fraction:
    """The exponent of the comparison constant: 1/p + 1/p**2 + ... + 1/p**j."""
    return sum((Fraction(1, p ** k) for k in range(1, j + 1)), Fraction(0))


# the most work samples * e * p**j one run of kernel elements may ask for, e
# the ring's rank: on a shared 2-CPU host one sample took 0.93 s over Q at
# p = 2, j = 15 (32768) and 2.84 s over Q(i) at p = 5, j = 6 (31250).  The
# tests and the CLI table reach 120 (30 samples over Q(zeta_4) at j = 1)
MAX_KERNEL_WORK = 2**15


def check_kernel_work(ring: Ring, j: int, samples: int) -> None:
    """Refuse ``samples`` kernel elements of index j over ``ring`` when
    samples * e * p**j is past ``MAX_KERNEL_WORK``; j is read first, as
    ``kernel_element_from_w1`` reads it, so that p**j stays small."""
    size("kernel index j", j, 1, max_length(ring.p) - 1)
    work = samples * ring.e * ring.p**j
    if work > MAX_KERNEL_WORK:
        raise MalformedConfig(
            f"kernel work samples*e*p^j = {samples}*{ring.e}*{ring.p}^{j} = {work} "
            f"is above the bound {MAX_KERNEL_WORK}"
        )


def kernel_element_from_w1(ring: Ring, t: Any, j: int) -> WittVec:
    """The unique length-(j+1) vector with ghost coordinates (t, 0, ..., 0)."""
    size("kernel index j", j, 1, max_length(ring.p) - 1)  # bounded as a family depth is
    if not ring.p_torsion_free:
        raise CapabilityMissing(
            "recovering x from w_1 needs division by p; use a p-torsion-free ring"
        )
    ghost = GhostVec(ring, (t,) + tuple(ring.zero() for _ in range(j)))
    return unghost(ghost)


def verify_kernel_norm(ring: Ring, t: Any, j: int) -> dict:
    """Both sides of the identity, exactly, plus the F(x) = 0 sanity check.

    A failed identity is reported as ``passed`` false, never raised.
    """
    x = kernel_element_from_w1(ring, t, j)
    kernel_ok = witt_eq(frobenius(x), witt_zero(ring, j))
    lhs = ring.seminorm(t)
    sup = witt_norm(x)
    rhs = sup.scale_exponent(kernel_exponent(ring.p, j))
    equal = lhs == rhs
    bound_holds = lhs <= rhs
    return {
        "p": ring.p,
        "j": j,
        "t": ring.format_elt(t),
        "components": [ring.format_elt(c) for c in x.components],
        "kernel_ok": kernel_ok,
        "w1_exponent": lhs.exponent_json(),
        "sup_exponent": sup.exponent_json(),
        "scaled_sup_exponent": rhs.exponent_json(),
        "constant_exponent": str(-kernel_exponent(ring.p, j)),
        "equal": equal,
        "bound_holds": bound_holds,
        "passed": kernel_ok and equal,
    }


def symbolic_kernel_identity(p: int, j: int) -> dict:
    """Verify the identity for a generic t with |t| = p**-v, v free.

    Unghosting (t, 0, ..., 0) gives x_{p^k} with valuation p**k * v + b_k:
    every candidate leading term at step k has the same v-coefficient p**k,
    so the minimum is decided by the constants alone, and it must be
    attained uniquely for the valuation to be exact (a tie could cancel).
    The sup-norm profile then has exponents v + b_k / p**k, and the identity
    holds iff their minimum equals -(1/p + ... + 1/p**j).

    The verdict is ``passed``: the identity holds and every leading term is
    attained uniquely.
    """
    size("kernel index j", j, 1, max_length(p) - 1)
    offsets: List[Fraction] = [Fraction(0)]
    unique = True
    for k in range(1, j + 1):
        candidates = [
            Fraction(i) + p ** (k - i) * offsets[i] - k for i in range(k)
        ]
        best = min(candidates)
        if candidates.count(best) != 1:
            unique = False
        offsets.append(best)
    profile = [offsets[k] / p ** k for k in range(j + 1)]
    sup_offset = min(profile)
    holds = unique and (sup_offset == -kernel_exponent(p, j))
    return {
        "p": p,
        "j": j,
        "valuation_offsets": [str(b) for b in offsets],
        "profile_offsets": [str(b) for b in profile],
        "leading_terms_unique": unique,
        "passed": holds,
    }


def uniformizer_steps(ring: Ring) -> int:
    """Uniformizer powers per unit of valuation: e over Q(zeta), 1 over Q and Q(i)."""
    return ring.e if isinstance(ring, CyclotomicField) else 1


def unit_times_power(rng: random.Random, ring: Ring, val_steps: int) -> Any:
    """A random unit times the val_steps-th power (of either sign) of the
    uniformizer, over Q, Q(i) or Q(zeta); there the unit is
    1 + p*(c_0 + ... + c_(e-1) zeta^(e-1)) with digits c_i in [0, p)."""
    if isinstance(ring, Rationals):
        units = [u for u in (1, -1, 3, 5, 7, -5, 11) if u % ring.p]
        t = Fraction(rng.choice(units), rng.choice([u for u in (1, 3, 5, 7) if u % ring.p]))
        return t * Fraction(ring.p) ** val_steps
    digits = ring.from_coeffs([rng.randint(0, ring.p - 1) for _ in range(ring.e)])
    unit = ring.add(ring.one(), ring.scalar_mul(ring.p, digits))
    pi = ring.uniformizer() if isinstance(ring, CyclotomicField) else ring.from_int(ring.p)
    t_pow = ring.pow_(pi, abs(val_steps))
    return ring.mul(unit, t_pow) if val_steps >= 0 else ring.div(unit, t_pow)
