"""Desk checks for ghost-constant invariants over small number fields.

An element f of a Q-algebra sits inside a vector with constant ghost
coordinates (f, f, ..., f); its Witt components are forced by the unghost
recursion, and their weighted norms |x_{p^j}|**(1/p**j) either stay at or
below 1 (f integral at p in the right subfield) or compound denominators and
grow without bound.  ``invariant_classify`` compares the observed profile
over Q(i) against the predicted membership test:

  * p = 1 mod 4 (split): bounded iff f has non-negative valuation at both
    primes above p;
  * p = 3 mod 4 (inert): bounded iff f is rational with non-negative p-adic
    valuation (the imaginary unit itself must be unbounded here).

A depth-N profile is evidence, not proof: the verdict "bounded" means
bounded up to depth N.
"""

from __future__ import annotations

from typing import Any, Optional

from .cyclotomic import GaussianField
from .errors import CapabilityMissing
from .norms import NormValue
from .rings import Ring, size
from .witt import GhostVec, max_length, unghost, witt_norm_profile


def ghost_constant_profile(ring: Ring, f: Any, N: int) -> dict:
    """Witt components of the constant-ghost vector (f, ..., f) to depth N,
    with their weighted norms; bounded iff every norm is at most 1."""
    size("ghost-constant profile depth", N, 0, max_length(ring.p) - 1)  # as a family depth is
    if not ring.q_algebra:
        raise CapabilityMissing(
            "constant-ghost inversion needs exact division by p; use a Q-algebra"
        )
    ghost = GhostVec(ring, tuple(f for _ in range(N + 1)))
    x = unghost(ghost)
    profile = witt_norm_profile(x)
    one = NormValue.one()
    first_unbounded: Optional[int] = None
    for j, val in enumerate(profile):
        if one < val:
            first_unbounded = j
            break
    return {
        "p": ring.p,
        "N": N,
        "f": ring.format_elt(f),
        "components": [ring.format_elt(c) for c in x.components],
        "profile_exponents": [v.exponent_json() for v in profile],
        "bounded": first_unbounded is None,
        "first_unbounded_index": first_unbounded,
    }


def predicted_invariant_member(field: GaussianField, f: Any) -> bool:
    """Membership in the localized invariant subring of Q(i) at p.

    Split p: integral at both primes above p.  Inert p: rational and
    p-integral.  The ramified prime 2 is out of scope.
    """
    if field.split:
        vals = field.place_valuations(f)
        return all(v is None or v >= 0 for v in vals.values())
    if f.nums[1]:
        return False
    v = field.valuation(f)
    return v is None or v >= 0


def invariant_classify(field: GaussianField, f: Any, N: int) -> dict:
    """Observed bounded/unbounded profile versus the predicted membership;
    ``passed`` says whether the two agree."""
    if not isinstance(field, GaussianField):
        raise CapabilityMissing("classification is implemented over Q(i) only")
    if field.p == 2:
        raise CapabilityMissing(
            "p = 2 ramifies in Q(i); classification covers split and inert primes"
        )
    report = ghost_constant_profile(field, f, N)
    predicted = predicted_invariant_member(field, f)
    report.update(
        {
            "field": "Q(i)",
            "splitting": "split" if field.split else "inert",
            "predicted_bounded": predicted,
            "passed": predicted == report["bounded"],
        }
    )
    return report


def teichmuller_phi_invariance(ring: Ring, r: Any) -> bool:
    """True iff r**p = r, i.e. the ghost coordinates of the multiplicative
    lift of r form a constant sequence (a fixed point of the level shift)."""
    return ring.eq(ring.pow_(r, ring.p), r)
