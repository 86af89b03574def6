"""Truncated p-typical vectors and their ring operations.

A vector of length n+1 over a coefficient ring R is written
(x_1, x_p, ..., x_{p**n}).  Operations are defined through ghost coordinates
and dispatch on the ring's capabilities:

  * odd p, negation      -- componentwise on every ring: [-1] = -1, and
                            w_m(-x) = -w_m(x) because every p**(m-i) is odd;
                            over a truncated ring the result is cut to the
                            minimum precision of the input, as a transport
                            would leave it;
  * characteristic p     -- the ring answers for the whole vector
                            (`ring.char_p_witt_op`).  A tilt answers at any
                            length with one Witt op over its base, on the
                            chains' top slots (x -> x_D mod p is a ring
                            map); the perfected polynomial ring evaluates
                            the cached sum/prod/neg structure polynomials,
                            their coefficients reduced mod p since p = 0 in
                            the ring, on packed monomials: one int key per
                            monomial, in a radix one more than the largest
                            input exponent times the largest term degree,
                            so no exponent carries, with one unpack and sort
                            per component.  It refuses lengths beyond the
                            cached range rather than approximate them.  The
                            Frobenius is componentwise;
  * every other ring     -- one ghost transport, `_transport`, any length:
                            ghost, combine (the Frobenius drops the first
                            ghost entry), unghost: in place over Z, Q and the
                            number fields.  A truncated ring lifts to its
                            `cover` (Z/p**M to Z, Z[zeta]/p**M to Z[zeta]),
                            on balanced digits, and reduces back at the
                            minimum input precision a; its unghost settles
                            each component to the balanced lift of its class
                            mod p**a before raising it.
                            `witt_combination` runs an integer combination
                            sum_j c_j * v_j as one such transport.

Ghost coordinates are injective over p-torsion-free rings, which is what makes
the transport well-defined; the exact divisions of `unghost` (and, over
Q(zeta), the integrality check of the reduction) turn that theorem into a
runtime check.

`ghost` and `unghost` walk one power ladder per component: component i enters
as x_i and each later level raises its running power once, by
``ring.pow_(., p)``, so a length-n vector costs n(n-1)/2 p-th powers rather
than a fresh x_i**(p**(m-i)) at every level m, and the constants p**i are
built once per call.  `teich_mul` raises r the same way.  Every power is
exact, so the ladder gives the same elements, bytes included, as the
powers taken directly; additions keep their order, which a tilt's chain sum can
see.  A settled unghost is exact only mod p**a, which is all its caller reads.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapabilityMissing, LengthMismatch, MalformedConfig, _quoted
from .norms import NormValue, norm_max
from .rings import Integers, Ring, integer


class _WittFields(NamedTuple):
    ring: Ring
    components: Tuple[Any, ...]


class WittVec(_WittFields):
    """A NamedTuple, like ``CVec``, because every Witt operation builds one;
    ``__new__`` refuses the empty vector."""

    __slots__ = ()

    def __new__(cls, ring: Ring, components: Tuple[Any, ...]) -> "WittVec":
        if len(components) == 0:
            raise LengthMismatch("vectors must have at least one component")
        return tuple.__new__(cls, (ring, components))

    @property
    def length(self) -> int:
        return len(self.components)

    @property
    def top_index(self) -> int:
        """n, for a vector (x_1, ..., x_{p**n})."""
        return len(self.components) - 1

    def __repr__(self) -> str:
        return f"WittVec({self.ring!r}, {format_witt(self)})"


class GhostVec(NamedTuple):
    ring: Ring
    entries: Tuple[Any, ...]

    def pointwise(self, other: "GhostVec", op: Callable) -> "GhostVec":
        if len(self.entries) != len(other.entries):
            raise LengthMismatch("ghost vectors of different lengths")
        return GhostVec(self.ring, tuple(op(a, b) for a, b in zip(self.entries, other.entries)))

    def add(self, other: "GhostVec") -> "GhostVec":
        return self.pointwise(other, self.ring.add)

    def mul(self, other: "GhostVec") -> "GhostVec":
        return self.pointwise(other, self.ring.mul)

    def neg(self) -> "GhostVec":
        return GhostVec(self.ring, tuple(self.ring.neg(a) for a in self.entries))


def witt_zero(ring: Ring, length: int) -> WittVec:
    return WittVec(ring, tuple(ring.zero() for _ in range(length)))


def witt_one(ring: Ring, length: int) -> WittVec:
    return WittVec(ring, (ring.one(),) + tuple(ring.zero() for _ in range(length - 1)))


# -- ghost coordinates ---------------------------------------------------------


def ghost(x: WittVec) -> GhostVec:
    """w_m = sum_{i <= m} p**i * x_i**(p**(m-i)); the powers x_i**(p**(m-i))
    form one ladder per component, raised by one ``pow_(., p)`` per step."""
    ring, p = x.ring, x.ring.p
    consts = [ring.from_int(p ** i) for i in range(x.length)]
    powers: List[Any] = []
    entries = []
    for m, c in enumerate(x.components):
        powers = [ring.pow_(a, p) for a in powers]
        powers.append(c)
        acc = ring.zero()
        for i, term in enumerate(powers):
            if i:
                term = ring.mul(consts[i], term)
            acc = ring.add(acc, term)
        entries.append(acc)
    return GhostVec(ring, tuple(entries))


def unghost(g: GhostVec, settle: Optional[Callable[[Any], Any]] = None) -> WittVec:
    """Invert the ghost map; level m makes one exact division by p**m, which
    must succeed (NotDivisible otherwise) and over a p-torsion-free ring
    certifies the preimage.  The powers of the components found so far form
    the same ladder as in ``ghost``.

    ``settle``, when given, replaces each component as soon as it is found,
    before the ladder raises it, by another representative of its class mod
    p**a; the truncated transport passes the balanced lift at its output
    precision a.  The exact divisions still succeed and every component
    keeps its class mod p**a: if z = z' mod p**a then z**(p**k) = z'**(p**k)
    mod p**(a+k), so level m's numerator moves by a multiple of p**(a+m).
    Without it the inversion is exact."""
    ring, p = g.ring, g.ring.p
    if not ring.p_torsion_free:
        raise CapabilityMissing(
            f"{ring.kind}: ghost coordinates are not injective over rings with "
            "p-torsion; transport through the cover instead"
        )
    consts = [ring.from_int(p ** i) for i in range(len(g.entries))]
    comps: List[Any] = []
    powers: List[Any] = []
    for m, w in enumerate(g.entries):
        powers = [ring.pow_(a, p) for a in powers]
        acc = w
        for i, term in enumerate(powers):
            if i:
                term = ring.mul(consts[i], term)
            acc = ring.sub(acc, term)
        if m:
            acc = ring.exact_divide_by_p(acc, m)
        if settle is not None:
            acc = settle(acc)
        comps.append(acc)
        powers.append(acc)
    return WittVec(ring, tuple(comps))


# -- operation dispatch ---------------------------------------------------------


def _min_precision(ring: Ring, vecs: Sequence[WittVec]) -> Optional[int]:
    if not ring.truncated:
        return None
    return min(ring.precision_of(c) for v in vecs for c in v.components)


def _transport(combine: Callable[..., GhostVec], *vecs: WittVec) -> WittVec:
    """Ghost each vector, ``combine`` the ghost vectors and unghost.

    A ring that is not truncated unghosts in place, exactly.  A truncated
    ring lifts each digit to its balanced representative in its ``cover``,
    and the unghost settles each component to the balanced lift of its class
    mod p**a, the minimum input precision, before the ladder raises it: the
    ladder then raises digits of at most p**a/2 in size, where the exact
    components grow with p**m.  The residues mod p**a that the settling
    finds are the output, the same as an exact inversion's reduced, because
    any lift of a class gives the same residues (W_L is a functor)."""
    ring = vecs[0].ring
    if not ring.truncated:
        return unghost(combine(*(ghost(v) for v in vecs)))
    ghosts = [
        ghost(WittVec(ring.cover, tuple(ring.lift_to_cover(c) for c in v.components)))
        for v in vecs
    ]
    prec = _min_precision(ring, vecs)
    residues: List[Any] = []

    def settle(z):
        residues.append(ring.reduce_from_cover(z, prec))
        return ring.lift_to_cover(residues[-1])

    unghost(combine(*ghosts), settle)
    return WittVec(ring, tuple(residues))


def _same_shape(x: WittVec, y: WittVec) -> None:
    x.ring.require_same(y.ring)
    if x.length != y.length:
        raise LengthMismatch(f"vector lengths differ: {x.length} vs {y.length}")


def _binary_op(x: WittVec, y: WittVec, kind: str) -> WittVec:
    _same_shape(x, y)
    if x.ring.char_p:
        return WittVec(x.ring, x.ring.char_p_witt_op(kind, (x, y)))
    return _transport(GhostVec.add if kind == "sum" else GhostVec.mul, x, y)


def witt_add(x: WittVec, y: WittVec) -> WittVec:
    return _binary_op(x, y, "sum")


def witt_mul(x: WittVec, y: WittVec) -> WittVec:
    return _binary_op(x, y, "prod")


def witt_neg(x: WittVec) -> WittVec:
    ring = x.ring
    if ring.p != 2:
        # componentwise; truncate is the identity unless the ring is truncated
        prec = _min_precision(ring, (x,))
        return WittVec(ring, tuple(ring.truncate(ring.neg(c), prec) for c in x.components))
    if ring.char_p:
        return WittVec(ring, ring.char_p_witt_op("neg", (x,)))
    return _transport(GhostVec.neg, x)


def witt_combination(coeffs: Sequence[int], vecs: Sequence[WittVec]) -> WittVec:
    """sum_j c_j * v_j for integers c_j, in one ghost transport.

    The integer c is the vector whose ghost coordinates all equal c, so the
    combine is the weighted ghost sum sum_j c_j * g_j.  Over a truncated ring
    the result is cut to the minimum input precision, as a chain of
    ``witt_mul`` by ``witt_from_integer`` and ``witt_add`` leaves it.  Rings
    of characteristic p have no transport and are refused.
    """
    if not vecs or len(coeffs) != len(vecs):
        raise LengthMismatch(
            f"{len(coeffs)} coefficients for {len(vecs)} vectors; need one each, at least one"
        )
    ring = vecs[0].ring
    if ring.char_p:
        raise CapabilityMissing(f"{ring.kind}: a characteristic-p ring has no ghost transport")
    for v in vecs[1:]:
        _same_shape(vecs[0], v)

    def weighted(*ghosts: GhostVec) -> GhostVec:
        cover = ghosts[0].ring
        consts = [cover.from_int(c) for c in coeffs]
        entries = []
        for m in range(vecs[0].length):
            acc = cover.zero()
            for c, g in zip(consts, ghosts):
                acc = cover.add(acc, cover.mul(c, g.entries[m]))
            entries.append(acc)
        return GhostVec(cover, tuple(entries))

    return _transport(weighted, *vecs)


def witt_sub(x: WittVec, y: WittVec) -> WittVec:
    return witt_add(x, witt_neg(y))


def witt_eq(x: WittVec, y: WittVec) -> bool:
    _same_shape(x, y)
    return all(x.ring.eq(a, b) for a, b in zip(x.components, y.components))


# -- Frobenius, Verschiebung, Teichmueller ------------------------------------------


def frobenius(x: WittVec) -> WittVec:
    """F: length n+1 -> length n; ghost(F(x))_m = ghost(x)_{m+1}."""
    ring = x.ring
    if x.length < 2:
        raise LengthMismatch("frobenius shortens a vector; need at least 2 components")
    if ring.char_p:
        return WittVec(ring, tuple(ring.pow_(c, ring.p) for c in x.components[:-1]))
    return _transport(lambda g: GhostVec(g.ring, g.entries[1:]), x)


def frobenius_iter(x: WittVec, k: int) -> WittVec:
    for _ in range(k):
        x = frobenius(x)
    return x


def verschiebung(x: WittVec) -> WittVec:
    return WittVec(x.ring, (x.ring.zero(),) + x.components)


def teichmuller(ring: Ring, r, length: int) -> WittVec:
    return WittVec(ring, (r,) + tuple(ring.zero() for _ in range(length - 1)))


def teich_mul(r, x: WittVec) -> WittVec:
    """[r] * x = (r*x_1, r**p * x_p, ...), exact in any ring; each power of
    r is the previous one raised to the p-th power."""
    ring = x.ring
    comps = []
    for i, c in enumerate(x.components):
        if i:
            r = ring.pow_(r, ring.p)
        comps.append(ring.mul(r, c))
    return WittVec(ring, tuple(comps))


def restrict(x: WittVec, top_index: int) -> WittVec:
    if top_index + 1 > x.length:
        raise LengthMismatch(
            f"cannot restrict a length-{x.length} vector to length {top_index + 1}"
        )
    return WittVec(x.ring, x.components[: top_index + 1])


# -- integer constants ------------------------------------------------------------


@lru_cache(maxsize=None)
def integer_witt_components(p: int, c: int, length: int) -> Tuple[int, ...]:
    """Components of the vector with all ghost coordinates equal to c.

    These are integers for every integer c (a classical divisibility fact);
    the computation runs over Z, where the exact divisions of `unghost`
    certify it.
    """
    return unghost(GhostVec(Integers(p), (c,) * length)).components


def witt_from_integer(ring: Ring, c: int, length: int) -> WittVec:
    comps = integer_witt_components(ring.p, c, length)
    return WittVec(ring, tuple(ring.from_int(v) for v in comps))


# -- norms ----------------------------------------------------------------------------


def witt_norm_profile(x: WittVec) -> List[NormValue]:
    """The per-component values |x_{p**i}| ** (1/p**i)."""
    ring = x.ring
    return [ring.seminorm(c).root(ring.p**i) for i, c in enumerate(x.components)]


def witt_norm(x: WittVec) -> NormValue:
    return norm_max(witt_norm_profile(x))


# -- serialization ----------------------------------------------------------------------


def witt_to_json(x: WittVec) -> dict:
    return {
        "ring": x.ring.to_config(),
        "components": [x.ring.elt_to_json(c) for c in x.components],
    }


def format_witt(x: WittVec) -> str:
    return "(" + ", ".join(x.ring.format_elt(c) for c in x.components) + ")"


def split_top_level(text: str) -> List[str]:
    """Split on commas not nested inside (), [], or {}."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise MalformedConfig(f"unbalanced brackets in {_quoted(text)}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth:
        raise MalformedConfig(f"unbalanced brackets in {_quoted(text)}")
    parts.append("".join(current))
    return parts


_TAGGED = re.compile(r"^W\(\s*p\s*=\s*(\w+)\s*;(.*)\)$", re.DOTALL)

# the largest exponent p**(L-1) to which the ghost map of a length-L vector
# raises its first component, and so the largest a vector read from text or
# a coherent family at depth L - 1 may reach: the work grows with it.  It
# allows length 17 at p = 2, 11 at p = 3 and 7 at p = 5; the tests, the
# suites and the benchmark reach 5**4 = 625.
MAX_GHOST_EXPONENT = 2**16
# the largest b * p**e for an entry of b bits that the ghost map raises to
# p**e (e = L - 1 at length L); over Z at p = 2 a 997-bit `mul` took 0.59 s
# at e = 8 and 2.47 s at e = 9.  The tests, suites and benchmark reach 16610
MAX_GHOST_BITS = 2**18


def max_length(p: int) -> int:
    """The longest vector at p whose ghost exponent p**(L-1) is at most
    ``MAX_GHOST_EXPONENT``."""
    length = 1
    while p**length <= MAX_GHOST_EXPONENT:
        length += 1
    return length


def check_entry_bits(p: int, bits: int, e: int) -> None:
    """Refuse an entry of ``bits`` bits raised to p**e past ``MAX_GHOST_BITS``."""
    if bits * p**e > MAX_GHOST_BITS:
        raise MalformedConfig(
            f"an entry of {bits} bits raised to {p}^{e}: {bits}*{p}^{e} = {bits * p**e} "
            f"is above the bound {MAX_GHOST_BITS}"
        )


def parse_witt(ring: Ring, text: str) -> WittVec:
    """Parse either the bare tuple form ``(3, -2)`` or the tagged form
    ``W(p=2; 3, -2)``; the tag's prime must match the ring, and a length
    past ``max_length`` is refused before any component is read, and over a
    p-torsion-free ring a largest numeral past ``check_entry_bits``."""
    body = text.strip()
    tagged = _TAGGED.match(body)
    try:
        tag = integer(tagged.group(1)) if tagged else None
    except ValueError:  # a tag that is no numeral leaves the text untagged
        tag = None
    if tag is not None:
        if tag != ring.p:
            raise MalformedConfig(
                f"vector tagged p={_quoted(tag)} but the ring has p={ring.p}"
            )
        body = tagged.group(2).strip()
    elif body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [s.strip() for s in split_top_level(body)]
    if parts == [""]:
        raise MalformedConfig(f"empty vector: {_quoted(text)}")
    bound = max_length(ring.p)
    if len(parts) > bound:
        raise MalformedConfig(
            f"vector length {len(parts)} is above the bound {bound} at p={ring.p} "
            f"(p^(length-1) at most {MAX_GHOST_EXPONENT})"
        )
    x = WittVec(ring, tuple(ring.parse_elt(s) for s in parts))
    if ring.p_torsion_free:
        bits = max((int(n).bit_length() for n in re.findall(r"[0-9]+", body)), default=0)
        check_entry_bits(ring.p, bits, len(parts) - 1)
    return x
