"""Finite-precision tilting of truncated rings, and the comparison map back.

A ``TiltElt`` over a truncated base A (p**M digits) is a coherent p-power-root
chain (x_0, ..., x_D) with x_{m+1}**p = x_m at the stored precision.  Chains
form a ring of characteristic p:

  multiplication is componentwise, and the sum of two chains has component

      z_m = (x_{m+l} + y_{m+l}) ** (p**l),        l = min(M, D - m),

  truncated to l+1 digits.  The fixed power replaces a limit: successive
  choices of l agree mod p**(l+1), because the component sums s_l satisfy
  s_{l+1}**p = s_l mod p and a**(p**l) mod p**(l+1) depends only on a mod p.
  No iteration to convergence is needed, and the precision profile
  min(D - m + 1, M) is stable under repeated addition (the p**l-th power
  regains every digit the inputs lost).

  The same dependence on a mod p alone makes the sum cheap: every slot
  m >= D - M reads the one top sum x_D + y_D, so ``tilt_add`` takes it mod p
  and walks one ladder of p-th powers down from slot D, each step gaining
  the one digit its slot certifies.  Only when D > M do the slots
  m < D - M raise their own sum at slot m + M to the p**M-th power.

The same mod-p dependence shows the whole ring structure is the perfection of
A/p presented at finite depth; over Z/p**M every chain collapses to the
Teichmueller chain of its residue, so that tilt is F_p.

There is one chain API: ``TiltRing(A, D)`` is the ring of depth-D chains,
and its methods are the constants, sum, negative, product, equality, zero
test, Frobenius powers, norm, text form and enumeration of chains, each
operand checked to be a depth-D chain over A.  Beside it stay only the chain
functions the Witt layer and the benchmark call on bare chains:
``make_tilt``, ``tilt_from_top``, ``tilt_add``, ``tilt_mul``,
``tilt_to_json``, and ``tilt_pth_root``, which changes the depth and so
leaves the ring.

Char-p Witt ops over the tilt are computed by the base's ghost transport.
Each component is a structure polynomial image, which the generic evaluator
would finish with a chain sum; that sum reads only its slot sums mod p, at
slot D and, when D > M, at slots M..D-1.  The slot map x -> x_s mod p is a
ring map to A/p, and so is W(A) -> W(A/p).  So ``TiltRing.char_p_witt_op``
cuts the operands' slot-s entries to one digit and runs the base ring's
``witt_add``, ``witt_mul`` or (p = 2) ``witt_neg`` on the whole vectors, once
per slot the ladder reads; component i of that one transport is component
i's slot-s sum.  Each component then walks the one ladder ``tilt_add``
walks: no structure polynomial is evaluated and no chain product or chain
sum is formed.

``charp_overconv_norm`` and ``charp_limit_norm`` compute the b-weighted norm
of a finite vector over a char-p perfect ring two ways: by the closed formula

    sup_j  p**(-b*j) * |x_{p^j}| ** (1/p**j)

and through the coherent-family realization z_n = restrict(F**(-n) x, n).
For a finite vector the family's terms at depths beyond the stored length
repeat an already-seen prefix maximum with a strictly smaller weight, so the
finite supremum is the true one and the two computations agree exactly.

``untilt`` sends a vector over the tilt back to a coherent family over A,
component p^j contributing p**j times the Teichmueller family of its chain
shifted by j.  Level n of the family is sum_j p**j * [r_{j,n}] in W_{n+1}(A),
r_{j,n} the entry j + n of chain j, computed as one ghost transport over A
(``witt_combination``, whose combine is the weighted ghost sum) and cut to
the minimum input precision, as a chain of arrow products and sums would
leave it.  The comparison is isometric for weights 0 < b <= 1 only; the
checker refuses larger b.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

from .arrow import ArrowElt, arrow_norm, arrow_teichmuller, check_family_depth, make_arrow
from .errors import (
    BOutOfRange,
    CapabilityMissing,
    DepthExceeded,
    InsufficientDepth,
    LengthMismatch,
    MalformedConfig,
    RingMismatch,
    _quoted,
)
from .norms import NormValue, as_fraction, norm_max
from .perfpoly import PerfPolyRing
from .rings import Ring
from .witt import WittVec, witt_add, witt_combination, witt_mul, witt_neg, witt_norm_profile


def _truncated_modulus(ring: Ring) -> int:
    if ring.truncated:
        return ring.M
    raise CapabilityMissing(
        f"tilting needs a truncated base with a digit budget; got {ring.kind}"
    )


class TiltElt(NamedTuple):
    """A coherent chain (x_0, ..., x_D) over a truncated base, x_{m+1}**p = x_m."""

    base: Ring
    entries: Tuple[Any, ...]

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def __repr__(self) -> str:
        return f"TiltElt(depth={self.depth}, base={self.base!r})"


def make_tilt(base: Ring, entries: Sequence[Any], validate: bool = True) -> TiltElt:
    _truncated_modulus(base)
    if not entries:
        raise LengthMismatch("a tilt element needs at least one chain entry")
    if validate:
        for m in range(len(entries) - 1):
            if not base.eq(base.pow_p_tower(entries[m + 1], 1), entries[m]):
                raise LengthMismatch(
                    f"chain entries {m}/{m + 1} are not p-th-power coherent"
                )
    return TiltElt(base, tuple(entries))


def _check_depth(depth: int) -> int:
    if not isinstance(depth, int) or depth < 0:
        raise MalformedConfig(f"tilt depth must be a non-negative integer, got {depth!r}")
    return depth


def tilt_from_top(base: Ring, top: Any, depth: int) -> TiltElt:
    """The chain determined by its deepest entry: x_m = top ** (p**(D-m))."""
    _truncated_modulus(base)
    _check_depth(depth)
    entries = [top]
    for _ in range(depth):
        entries.append(base.pow_p_tower(entries[-1], 1))
    entries.reverse()
    return TiltElt(base, tuple(entries))


def _check_pair(x: TiltElt, y: TiltElt) -> Ring:
    x.base.require_same(y.base)
    if x.depth != y.depth:
        raise LengthMismatch(f"tilt depths differ: {x.depth} vs {y.depth}")
    return x.base


def tilt_add(x: TiltElt, y: TiltElt) -> TiltElt:
    """Chain sum, each component as a fixed p**l-th power of a deeper sum.

    Component m is (x_{m+l} + y_{m+l}) ** (p**l) with l = min(M, D - m),
    certified to min(D - m + 1, M) digits.  For m >= D - M that is the top
    sum: it is taken mod p (the power reads nothing more) and one ladder of
    p-th powers, one digit per step, yields slots D, D - 1, ..., max(D - M,
    0).  When D > M, each slot m < D - M raises its own sum at slot m + M to
    the p**M-th power.
    """
    base = _check_pair(x, y)
    _truncated_modulus(base)
    return _ladder_chain(base, x.depth, lambda s: base.add(x.entries[s], y.entries[s]))


def _ladder_chain(base: Ring, D: int, slot_sum: Callable[[int], Any]) -> TiltElt:
    """The chain ``tilt_add`` returns, given the sum at slot s as slot_sum(s).

    Only the sums mod p are read, and only at slot D and, when D > M, at the
    slots M, ..., D - 1 (slot m + M feeds component m < D - M).
    """
    M = base.M
    low = max(D - M, 0)
    entries = [base.pow_p_tower(slot_sum(m + M), M) for m in range(low)]
    # ladder[j] is slot D - j, known to min(j + 1, M) digits
    ladder = [base.truncate(slot_sum(D), 1)]
    for _ in range(D - low):
        ladder.append(base.pow_p_tower(ladder[-1], 1))
    entries.extend(reversed(ladder))
    return TiltElt(base, tuple(entries))


def tilt_mul(x: TiltElt, y: TiltElt) -> TiltElt:
    base = _check_pair(x, y)
    entries = tuple(base.mul(a, b) for a, b in zip(x.entries, y.entries))
    return TiltElt(base, entries)


def tilt_pth_root(x: TiltElt) -> TiltElt:
    """The exact p-th root: drop the head.  Costs one level of depth."""
    if x.depth < 1:
        raise DepthExceeded("a p-th root consumes one chain level; depth 0 given")
    return TiltElt(x.base, x.entries[1:])


def tilt_to_json(x: TiltElt) -> dict:
    return {
        "base": x.base.to_config(),
        "entries": [x.base.elt_to_json(e) for e in x.entries],
    }


_BASE_OPS = {"sum": witt_add, "prod": witt_mul, "neg": witt_neg}

_ENUMERATION_LIMIT = 100000  # the largest base whose tilt ``TiltRing.elements`` lists


class TiltRing(Ring):
    """The tilt of a truncated base, as a ring of coherent chains at a fixed
    depth.  Characteristic p; the norm of a chain is the norm of its head.

    Every method checks its operands (``_own``): a chain over another base or
    at another depth is refused.
    """

    kind = "tilt"
    config_keys = ("base", "depth")  # the base is a nested config: see to_config
    char_p = True
    p_torsion_free = False

    def __init__(self, base: Ring, depth: int):
        self.M = _truncated_modulus(base)
        self.base = base
        self.depth = _check_depth(depth)
        self.p = base.p

    def to_config(self) -> dict:
        return {"kind": self.kind, "base": self.base.to_config(), "depth": self.depth}

    def _own(self, x: TiltElt) -> TiltElt:
        if not isinstance(x, TiltElt) or not self.base.same_ring(x.base):
            raise RingMismatch("element does not belong to this tilt ring")
        if x.depth != self.depth:
            raise LengthMismatch(
                f"this tilt ring holds depth-{self.depth} chains, got depth {x.depth}"
            )
        return x

    def from_int(self, n: int) -> TiltElt:
        """The stable chain of an integer: its Teichmueller value repeated.

        omega = n**(p**M) is fixed by the p-th power map mod p**M (the iterates
        of an integer stabilize after M - 1 steps), so the constant chain is
        coherent at full precision.
        """
        omega = self.base.pow_p_tower(self.base.from_int(n), self.M)
        return TiltElt(self.base, (omega,) * (self.depth + 1))

    def elements(self) -> List[TiltElt]:
        """Every coherent chain, in the order of the base's ``elements``: one
        per choice of deepest entry, since the rest of the chain is determined
        by powering down."""
        base = self.base
        return [tilt_from_top(base, top, self.depth) for top in base.elements(_ENUMERATION_LIMIT)]

    def add(self, a: TiltElt, b: TiltElt) -> TiltElt:
        return tilt_add(self._own(a), self._own(b))

    def neg(self, a: TiltElt) -> TiltElt:
        """Additive inverse: the chain itself at p = 2 (characteristic 2), the
        componentwise negation at odd p (where (-a)**p = -(a**p))."""
        a = self._own(a)
        if self.p == 2:
            return a
        return TiltElt(self.base, tuple(self.base.neg(e) for e in a.entries))

    def mul(self, a: TiltElt, b: TiltElt) -> TiltElt:
        return tilt_mul(self._own(a), self._own(b))

    def eq(self, a: TiltElt, b: TiltElt) -> bool:
        pairs = zip(self._own(a).entries, self._own(b).entries)
        return all(self.base.eq(x, y) for x, y in pairs)

    def is_zero(self, a: TiltElt) -> bool:
        return all(self.base.is_zero(e) for e in self._own(a).entries)

    def char_p_witt_op(self, kind: str, vecs: Sequence[WittVec]) -> Tuple[TiltElt, ...]:
        """The components of the char-p Witt op ``kind``, from one base-ring
        Witt op per chain slot the ladder reads.

        The generic evaluator ends each component in ``tilt_add``, which reads
        its slot sums only mod p.  x -> x_s mod p is a ring map, and so is
        W(A) -> W(A/p), so the slot-s sums of every component are the base
        ring's op on the operands' slot-s vectors cut to one digit.
        """
        chains = [[self._own(c) for c in v.components] for v in vecs]
        base, D = self.base, self.depth

        def slot_vec(cs: List[TiltElt], s: int) -> WittVec:
            return WittVec(base, tuple(base.truncate(c.entries[s], 1) for c in cs))

        op = _BASE_OPS[kind]
        slots = [D, *range(self.M, D)]
        sums = {s: op(*(slot_vec(cs, s) for cs in chains)).components for s in slots}
        return tuple(
            _ladder_chain(base, D, lambda s: sums[s][i]) for i in range(len(chains[0]))
        )

    def pow_p_tower(self, a: TiltElt, l: int) -> TiltElt:
        """a ** (p**l): each Frobenius moves the chain one slot down, with the
        p-th power of the head as the new head."""
        entries = self._own(a).entries
        for _ in range(l):
            entries = (self.base.pow_p_tower(entries[0], 1),) + entries[:-1]
        return TiltElt(self.base, entries)

    def valuation(self, a: TiltElt) -> Any:
        """The norm of a chain is the norm of its head entry."""
        return self.base.valuation(self._own(a).entries[0])

    def format_elt(self, a: TiltElt) -> str:
        return "[" + "; ".join(self.base.format_elt(e) for e in self._own(a).entries) + "]"

    def parse_elt(self, text: str) -> TiltElt:
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise MalformedConfig(f"a tilt element looks like '[x0; x1; ...]', got {_quoted(text)}")
        parts = [p.strip() for p in body[1:-1].split(";") if p.strip()]
        if not parts:
            raise MalformedConfig("a tilt element needs at least one chain entry")
        return self._own(make_tilt(self.base, [self.base.parse_elt(p) for p in parts]))

    def elt_to_json(self, a: TiltElt) -> Any:
        return [self.base.elt_to_json(e) for e in self._own(a).entries]


# -- norms over characteristic-p perfect rings ------------------------------------------


def _require_char_p(ring: Ring) -> None:
    if not ring.char_p:
        raise CapabilityMissing(
            f"this norm is for vectors over characteristic-p rings; got {ring.kind}"
        )


def charp_overconv_profile(x: WittVec, b) -> List[NormValue]:
    """Per-index values p**(-b*j) * |x_{p^j}| ** (1/p**j): the
    ``witt_norm_profile`` of x weighted by p**(-b*j)."""
    _require_char_p(x.ring)
    b = as_fraction(b)
    if b <= 0:
        raise BOutOfRange(f"the weight b must be positive, got {b}")
    return [v.scale_exponent(b * j) for j, v in enumerate(witt_norm_profile(x))]


def charp_overconv_norm(x: WittVec, b) -> NormValue:
    """sup_j p**(-b*j) |x_{p^j}|**(1/p**j), exact for a stored finite vector."""
    return norm_max(charp_overconv_profile(x, b))


def charp_arrow_realization(x: WittVec) -> ArrowElt:
    """The coherent family of a finite vector over a char-p perfect ring, one
    level per component.

    Frobenius is the componentwise p-th power there, so level n is the
    componentwise p**n-th root of the first n+1 components.  Root extraction
    may refuse (NoRoot) when the ring cannot divide exponents by p any
    further; callers pick representable inputs.
    """
    ring = x.ring
    _require_char_p(ring)
    N = x.top_index
    chains: List[List[Any]] = []
    for c in x.components:
        chain = [c]
        for _ in range(N):
            chain.append(ring.pth_root_mod_p(chain[-1]))
        chains.append(chain)
    levels = [
        WittVec(ring, tuple(chains[i][n] for i in range(n + 1))) for n in range(N + 1)
    ]
    return make_arrow(ring, levels)


def charp_limit_norm(x: WittVec, b) -> dict:
    """The b-weighted norm through the coherent-family realization, compared
    with the closed sup-formula.

    Past the deepest stored level every term repeats an already-attained
    prefix maximum under a strictly smaller weight p**(-b*n), so the finite
    supremum is the true limit value and the two must agree exactly.
    """
    realization = charp_arrow_realization(x)
    norm = arrow_norm(realization, b)
    formula = charp_overconv_norm(x, norm.b)
    return {
        "limit_exponent": norm.value.exponent_json(),
        "formula_exponent": formula.exponent_json(),
        "passed": norm.value == formula,
        "depth": realization.depth,
        "b": str(norm.b),
    }


# -- growth families ---------------------------------------------------------------------


def growth_family(ring: PerfPolyRing, C: int, D: int, length: int) -> WittVec:
    """The vector with components x0**((C*j + D) * p**j), the stock family
    whose degrees meet the bound deg f_{p^j} <= C*j*p**j + D*p**j with
    equality."""
    if not isinstance(ring, PerfPolyRing):
        raise CapabilityMissing("growth families live over perfected polynomial rings")
    comps = []
    for j in range(length):
        deg = (C * j + D) * ring.p ** j
        exps = [deg] + [0] * (ring.nvars - 1)
        comps.append(ring.monomial(exps))
    return WittVec(ring, tuple(comps))


def growth_profile_report(x: WittVec, b, C: int, D: int) -> dict:
    """Check the degree bound against the declared (C, D) and classify the
    b-weighted profile.

    With equality degrees the j-th term is p**((C - b)*j + D): for b >= C the
    profile is non-increasing and the supremum p**D sits at j = 0; for b < C
    it is strictly increasing, which certifies divergence as the length grows.
    ``passed`` says the degree bound holds and the profile has the predicted
    shape.
    """
    ring = x.ring
    if not isinstance(ring, PerfPolyRing):
        raise CapabilityMissing("growth families live over perfected polynomial rings")
    b = as_fraction(b)
    degree_ok = True
    for j, c in enumerate(x.components):
        deg = ring.degree(c)
        if deg is not None and deg > (C * j + D) * ring.p ** j:
            degree_ok = False
    profile = charp_overconv_profile(x, b)
    value = norm_max(profile)
    nonincreasing = all(
        not (profile[j] < profile[j + 1]) for j in range(len(profile) - 1)
    )
    increasing = all(
        profile[j] < profile[j + 1] for j in range(len(profile) - 1)
    )
    sup_at_head = bool(profile) and profile[0] == value
    if b >= C:
        shape_ok = nonincreasing and sup_at_head and value == NormValue.p_power(D)
    else:
        shape_ok = increasing
    return {
        "degree_bound_holds": degree_ok,
        "b": str(b),
        "C": C,
        "D": D,
        "sup_exponent": value.exponent_json(),
        "sup_at_head": sup_at_head,
        "nonincreasing": nonincreasing,
        "strictly_increasing": increasing,
        "bounded_predicted": b >= C,
        "passed": degree_ok and shape_ok,
    }


# -- the comparison map ------------------------------------------------------------------


def untilt(x: WittVec, N: int) -> ArrowElt:
    """Send a vector over the tilt of A back to a coherent family over A.

    Component p^j contributes p**j times the Teichmueller family of its
    chain shifted j slots down (the shift supplies the p**j-th roots the
    j-th summand needs), so the stored chains must reach depth N + j.  Each
    family's roots are checked for p-power coherence, which is its Frobenius
    coherence (``arrow_teichmuller``); level n of the sum is one ghost
    transport over the base (``witt_combination``), N + 1 in all.
    """
    ring = x.ring
    if not isinstance(ring, TiltRing):
        raise CapabilityMissing("untilt expects a vector over a tilt ring")
    if N < 0:
        raise MalformedConfig(f"the untilt family depth must be >= 0, got {N}")
    check_family_depth(ring.p, N)
    base = ring.base
    need = N + x.top_index
    if ring.depth < need:
        raise InsufficientDepth(
            f"component p^{x.top_index} at family depth {N} reads chain slot "
            f"{need}; stored chains have depth {ring.depth}"
        )
    families = [
        arrow_teichmuller(base, [chain.entries[j + n] for n in range(N + 1)])
        for j, chain in enumerate(x.components)
    ]
    weights = [base.p ** j for j in range(len(families))]
    levels = tuple(
        witt_combination(weights, [f.levels[n] for f in families]) for n in range(N + 1)
    )
    # the tail bound a sum of products with the integer families carries
    bounds = [f.tail_bound for f in families]
    tail = None if any(b is None for b in bounds) else norm_max([NormValue.one(), *bounds])
    return ArrowElt(base, levels, tail)


def untilt_isometry(x: WittVec, N: int, b) -> dict:
    """Compare the family norm of untilt(x) with the char-p formula.

    The comparison is an isometry only for 0 < b <= 1; larger weights are
    refused rather than extrapolated (the two sides genuinely differ there).
    """
    b = as_fraction(b)
    if b <= 0 or b > 1:
        raise BOutOfRange(
            f"the untilt comparison is isometric only for 0 < b <= 1, got {b}"
        )
    family = untilt(x, N)
    lhs = arrow_norm(family, b)
    rhs = charp_overconv_norm(x, b)
    return {
        "b": str(b),
        "family_exponent": lhs.value.exponent_json(),
        "family_status": lhs.status,
        "charp_exponent": rhs.exponent_json(),
        "isometric": lhs.value == rhs,
    }
