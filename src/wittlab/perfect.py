"""Perfectness diagnostics along p, with constructive witnesses.

Two conditions are tested for a ring A (always by exact arithmetic, never
numerically):

  (a) every a in A/p is a p-th power in A'/p (A' = A, or one tower level up);
  (b) for every a there is b with b**p = p*a mod p**2.

Both conditions only depend on residues: b**p mod p**2 is determined by
b mod p, so the searches are finite and honest witnesses/counterexamples come
out of enumeration.  Z, Z/p**M, Z[i] and Z[zeta_{p**k}] are all decided by
the one loop ``_check_residues`` over the p**e residue digit tuples of a
rank-e ring.  Each ring hands it the digits of b**p mod q (``pow`` on ints,
``pow_digits_mod`` on the power basis) and its own ``format_elt`` for the
witnesses.  The loop builds the image of b -> b**p mod q once, with
q = p**2 (q = p on Z/p).  Condition (a) reads roots off that image reduced
mod p; condition (b) looks each p*a up in it and records a root of the
a = 1 case as ``root_of_p``.  Z[zeta] residue spaces past 2**16 are
refused (``NotEnumerable``).  Every such instance reports (a) as
{holds, checked, roots_found, witness} and (b) as
{holds, checked_b_residues, witness_a, root_of_p}.

For cyclotomic towers condition (b) reduces to condition (a) through the
element x1 with x1**p = p mod p**2: given a root c of a one level up,
b = x1 * c satisfies b**p = p * c**p = p*a mod p**2.  ``_check_tower`` has
its own loop, on the digits of each level: a root one level up by
``CyclotomicField.mod_p_root``, b**p by ``pow_digits_mod`` on the digits
mod p**2.  Since a is integral, v(b**p - p*a) >= 2 reads as the digits of
b**p and of p*a agreeing mod p**2, which is exact because the power basis is
a Z-basis of Z[zeta] (``CyclotomicField.valuation_at_least`` reads a
valuation bound at an integer the same way).

Root sequences x1, x2, ... with x_{n+1}**p = x_n mod p and exact valuation
v(x_n) = p**(-n) are built constructively: closed forms zeta + 1/zeta for
p = 2, and for p = 3 the seed x1 = u * (1 - zeta_9)**2 in Z[zeta_27], where
the unit u is a cube root mod 3 of 3 / (1 - zeta_9)**6 (that inverse unit
comes from the conductor-9 subring, so its t-support mod 3 is 3-divisible
and the root is read off the uniformizer basis).  Higher levels come from
uniformizer-basis root transport up the tower.  The seed genuinely needs
conductor 27: Z[zeta_9] has elements of valuation 1/3, but none of the 728
nonzero residues mod 3 cubes to 3 mod 9.

``solve_frobenius`` inverts the Frobenius on vectors over Z/p**M greedily
(the mod-p root is unique there, so failures are certified refutations);
``solve_frobenius_normed`` does the same over a tower field after rescaling
into a norm window, and returns a preimage with |y| ** p <= |x|.  It scales
by one Teichmueller unit into the window and one back out, both built from
the powers of the roots x_n that ``RootSequence.power`` memoizes, so the
solves of one sequence share them.  Both solvers run the one digit
recursion ``_digit_solve`` and differ only in how they pick the head root.
The recursion reads each digit equation off ``witt.frobenius`` itself, so
neither solver has a length cap: Z/p**M needs only M >= L + 1 for a
length-L target.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from .cyclotomic import CVec, CyclotomicField, CyclotomicTower, GaussianField
from .errors import (
    CapabilityMissing,
    IntegralityViolation,
    MalformedConfig,
    NoRoot,
    NotEnumerable,
    PrecisionExhausted,
    RescaleInfeasible,
    _quoted,
)
from .norms import NormValue
from .rings import Integers, ZModPM, check_prime, integer_key, size
from .witt import (
    WittVec,
    frobenius,
    teich_mul,
    witt_eq,
    witt_norm,
    witt_zero,
)


# ---------------------------------------------------------------------------
# root sequences
# ---------------------------------------------------------------------------


class RootSequence:
    """Elements x_n in the level-n tower field with v(x_n) = p**(-n),
    x_1**p = p mod p**2, and x_{n+1}**p = x_n mod p."""

    def __init__(self, tower: CyclotomicTower, values: Tuple[CVec, ...]):
        self.tower = tower
        self.values = values  # values[n-1] lives in tower.field(n)
        # x_n**e in tower.field(level), keyed (n, e, level); filled by ``power``
        self._powers: Dict[Tuple[int, int, int], CVec] = {}
        # the certificates, filled by the first ``verify``
        self._checks: Dict[str, bool] = {}

    @property
    def top_level(self) -> int:
        return len(self.values)

    def value(self, n: int) -> CVec:
        return self.values[size("root sequence level", n, 1, self.top_level) - 1]

    def power(self, n: int, e: int, level: int) -> CVec:
        """x_n**e in tower.field(level), for any integer e and level >= n,
        memoized.  The power is taken in x_n's own field and embedded up
        (embedding is a ring map, and a ``CVec`` is canonical, so the bytes
        are those of the power taken up there); a negative e costs one
        ``inv`` of x_n**(-e)."""
        key = (n, e, level)
        got = self._powers.get(key)
        if got is None:
            if level != n:
                got = self.tower.embed_up(n, level, self.power(n, e, n))
            elif e < 0:
                got = self.tower.field(n).inv(self.power(n, -e, n))
            else:
                got = self.tower.field(n).pow_(self.value(n), e)
            self._powers[key] = got
        return got

    def verify(self) -> Dict[str, bool]:
        """The certificates of the sequence, by name, as a fresh dict; they
        are computed once per sequence (``build_root_sequence`` reads them
        first) and memoized like ``power``."""
        if not self._checks:
            self._checks.update(self._certify())
        return dict(self._checks)

    def _certify(self) -> Dict[str, bool]:
        p = self.tower.p
        checks: Dict[str, bool] = {}
        f1 = self.tower.field(1)
        diff = f1.sub(f1.pow_(self.value(1), p), f1.from_int(p))
        checks["x1_pth_power_is_p_mod_p2"] = f1.valuation_at_least(diff, 2)
        for n in range(1, self.top_level + 1):
            fn = self.tower.field(n)
            vn = fn.valuation(self.value(n))
            checks[f"valuation_level_{n}"] = vn == Fraction(1, p ** n)
        for n in range(1, self.top_level):
            hi = self.tower.field(n + 1)
            diff = hi.sub(
                hi.pow_(self.value(n + 1), p),
                self.tower.embed_up(n, n + 1, self.value(n)),
            )
            checks[f"coherence_level_{n}"] = hi.valuation_at_least(diff, 1)
        return checks


def _construct_pth_root_of_p(field: CyclotomicField) -> CVec:
    """Build b with b**p = p mod p**2 inside Q(zeta_{p**3}), p odd.

    Let t = 1 - zeta_{p**2} (valuation 1/(p(p-1))).  The product of
    1 - zeta_{p**2}**j over units j is p, so V = t**(p(p-1)) / p is a global
    unit, and b = u * t**(p-1) has b**p = u**p * p * V.  The congruence
    b**p = p mod p**2 therefore asks for u**p = 1/V mod p.  Since 1/V lies in
    the conductor-p**2 subring, its residue mod p has p-divisible t-support
    in the bigger field, which is exactly the solvability condition for the
    uniformizer-basis root extractor.
    """
    p = field.p
    if field.k != 3:
        raise MalformedConfig(
            f"the seed construction works in conductor p^3, got exponent {field.k}"
        )
    zeta_sub = field.zeta_power(p)  # zeta_{p**2} inside the bigger field
    t = field.sub(field.one(), zeta_sub)
    big = field.pow_(t, p * (p - 1))
    v_unit = field.scalar_mul(Fraction(1, p), big)
    if not field.is_integral(v_unit):
        raise IntegralityViolation("t**(p(p-1)) / p is not integral")
    u = field.mod_p_root(field.inv(v_unit))
    b = field.mul(u, field.pow_(t, p - 1))
    diff = field.sub(field.pow_(b, p), field.from_int(p))
    if not all(c % (p * p) == 0 for c in field.integral_coeffs(diff)):
        raise NoRoot("constructed seed fails b**p = p mod p**2")
    return b


# the largest field degree (p-1)*p**(levels+1) of a root sequence's top level:
# tests, suites and benchmark reach 512 (8 levels at p = 2, 4 at p = 3)
MAX_TOWER_DEGREE = 2**9


def build_root_sequence(p: int, levels: int) -> RootSequence:
    tower = CyclotomicTower(p)
    # before any level is built; a count past the bound's bit length is past it at every p
    if levels > MAX_TOWER_DEGREE.bit_length() or (p - 1) * p ** (levels + 1) > MAX_TOWER_DEGREE:
        raise MalformedConfig(
            f"tower level {_quoted(levels)} at p={p} is above the bound: its field degree "
            f"(p-1)*p^(level+1) must be at most {MAX_TOWER_DEGREE}"
        )
    if p == 2:
        values: List[CVec] = []
        for n in range(1, levels + 1):
            fn = tower.field(n)
            order = 2 ** tower.conductor_exponent(n)
            x = fn.add(fn.zeta(), fn.zeta_power(order - 1))
            values.append(x)
    elif p == 3:
        values = [_construct_pth_root_of_p(tower.field(1))]
        for n in range(1, levels):
            hi = tower.field(n + 1)
            embedded = tower.embed_up(n, n + 1, values[-1])
            values.append(hi.mod_p_root(embedded))
    else:
        raise CapabilityMissing(
            f"root sequences are implemented for p in (2, 3); got p={p}"
        )
    seq = RootSequence(tower, tuple(values))
    failed = [k for k, ok in seq.verify().items() if not ok]
    if failed:
        raise IntegralityViolation(f"root sequence failed checks: {failed}")
    return seq


# ---------------------------------------------------------------------------
# perfectness reports
# ---------------------------------------------------------------------------


class PerfectReport(NamedTuple):
    instance: str
    verdict: str  # "yes", "no", or "yes-up-to-level-K"
    condition_a: Dict[str, Any]
    condition_b: Dict[str, Any]
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "notes": list(self.notes)}


_ZETA_ENUM_LIMIT = 2 ** 16  # the largest Z[zeta] residue space p**e enumerated


def _check_residues(
    name: str,
    p: int,
    e: int,
    pow_mod: Callable[[Tuple[int, ...], int], Tuple[int, ...]],
    format_elt: Callable[[Tuple[int, ...]], str],
    q_exp: int = 2,
) -> PerfectReport:
    """Both conditions for a rank-e ring by enumerating its residues mod p.

    ``pow_mod(digits, q)`` gives the digits of b**p mod q and ``format_elt``
    prints a residue as the ring prints it.  Condition (b) works mod
    q = p**q_exp; condition (a) reads the p-th powers mod p off the same
    image, since b**p mod p is b**p mod q reduced mod p.
    """
    q = p ** q_exp
    residues = list(itertools.product(range(p), repeat=e))
    image_b: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for b in residues:
        image_b.setdefault(pow_mod(b, q), b)
    image_a = {tuple(c % p for c in bp) for bp in image_b}
    missing = [a for a in residues if a not in image_a]
    cond_a = {
        "holds": not missing,
        "checked": len(residues),
        "roots_found": len(residues) - len(missing),
        "witness": format_elt(missing[0]) if missing else None,
    }

    def times_p(a: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(p * c % q for c in a)

    witness_b = next((a for a in residues if times_p(a) not in image_b), None)
    # the a = 1 instance gets its own record: a root of b**p = p mod p**2
    # exists in some single rings (it seeds the tower construction) even
    # when the all-a condition fails
    root_of_p = image_b.get(times_p((1,) + (0,) * (e - 1)))
    cond_b = {
        "holds": witness_b is None,
        "checked_b_residues": len(residues),
        "witness_a": None if witness_b is None else format_elt(witness_b),
        "root_of_p": None if root_of_p is None else list(root_of_p),
    }
    verdict = "yes" if cond_a["holds"] and cond_b["holds"] else "no"
    return PerfectReport(name, verdict, cond_a, cond_b)


_TOWER_EXHAUSTIVE_LIMIT = 1100  # larger tower levels are sampled
# draws per sampled level: the tests, suites and benchmark draw 48, and 256
# draws at p = 3 over 3 levels took 5.9 s
MAX_TOWER_SAMPLES = 2**8


def _check_tower(p: int, top_level: int, rng, samples: int) -> PerfectReport:
    """The tower union: level-k residues get roots one level up.

    Purity of the uniformizer ((1 - zeta_next)**p = 1 - zeta mod p) makes
    every embedded class a p-th power one level up, so condition (a) holds
    structurally at every level; levels with a small residue space are also
    verified exhaustively, larger ones by random sampling against the
    constructive root transport.
    """
    seq = build_root_sequence(p, top_level + 1)
    tower = seq.tower
    x1 = seq.value(1)
    levels: Dict[str, Any] = {}
    notes: List[str] = []
    all_ok = True
    for k in range(1, top_level + 1):
        lo, hi = tower.field(k), tower.field(k + 1)
        purity = tower.check_uniformizer_purity(k)
        exhaustive = p ** lo.e <= _TOWER_EXHAUSTIVE_LIMIT
        if exhaustive:
            pool = list(itertools.product(range(p), repeat=lo.e))
        else:
            pool = [
                tuple(rng.randrange(p) for _ in range(lo.e)) for _ in range(samples)
            ]
            notes.append(
                f"level {k}: residue space {p}^{lo.e} sampled ({samples} draws) "
                "on top of the structural purity certificate"
            )
        roots_ok = 0
        b_ok = 0
        no_root: List[str] = []  # the first residue without a root one level up
        x1_up = tower.embed_up(1, k + 1, x1)
        for coeffs in pool:
            a_up = tower.embed_up(k, k + 1, lo.from_coeffs(coeffs))
            try:
                c = hi.mod_p_root(a_up)
            except NoRoot as exc:
                no_root = no_root or [f"level {k}: residue {list(coeffs)} has no root: {exc}"]
                continue
            roots_ok += 1
            # x1, c and a_up lie in Z[zeta], so b**p = p*a mod p**2 compares
            # the digits of both sides mod p**2
            bp = hi.pow_digits_mod(hi.integral_coeffs(hi.mul(x1_up, c)), p, p * p)
            if bp == tuple(p * d % (p * p) for d in a_up.nums):
                b_ok += 1
        notes += no_root
        ok = purity and roots_ok == len(pool) and b_ok == len(pool)
        all_ok = all_ok and ok
        levels[f"level_{k}"] = {
            "purity_certificate": purity,
            "mode": "exhaustive" if exhaustive else "structural+sampled",
            "residues_checked": len(pool),
            "roots_constructed": roots_ok,
            "b_witnesses_verified": b_ok,
        }
    cond_a = {"holds": all_ok, "levels": levels}
    cond_b = {
        "holds": all_ok,
        "via": "b = x1 * c with x1^p = p mod p^2 and c a root of a one level up",
        "x1_checks": seq.verify(),
    }
    verdict = f"yes-up-to-level-{top_level}" if all_ok else "no"
    return PerfectReport(f"zeta-tower at p={p}", verdict, cond_a, cond_b, tuple(notes))


INSTANCES = ("Z", "Zmod", "Qi", "zeta-ring", "tower")


def witt_perfect_test(config: dict, rng=None) -> PerfectReport:
    """The perfectness report of ``config["instance"]`` at the prime
    ``config["p"]``; its integer keys are checked as a ring config's are."""
    if "instance" not in config:
        raise MalformedConfig("perfectness config needs an 'instance' key")
    inst = config["instance"]
    if inst not in INSTANCES:
        raise MalformedConfig(f"unknown perfectness instance {_quoted(inst)}")
    p = check_prime(config.get("p"))
    if inst in ("Z", "Zmod"):
        ring = Integers(p) if inst == "Z" else ZModPM(p, integer_key(config, "M", inst))
        name, q_exp = ("Z", 2) if inst == "Z" else (ring.label, min(ring.M, 2))
        return _check_residues(
            name, p, 1, lambda b, q: (pow(b[0], p, q),),
            lambda d: ring.format_elt(ring.from_int(d[0])), q_exp=q_exp,
        )
    if inst in ("Qi", "zeta-ring"):
        if inst == "Qi":
            field, name = GaussianField(p), f"Z[i] at p={p}"
        else:
            k = integer_key(config, "k", inst)
            field, name = CyclotomicField(p, k), f"Z[zeta_{p}^{k}]"
            if p ** field.e > _ZETA_ENUM_LIMIT:
                raise NotEnumerable(
                    f"residue space {p}^{field.e} exceeds the enumeration limit"
                )
        return _check_residues(
            name, p, field.e, lambda b, q: field.pow_digits_mod(b, p, q),
            lambda d: field.format_elt(field.from_coeffs(d)),
        )
    if rng is None:
        import random

        rng = random.Random(0)
    # no level or no draw would check nothing and say yes; the tower degree bounds levels
    levels = size("tower levels", config.get("levels", 1), 1)
    samples = size("tower samples", config.get("samples", 48), 1, MAX_TOWER_SAMPLES)
    return _check_tower(p, levels, rng, samples)


# ---------------------------------------------------------------------------
# exact Frobenius preimages
# ---------------------------------------------------------------------------


_DIVISIBLE = NormValue.from_exponent(1)  # |z| <= p**-1: z is divisible by p


def _digit_solve(W, comps, p, head):
    """Greedy digit recursion for F(y) = comps over the ring W (Z/p**M or a
    tower field), starting from the head root ``head`` of comps[0] mod p.

    Digit equation i reads y_i**p + p*f_i(y) off F(y_0, ..., y_i, 0)_i (the
    head equation off ``pow_``); comps[i] minus it is p * y_{i+1}, found by
    an exact division by p, and the only freedom is the head root.  Returns
    (ys, None) on success or (partial, (index, rhs)) when a digit equation
    is not divisible by p.
    """
    ys = [head]
    for i in range(len(comps)):
        if i:
            image = frobenius(WittVec(W, (*ys, W.zero()))).components[i]
        else:
            image = W.pow_(head, p)
        rhs = W.sub(comps[i], image)
        if not W.seminorm(rhs) <= _DIVISIBLE:
            return ys, (i, rhs)
        ys.append(W.exact_divide_by_p(rhs))
    return ys, None


def solve_frobenius(x: WittVec) -> Tuple[WittVec, dict]:
    """Solve F(y) = x over Z/p**M, any length L <= M - 1, by the greedy digit
    algorithm.

    The mod-p root in the first step is unique (x -> x**p is a bijection on
    Z/p), so later divisibility failures certify that no preimage exists.
    Each division by p costs one digit: the result's components have
    precision M, M-1, ..., M-L, and F(y) = x is checked exactly at their
    minimum M-L, the report's ``verified_at_precision``."""
    ring = x.ring
    if not isinstance(ring, ZModPM):
        raise CapabilityMissing("greedy Frobenius solving works over Z/p^M bases")
    p, L = ring.p, x.length
    if ring.M < L + 1:
        raise PrecisionExhausted(
            f"solving for a length-{L} vector needs modulus exponent >= {L + 1}, got {ring.M}"
        )
    ys, failure = _digit_solve(ring, x.components, p, ring.pth_root_mod_p(x.components[0]))
    if failure is not None:
        raise NoRoot(
            f"no Frobenius preimage: digit equation {failure[0]} is not divisible by {p} "
            f"(certified: the mod-p root in step 0 is unique)"
        )
    y = WittVec(ring, tuple(ys))
    check = witt_eq(frobenius(y), x)
    if not check:
        raise IntegralityViolation("greedy preimage failed verification")
    precisions = [ring.precision_of(c) for c in ys]
    return y, {
        "solved": True,
        "output_precisions": precisions,
        "verified_at_precision": min(precisions),
    }


def _window_parameters(
    g: Fraction, p: int, top_exp: int, max_level: int
) -> Tuple[int, int]:
    """Smallest level n (and integer m) with g < m/p**(n-1) < g + p**-(top_exp+1).

    The width p**(n-1-(top_exp+1)) exceeds 1 once n = top_exp + 3, and an open
    interval of width >= 2 always contains an integer, so the search is
    guaranteed to succeed by that level."""
    width = Fraction(1, p ** (top_exp + 1))
    for n in range(1, max_level + 1):
        scale = p ** (n - 1)
        lo = g * scale
        m = math.floor(lo) + 1
        if Fraction(m) < (g + width) * scale:
            return n, m
    raise RescaleInfeasible(
        f"no scaling window of width {width} below level {max_level}; "
        "extend the root sequence"
    )


def solve_frobenius_normed(
    seq: RootSequence, x_level: int, x: WittVec
) -> Tuple[WittVec, dict]:
    """Solve F(y) = x over a tower field with the bound |y|**p <= |x|.

    The vector is rescaled by one Teichmueller unit [s] so its norm sits in
    the window (p**(-1/p**(i+1)), 1), i the top component index: with
    s = p**(-p*k) * x_n**(p*m), the power of p lands the norm just above 1
    and the exponent m/p**(n-1) of the root x_n is chosen inside a rational
    interval.  The preimage is scaled back out by the one unit [u],
    u = p**k * x_n**(-m).  Both root powers come from ``seq.power``, so a
    sequence builds them once per window.  In the window the head
    component has a mod-p root one tower level up and the remaining digits
    follow by exact divisions.  A length-2 digit equation can land on the
    wrong branch of the head root (mod-p roots are unique only up to the
    Frobenius kernel); the defect is repaired by shifting the head root by
    x_1 * w, where w is a p**2-th root of the negated defect taken two more
    levels up: x_1**p = p * (1 + p*h) makes every cross term vanish mod p,
    so the shifted branch divides exactly.  Undoing the scaling preserves
    exactness; both F(y) = x and the norm contract are checked exactly
    before returning.
    """
    tower = seq.tower
    p = tower.p
    F0 = tower.field(x_level)
    x.ring.require_same(F0)
    L = x.length
    c = witt_norm(x)
    report: dict = {"trivial": False}
    if c.is_zero:
        return witt_zero(F0, L + 1), {"trivial": True, "exact": True, "norm_contract": True}
    h = c.v
    k = max(0, math.floor(h / p) + 1) if h >= 0 else 0
    g = p * k - h  # = -log_p of the prescaled norm, strictly positive
    if g <= 0:
        raise RescaleInfeasible(f"prescaling failed: residual exponent {g}")
    n, m = _window_parameters(g, p, x.top_index, seq.top_level)

    def window_vector(lvl: int):
        """x over tower.field(lvl) and its scaling [s] * x into the window,
        s = p**(-p*k) * x_n**(p*m)."""
        Wl = tower.field(lvl)
        Xl = WittVec(
            Wl, tuple(tower.embed_up(x_level, lvl, cmp) for cmp in x.components)
        )
        s = Wl.scalar_mul(Fraction(1, p ** (p * k)), seq.power(n, p * m, lvl))
        return Wl, Xl, teich_mul(s, Xl)

    Lw = max(x_level, n) + 1
    W, X, x_prime = window_vector(Lw)

    cp = witt_norm(x_prime)
    window_lo = NormValue.p_power(Fraction(-1, p ** (x.top_index + 1)))
    if not (window_lo < cp and cp < NormValue.one()):
        raise RescaleInfeasible(
            f"scaled norm {cp.text()} escaped the window ({window_lo.text()}, 1)"
        )
    nu = cp.v  # window norm is p**(-nu) with 0 < nu < 1/p**(s+1)

    def shift_head(head_low, defect, k: int):
        """The level k above Lw and the head root there shifted by x_1 * w,
        w a p**k-th root of the defect taken one mod-p root per level climbed.
        x_1**p = p*(1 + p*h) hands every cross term an extra factor of p."""
        lvl, w = Lw, defect
        for _ in range(k):
            lvl += 1
            w = tower.field(lvl).mod_p_root(tower.embed_up(lvl - 1, lvl, w))
        F = tower.field(lvl)
        x1 = tower.embed_up(1, lvl, seq.value(1))
        return lvl, F.add(tower.embed_up(Lw, lvl, head_low), F.mul(x1, w))

    # Head root, refined once when the forced digit (x'_0 - r**p)/p would be
    # too large for the contract: the shift by a root of that digit one level
    # up pushes the head-root precision past 1 + 1/p.
    head = W.mod_p_root(x_prime.components[0])
    gap = W.exact_divide_by_p(W.sub(x_prime.components[0], W.pow_(head, p)))
    vgap = W.valuation(gap)
    refined = False
    if not (vgap is None or vgap >= nu):
        Lw, head = shift_head(head, gap, 1)
        W, X, x_prime = window_vector(Lw)
        refined = True

    ys, failure = _digit_solve(W, x_prime.components, p, head)
    fixed = False
    if failure is not None:
        i, rhs = failure
        if i != 1:
            raise NoRoot(
                f"digit equation {i} is not divisible by {p} and only the "
                "length-2 branch repair is implemented"
            )
        Lw, seed = shift_head(head, W.neg(rhs), 2)
        W, X, x_prime = window_vector(Lw)
        ys, failure = _digit_solve(W, x_prime.components, p, seed)
        if failure is not None:
            raise NoRoot(
                f"digit equation {failure[0]} still fails after the branch repair"
            )
        fixed = True

    # the scaling back out: [u] with u = p**k * x_n**(-m), so u**p = 1/s
    u = W.scalar_mul(p ** k, seq.power(n, -m, Lw))
    y = teich_mul(u, WittVec(W, tuple(ys)))

    if not witt_eq(frobenius(y), X):
        raise IntegralityViolation("normed preimage failed the exact F(y) = x check")

    # embedding keeps the normalized valuation, so |X| = |x| = c
    contract = witt_norm(y).pow(p) <= c
    report.update(
        {
            "k": k,
            "n": n,
            "m": m,
            "window_exponent": str(nu),
            "working_level": Lw,
            "exact": True,
            "norm_contract": bool(contract),
            "head_refined": refined,
            "digit_fix": fixed,
        }
    )
    if not contract:
        raise IntegralityViolation("norm contract |y|^p <= |x| failed")
    return y, report
