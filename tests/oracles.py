"""Independent reimplementations used as oracles by the tests.

Everything here is computed from first principles (direct formulas, trial
division, convolution, determinants) so the package never checks itself.
The integer ghost map, its inverse and the cyclotomic convolution are not
repeated here: the tests call ``wittlab.reference``, the standard-library-only
module that the verification suites re-check with too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from wittlab import reference


def naive_ring_ghost(ring, components: Sequence) -> Tuple:
    """Ghost coordinates over any ring, every power x_i^(p^(m-i)) taken
    directly by one ring.pow_: the loop ``witt.ghost`` ran before its
    ladder."""
    p = ring.p
    entries = []
    for m in range(len(components)):
        acc = ring.zero()
        for i in range(m + 1):
            term = ring.pow_(components[i], p ** (m - i))
            if i:
                term = ring.mul(ring.from_int(p**i), term)
            acc = ring.add(acc, term)
        entries.append(acc)
    return tuple(entries)


def naive_ring_unghost(ring, entries: Sequence) -> Tuple:
    """The inverse of ``naive_ring_ghost`` over a p-torsion-free ring, with
    the same direct powers and one exact division by p at a time."""
    p = ring.p
    comps: List = []
    for m, w in enumerate(entries):
        acc = w
        for i in range(m):
            term = ring.pow_(comps[i], p ** (m - i))
            if i:
                term = ring.mul(ring.from_int(p**i), term)
            acc = ring.sub(acc, term)
        for _ in range(m):
            acc = ring.exact_divide_by_p(acc)
        comps.append(acc)
    return tuple(comps)


class RationalsOracle:
    """Q at the prime p, on Fractions, through the part of the ring interface
    that ``naive_ring_ghost`` and ``naive_ring_unghost`` read."""

    def __init__(self, p: int):
        self.p = p

    def zero(self) -> Fraction:
        return Fraction(0)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow_(self, a, n: int):
        return a**n

    def exact_divide_by_p(self, a):
        return a / self.p


def ghost_transport(cover, kind: str, *vecs: Sequence) -> Tuple:
    """The components of ``kind`` (sum, prod, neg or frob) of these component
    lists over a p-torsion-free ring: ghost each with direct powers, combine
    the ghost entries (frob drops the first) and unghost one division by p
    at a time."""
    ws = [naive_ring_ghost(cover, v) for v in vecs]
    if kind == "sum":
        g = [cover.add(a, b) for a, b in zip(*ws)]
    elif kind == "prod":
        g = [cover.mul(a, b) for a, b in zip(*ws)]
    elif kind == "neg":
        g = [cover.neg(a) for a in ws[0]]
    else:
        g = ws[0][1:]
    return naive_ring_unghost(cover, g)


def cover_transport(ring, kind: str, *vecs: Sequence) -> Tuple:
    """``kind`` over Z, Z/p^M, Z[zeta]/p^M or a Q-algebra as a transport
    through a cover computes it.  Z and Z/p^M lift each component's integer
    (the canonical residue for Z/p^M) to a Fraction and transport over Q;
    Z[zeta]/p^M lifts its digits to an integral element of ``ring.field``; a
    Q-algebra is its own cover.  The results must be integral, and over a
    truncated ring every one is reduced at the minimum input precision."""
    if ring.kind in ("Z", "Zmod"):
        cover = RationalsOracle(ring.p)
        lifted = [[Fraction(ring.digits(c)[0] if ring.truncated else c) for c in v] for v in vecs]
    elif ring.kind == "ZzetaMod":
        cover = ring.field
        lifted = [[cover.from_coeffs(list(c.coeffs)) for c in v] for v in vecs]
    else:
        return ghost_transport(ring, kind, *vecs)
    out = ghost_transport(cover, kind, *lifted)
    if ring.kind == "Z":
        assert all(q.denominator == 1 for q in out), out
        return tuple(q.numerator for q in out)
    prec = min(c.prec for v in vecs for c in v)
    if ring.kind == "Zmod":
        assert all(q.denominator == 1 for q in out), out
        return tuple(ring.from_digits([q.numerator], prec) for q in out)
    return tuple(ring.from_digits(cover.integral_coeffs(c), prec) for c in out)


def naive_teich_mul(ring, r, components: Sequence) -> Tuple:
    """[r] * x = (r*x_1, r^p * x_p, ...), each r^(p^i) taken directly."""
    return tuple(ring.mul(ring.pow_(r, ring.p**i), c) for i, c in enumerate(components))


def vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int) -> int:
    q = Fraction(q)
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def t_power_row(p: int, i: int, e: int) -> List[int]:
    """The power-basis coefficients of (1 - zeta)**i mod p for i < e, by the
    binomial theorem: (-1)**j * C(i, j) at zeta**j, with no power of zeta
    reaching e."""
    return [(-1) ** j * math.comb(i, j) % p for j in range(e)]


@lru_cache(maxsize=None)
def t_basis_rows(p: int, e: int) -> Tuple[Tuple[int, ...], ...]:
    """Row i holds the power-basis coefficients of (1 - zeta)**i mod p, i < e:
    row i + 1 is row i minus row i shifted up one place (Pascal's rule), and
    no power of zeta reaches e.  The rows form a lower-triangular matrix with
    diagonal (-1)**i."""
    row = [1] + [0] * (e - 1)
    rows = [tuple(row)]
    for _ in range(1, e):
        row = [1] + [(c - b) % p for c, b in zip(row[1:], row)]
        rows.append(tuple(row))
    return tuple(rows)


def to_t_basis(p: int, e: int, residue: Sequence[int]) -> List[int]:
    """The coordinates of a mod-p class of Z[zeta] (e = phi(p^k)) over 1, t,
    ..., t^(e-1), t = 1 - zeta: solve against ``t_basis_rows`` from the top
    row down.

    Each vector is packed into one integer, digit j in bits [w*j, w*(j+1)),
    so a row operation a - c*row is one big-integer product and sum.  It is
    done as a + (p - c)*row, which keeps every digit nonnegative, and w
    leaves room for e such steps, so no digit carries into the next; the
    digits are reduced mod p only where they are read.
    """
    w = (e * p * p).bit_length() + 1
    mask = (1 << w) - 1
    packed = _packed_t_rows(p, e, w)
    a = sum((c % p) << (w * j) for j, c in enumerate(residue))
    tco = [0] * e
    for i in range(e - 1, -1, -1):
        # the diagonal (-1)**i is its own inverse
        c = ((a >> (w * i)) & mask) * (-1) ** i % p
        tco[i] = c
        if c:
            a += (p - c) * packed[i]
    assert all(((a >> (w * j)) & mask) % p == 0 for j in range(e)), "the solve left a remainder"
    return tco


@lru_cache(maxsize=None)
def _packed_t_rows(p: int, e: int, w: int) -> Tuple[int, ...]:
    return tuple(sum(r << (w * j) for j, r in enumerate(row)) for row in t_basis_rows(p, e))


def t_basis_mod_p_root(
    p: int, k: int, residue: Sequence[int]
) -> Tuple[Optional[Tuple[int, ...]], Optional[int]]:
    """A p-th root mod p in Z[zeta_{p^k}] of the class with these power-basis
    residues, found on the t-basis (t = 1 - zeta) of F_p[t]/(t^e): solve for
    the t-coordinates (``to_t_basis``), divide every t-exponent by p and
    change back.

    Returns (root residues, None), or (None, i) for the first t-index i with
    a nonzero coordinate that p does not divide: then there is no root.
    """
    e = p ** (k - 1) * (p - 1)
    rows = t_basis_rows(p, e)
    tco = to_t_basis(p, e, residue)
    for i, c in enumerate(tco):
        if c and i % p:
            return None, i
    root = [0] * e
    for i, c in enumerate(tco):
        if c:
            for j, r in enumerate(rows[i // p]):
                root[j] = (root[j] + c * r) % p
    return tuple(root), None


def gauss_mul(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _det_fraction(matrix: List[List[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def cyclotomic_field_norm(coeffs: Sequence, p: int, k: int) -> Fraction:
    """N_{K/Q}(x) as the determinant of multiplication by x in the power
    basis of Q(zeta_{p^k}); independent of the package's arithmetic."""
    e = p ** (k - 1) * (p - 1)
    columns = []
    for i in range(e):
        basis_vec = [Fraction(0)] * e
        basis_vec[i] = Fraction(1)
        columns.append(reference.conv_reduce(list(coeffs), basis_vec, p, k))
    matrix = [[columns[j][i] for j in range(e)] for i in range(e)]
    return _det_fraction(matrix)


def cyclotomic_valuation(coeffs: Sequence, p: int, k: int) -> Fraction:
    """v_p extended to Q(zeta_{p^k}), normalized so v(p) = 1: the extension
    is totally ramified at p, so v(x) = v_p(N(x)) / e."""
    e = p ** (k - 1) * (p - 1)
    norm = cyclotomic_field_norm(coeffs, p, k)
    if norm == 0:
        raise ValueError("valuation of zero is infinite")
    return Fraction(vp_fraction(norm, p), e)


def cyclo_pow_int(a: Sequence[int], n: int, p: int, k: int, q: int) -> List[int]:
    """a ** n in Z[zeta_{p^k}] / q by n plain multiplications starting from 1."""
    e = p ** (k - 1) * (p - 1)
    out = [1 % q] + [0] * (e - 1)
    for _ in range(n):
        out = reference.conv_reduce(out, a, p, k, q)
    return out


def trunc_mul(p: int, k, a: Sequence[int], b: Sequence[int], q: int) -> Tuple[int, ...]:
    """a * b mod q on digits: Z/p^M when k is None, else Z[zeta_{p^k}]/p^M."""
    if k is None:
        return (a[0] * b[0] % q,)
    return tuple(reference.conv_reduce(list(a), list(b), p, k, q))


def trunc_pow(p: int, k, a: Sequence[int], n: int, q: int) -> Tuple[int, ...]:
    """a ** n mod q on digits, as ``trunc_mul`` reads them."""
    if k is None:
        return (pow(a[0], n, q),)
    return tuple(cyclo_pow_int(a, n, p, k, q))


def chain_sum(p: int, k, M: int, xs: Sequence, ys: Sequence, out_depth: int) -> List[Tuple]:
    """The tilt sum slot by slot, z_m = (x_{m+l} + y_{m+l}) ** (p^l) mod
    p^min(l+1, M) with l = min(M, D - m), for slots m <= out_depth.

    Chains are lists of (digits, prec) from slot 0 to slot D; k is None for
    Z/p^M (one digit), else the conductor exponent of Z[zeta_{p^k}]/p^M.
    Returns (digits, prec) per slot.
    """
    D = len(xs) - 1
    out = []
    for m in range(out_depth + 1):
        l = min(M, D - m)
        prec = min(l + 1, M)
        q = p**prec
        s = [a + b for a, b in zip(xs[m + l][0], ys[m + l][0])]
        if k is None:
            digits = (pow(s[0], p**l, q),)
        else:
            digits = tuple(cyclo_pow_int(s, p**l, p, k, q))
        out.append((digits, prec))
    return out


def eval_poly(ring, terms: dict, values: Sequence):
    """sum c * prod values[i]^e over the terms, with ring.from_int(c) for every
    coefficient and powers as repeated products, added from ring.zero() in
    sorted exponent order."""
    acc = ring.zero()
    for exps, c in sorted(terms.items()):
        term = ring.from_int(c)
        for v, e in zip(values, exps):
            for _ in range(e):
                term = ring.mul(term, v)
        acc = ring.add(acc, term)
    return acc


class PerfPolyOracle:
    """F_p[x_0^(1/p^oo), ...] on the elements of ``PerfPolyRing`` (sorted
    tuples of (exponent tuple, coefficient in 1..p-1)), through the part of
    the ring interface that ``eval_poly`` reads.  Its product is the
    tuple-keyed one: every pair of terms adds its exponent tuples, and the
    sum is reduced mod p and sorted once; it never packs a monomial."""

    def __init__(self, p: int, nvars: int):
        self.p, self.nvars = p, nvars

    def _canon(self, terms: dict) -> tuple:
        return tuple(sorted((mono, c % self.p) for mono, c in terms.items() if c % self.p))

    def zero(self) -> tuple:
        return ()

    def from_int(self, n: int) -> tuple:
        return self._canon({(0,) * self.nvars: n})

    def add(self, a, b) -> tuple:
        terms = dict(a)
        for mono, c in b:
            terms[mono] = terms.get(mono, 0) + c
        return self._canon(terms)

    def mul(self, a, b) -> tuple:
        terms: dict = {}
        for ma, ca in a:
            for mb, cb in b:
                key = tuple(x + y for x, y in zip(ma, mb))
                terms[key] = terms.get(key, 0) + ca * cb
        return self._canon(terms)

    def pow_(self, a, n: int) -> tuple:
        """a ** n as n products, starting from one."""
        out = self.from_int(1)
        for _ in range(n):
            out = self.mul(out, a)
        return out


def gauss_place_valuation(coeffs: Sequence, p: int, pi: Tuple[int, int]) -> Fraction:
    """v_pi(a + b*i) at the place pi = u + w*i above a split prime p, for
    a + b*i nonzero with small entries: Z[i] / pi^K = Z / p^K with i sent to
    the root r of r^2 = -1 that has u + w*r = 0 mod p, lifted by Newton steps."""
    a, b = (Fraction(c) for c in coeffs)
    d = a.denominator * b.denominator
    x, y = int(a * d), int(b * d)
    u, w = pi
    K = 64
    q = p**K
    r = -u * pow(w, -1, p) % p
    for _ in range(6):  # precision 1, 2, 4, ..., 64
        r = (r - (r * r + 1) * pow(2 * r, -1, q)) % q
    return Fraction(vp_int((x + y * r) % q, p) - vp_int(d, p))


def untilt_by_arrow_ops(x, N: int):
    """``tilt.untilt`` as a chain of arrow operations: the zero family plus,
    for each component p^j, the Teichmueller family of its chain shifted j
    slots down times the integer family of p**j, each product and sum one
    levelwise Witt op over the base."""
    from wittlab.arrow import arrow_add, arrow_from_integer, arrow_mul, arrow_teichmuller

    base = x.ring.base
    total = arrow_from_integer(base, 0, N)
    for j, chain in enumerate(x.components):
        term = arrow_teichmuller(base, [chain.entries[j + n] for n in range(N + 1)])
        if j:
            term = arrow_mul(term, arrow_from_integer(base, base.p**j, N))
        total = arrow_add(total, term)
    return total


def zeta_ring_perfect_report(field) -> dict:
    """The perfectness report of Z[zeta_{p^k}] (``field`` is Q(zeta_{p^k}))
    as a dict, by the exact-arithmetic loops the package ran before its
    residue kernels: roots mod p by the t-basis solve of
    ``t_basis_mod_p_root``, and b**p as an exact field power reduced mod
    p^2 afterwards."""
    p, k, e = field.p, field.k, field.e
    residues = list(itertools.product(range(p), repeat=e))
    witness_a = None
    root_ok = 0
    for coeffs in residues:
        if t_basis_mod_p_root(p, k, coeffs)[0] is not None:
            root_ok += 1
        elif witness_a is None:
            witness_a = field.format_elt(field.from_coeffs(coeffs))
    cond_a = {"holds": witness_a is None, "checked": p**e, "roots_found": root_ok, "witness": witness_a}
    q = p * p
    image_b = {}
    for coeffs in residues:
        bp = field.integral_coeffs(field.pow_(field.from_coeffs(coeffs), p))
        image_b.setdefault(tuple(c % q for c in bp), coeffs)
    witness_b = None
    for coeffs in residues:
        if tuple(p * c % q for c in coeffs) not in image_b:
            witness_b = "[" + ", ".join(str(c) for c in coeffs) + "]"
            break
    root_of_p = image_b.get(tuple(p * c % q for c in field.integral_coeffs(field.one())))
    cond_b = {
        "holds": witness_b is None,
        "checked_b_residues": p**e,
        "witness_a": witness_b,
        "root_of_p": None if root_of_p is None else list(root_of_p),
    }
    verdict = "yes" if cond_a["holds"] and cond_b["holds"] else "no"
    return {
        "instance": f"Z[zeta_{p}^{k}]",
        "verdict": verdict,
        "condition_a": cond_a,
        "condition_b": cond_b,
        "notes": [],
    }


def _at_least(field, a, k: int) -> bool:
    v = field.valuation(a)
    return v is None or v >= k


def root_sequence_checks(seq) -> dict:
    """``RootSequence.verify`` by full valuations."""
    p, tower = seq.tower.p, seq.tower
    f1 = tower.field(1)
    checks = {
        "x1_pth_power_is_p_mod_p2": _at_least(
            f1, f1.sub(f1.pow_(seq.value(1), p), f1.from_int(p)), 2
        )
    }
    for n in range(1, seq.top_level + 1):
        checks[f"valuation_level_{n}"] = tower.field(n).valuation(seq.value(n)) == Fraction(1, p**n)
    for n in range(1, seq.top_level):
        hi = tower.field(n + 1)
        diff = hi.sub(hi.pow_(seq.value(n + 1), p), tower.embed_up(n, n + 1, seq.value(n)))
        checks[f"coherence_level_{n}"] = _at_least(hi, diff, 1)
    return checks


def tower_perfect_report(seq, top_level: int, rng, samples: int, enum_limit: int = 1100) -> dict:
    """The perfectness report of the tower up to ``top_level`` as a dict, by
    the exact-arithmetic loops the package ran before its residue kernels:
    ``seq`` has ``top_level + 1`` levels, the uniformizer purity and
    b**p = p*a mod p^2 are read off full valuations, and ``rng`` is drawn
    from in the same order."""
    p, tower = seq.tower.p, seq.tower
    x1 = seq.value(1)
    levels = {}
    notes = []
    all_ok = True
    for k in range(1, top_level + 1):
        lo, hi = tower.field(k), tower.field(k + 1)
        s = tower.embed_up(k, k + 1, lo.uniformizer())
        purity = _at_least(hi, hi.sub(s, hi.pow_(hi.uniformizer(), p)), 1)
        exhaustive = p**lo.e <= enum_limit
        if exhaustive:
            pool = list(itertools.product(range(p), repeat=lo.e))
        else:
            pool = [tuple(rng.randrange(p) for _ in range(lo.e)) for _ in range(samples)]
            notes.append(
                f"level {k}: residue space {p}^{lo.e} sampled ({samples} draws) "
                "on top of the structural purity certificate"
            )
        roots_ok = b_ok = 0
        x1_up = tower.embed_up(1, k + 1, x1)
        for coeffs in pool:
            a_up = tower.embed_up(k, k + 1, lo.from_coeffs(coeffs))
            c = hi.mod_p_root(a_up)
            roots_ok += 1
            b = hi.mul(x1_up, c)
            if _at_least(hi, hi.sub(hi.pow_(b, p), hi.scalar_mul(p, a_up)), 2):
                b_ok += 1
        ok = purity and roots_ok == len(pool) and b_ok == len(pool)
        all_ok = all_ok and ok
        levels[f"level_{k}"] = {
            "purity_certificate": purity,
            "mode": "exhaustive" if exhaustive else "structural+sampled",
            "residues_checked": len(pool),
            "roots_constructed": roots_ok,
            "b_witnesses_verified": b_ok,
        }
    return {
        "instance": f"zeta-tower at p={p}",
        "verdict": f"yes-up-to-level-{top_level}" if all_ok else "no",
        "condition_a": {"holds": all_ok, "levels": levels},
        "condition_b": {
            "holds": all_ok,
            "via": "b = x1 * c with x1^p = p mod p^2 and c a root of a one level up",
            "x1_checks": root_sequence_checks(seq),
        },
        "notes": notes,
    }
