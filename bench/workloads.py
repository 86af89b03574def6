"""The benchmark's workloads: seeded input generation, ops and their checks.

``generate(workload, seed)`` returns plain data (ints, Fraction strings,
config dicts) and never touches wittlab, so one seed always gives the same
inputs.  ``setup(workload)`` imports wittlab and builds what every CLI
invocation of that kind pays for: rings, the p=2 root-sequence tower and the
structure-polynomial caches.  ``build(ctx, spec)`` turns one input into an op:
a callable that makes one public wittlab call and converts the result to the
JSON form the CLI prints, plus a check that tests that JSON with the
independent arithmetic in ``oracle``.

Why these three workloads (see README.md for the layer map):

* ``witt-zmod``: truncated Witt arithmetic over Z/p^M lifts to Q and unghosts
  Fractions of size p^(M p^n); it touches no number field.
* ``numberfield``: Witt arithmetic and the solvers over Q(i), Q(zeta_8),
  Q(zeta_9) and the p=2 tower; the cost is per-coefficient Fraction
  arithmetic in ``cyclotomic``; no truncated ring is touched.
* ``tilt-charp``: the same witt_add / witt_mul entry points on the
  characteristic-p path (structure polynomials through UPoly.evaluate), chain
  arithmetic, and untilt, which drives ``arrow`` over Z[zeta_32]/2^4.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import oracle as O

WORKLOADS = ("witt-zmod", "numberfield", "tilt-charp")

ZMOD_RINGS = ((2, 6), (3, 4), (5, 3))
SOLVE_RINGS = ((2, 6, 4), (3, 5, 3))  # (p, M, longest x the solver accepts)
NF_FIELDS = (("Qi", 5, 0), ("Qzeta", 2, 3), ("Qzeta", 3, 2))
TOWER_P = 2
TOWER_LEVELS = 6
TILT_DEPTH = 4
TILT_BASES = (("Zmod", 3, 0, 3, 3), ("ZzetaMod", 2, 5, 4, 4))  # kind, p, k, M, longest vector
PERFPOLY = ((2, 8, 4), (3, 4, 3))  # p, depth, longest vector
UNTILT_N = 2

Check = Callable[[Any], Optional[str]]


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run: Callable[[], Any], check: Check):
        self.kind, self.run, self.check = kind, run, check


# ---------------------------------------------------------------------------
# input generation (pure data)
# ---------------------------------------------------------------------------


def _zmod_vec(rng: random.Random, p: int, M: int, L: int, lossy: bool) -> List[List[int]]:
    """Components as [value, prec], each with a nonzero leading digit, which
    keeps an op's cost near the typical one for its shape.  A lossy vector
    has one component known to one digit less, so the result must carry the
    smaller precision."""
    comps = [[rng.randrange(p ** (M - 1), p ** M), M] for _ in range(L)]
    if lossy and M > 1:
        i = rng.randrange(L)
        comps[i] = [comps[i][0] % p ** (M - 1), M - 1]
    return comps


def _gen_witt_zmod(rng: random.Random) -> List[dict]:
    ops: List[dict] = []
    for p, M in ZMOD_RINGS:
        for L in range(2, 8):
            for kind in ("witt_add", "witt_mul", "witt_neg", "frobenius"):
                # the heaviest product is the tail cluster: 3% of the list,
                # so the 99th percentile falls well inside it
                count = 30 if (p, L, kind) == (5, 7, "witt_mul") else 10
                for n in range(count):
                    spec = {"kind": kind, "p": p, "M": M, "x": _zmod_vec(rng, p, M, L, n % 3 == 0)}
                    if kind in ("witt_add", "witt_mul"):
                        spec["y"] = _zmod_vec(rng, p, M, L, False)
                    ops.append(spec)
    for p, M, longest in SOLVE_RINGS:
        for L in range(1, longest + 1):
            for _ in range(8):  # round trips: x = F(y) always has a preimage
                y = [rng.randrange(p ** M) for _ in range(L + 1)]
                x = O.frobenius_int(y, p, M)
                ops.append({"kind": "solve_frobenius", "p": p, "M": M, "x": x, "image": True})
        for L in range(1, min(longest, 3) + 1):
            for _ in range(10):  # direct draws: some get a certified NoRoot
                x = [rng.randrange(p ** M) for _ in range(L)]
                ops.append({"kind": "solve_frobenius", "p": p, "M": M, "x": x, "image": False})
    for p, M in ZMOD_RINGS:
        for N in (2, 3, 4):
            for _ in range(6):
                ops.append({"kind": "arrow_from_integer", "p": p, "M": M, "N": N, "c": rng.randint(-60, 60)})
                tops = [[rng.randrange(p ** M) for _ in range(N + 1)] for _ in range(2)]
                ops.append({"kind": "arrow_mul", "p": p, "M": M, "tops": tops})
                b = rng.choice(("1/2", "1", "2"))
                ops.append({"kind": "arrow_norm", "p": p, "M": M, "tops": tops[:1], "b": b})
    return ops


def _field_elt(rng: random.Random, kind: str, p: int, k: int) -> List[str]:
    """Coefficients +-a/b with a nonzero, so no element is sparse, and a and b
    from a few small values: every element of a field then costs about the
    same, and the median op sits in a class of like costs on every seed."""
    if kind == "Qi":
        return [str(Fraction(rng.choice((-1, 1)) * rng.randint(3, 7), rng.choice((1, 2, 3, 4)))) for _ in range(2)]
    e = (p - 1) * p ** (k - 1)
    return [str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((1, 2, p)))) for _ in range(e)]


def _tower_head(rng: random.Random, level: int, shape: str, j: int) -> List[str]:
    """A single-component input over the level-`level` field of the p=2 tower:
    a random unit times t^j, or half t^j, for the uniformizer t.  The solver's
    cost depends mostly on j, so the caller cycles j through its range rather
    than drawing it: every seed then gets the same mix of costs."""
    C = O.Cyclo(2, level + 2)
    t = C.reduce([1, -1])
    if shape == "unit":
        u = C.add(C.one(), C.scale(2, tuple(rng.randint(0, 1) for _ in range(C.e))))
        head = C.mul(u, C.pow(t, j))
    else:
        head = C.scale(Fraction(1, 2), C.pow(t, j))
    return [str(Fraction(c)) for c in head]


def _tower_span(level: int, shape: str) -> int:
    """How many uniformizer exponents j a `_tower_head` shape takes: 1 <= j < 2e
    for units, 1 <= j < e for halves."""
    e = 2 ** (level + 1)
    return 2 * e - 1 if shape == "unit" else e - 1


def _gen_numberfield(rng: random.Random) -> List[dict]:
    ops: List[dict] = []
    for kind, p, k in NF_FIELDS:
        for L in (1, 2, 3):
            names = ["witt_add", "witt_mul", "witt_norm"] + (["frobenius"] if L > 1 else [])
            for name in names:
                for _ in range(28):
                    spec = {"kind": name, "field": [kind, p, k]}
                    spec["x"] = [_field_elt(rng, kind, p, k) for _ in range(L)]
                    if name in ("witt_add", "witt_mul"):
                        spec["y"] = [_field_elt(rng, kind, p, k) for _ in range(L)]
                    ops.append(spec)
    for config, count in (
        ({"instance": "zeta-ring", "p": 2, "k": 2}, 8),
        ({"instance": "zeta-ring", "p": 2, "k": 3}, 8),
        ({"instance": "zeta-ring", "p": 3, "k": 1}, 8),
        ({"instance": "zeta-ring", "p": 3, "k": 2}, 1),
        ({"instance": "tower", "p": 2, "levels": 1}, 8),
        ({"instance": "tower", "p": 2, "levels": 2}, 1),
    ):
        for _ in range(count):
            ops.append({"kind": "witt_perfect_test", "config": config, "rng": rng.randrange(2 ** 31)})
    # the integer inputs are the slowest solves: three of each make the
    # tail cluster the 99th percentile sits in
    for c in (2, 3, 6, 10) * 3:
        ops.append({"kind": "solve_frobenius_normed", "level": 1, "x": [[str(c)] + ["0"] * 3]})
    for level, shape, count in ((1, "unit", 14), (2, "unit", 15), (2, "half", 7)):
        span = _tower_span(level, shape)
        for n in range(count):
            head = _tower_head(rng, level, shape, 1 + n % span)
            ops.append({"kind": "solve_frobenius_normed", "level": level, "x": [head]})
    return ops


def _chain(C: Optional[O.Cyclo], p: int, M: int, top, depth: int) -> list:
    """x_m = top^(p^(depth-m)) mod p^M, the chain tilt_from_top builds."""
    q = p ** M
    entries = [top]
    for _ in range(depth):
        prev = entries[-1]
        entries.append(pow(prev, p, q) if C is None else C.pow(prev, p, q))
    entries.reverse()
    return entries


def _tilt_top(rng: random.Random, base: tuple):
    kind, p, k, M, _ = base
    if kind == "Zmod":
        return rng.randrange(p ** M)
    return tuple(rng.randrange(p ** M) for _ in range((p - 1) * p ** (k - 1)))


def _untilt_tops() -> List[tuple]:
    """Chain tops over Z[zeta_32]/2^4 whose heads keep their valuation below
    the base precision (uniformizer powers below t^4, their sums, zeta
    multiples): the regime where the untilt comparison is certified."""
    C, q = O.Cyclo(2, 5), 2 ** 4
    one, t, zeta = C.one(), C.reduce([1, -1], q), C.reduce([0, 1])
    t2 = C.mul(t, t, q)
    return [
        one, t, t2, C.mul(t2, t, q), zeta, C.add(t, one, q), C.add(t2, t, q),
        C.mul(zeta, t, q), C.add(t2, one, q), C.mul(zeta, t2, q),
    ]


def _perfpoly_elt(rng: random.Random, p: int, depth: int) -> List[List[int]]:
    """1-3 terms c * x^e with e in (1/p^2)Z, 0 <= e <= 3.  The coarse grid
    keeps the ghost polynomials the check expands to a few hundred terms."""
    step = p ** (depth - 2)
    return [[step * rng.randint(0, 3 * p * p), rng.randint(1, p - 1)] for _ in range(rng.randint(1, 3))]


def _gen_tilt_charp(rng: random.Random) -> List[dict]:
    ops: List[dict] = []
    for bi, base in enumerate(TILT_BASES):
        for kind in ("tilt_from_top", "tilt_add", "tilt_mul"):
            for _ in range(70):
                tops = [_tilt_top(rng, base) for _ in range(1 if kind == "tilt_from_top" else 2)]
                ops.append({"kind": kind, "base": bi, "tops": tops})
        longest = base[4]
        for L in range(2, longest + 1):
            for kind in ("witt_add", "witt_mul"):
                # length-4 sums are the tail cluster: the 99th percentile
                # falls in their middle, below the six length-4 products
                tail = 10 if kind == "witt_add" else 6
                count = {2: 15, 3: 8, 4: tail}[L] if base[0] == "ZzetaMod" else 30
                for _ in range(count):
                    tops = [[_tilt_top(rng, base) for _ in range(L)] for _ in range(2)]
                    ops.append({"kind": kind, "ring": "tilt", "base": bi, "tops": tops})
        for n in range(22):
            tops = [[_tilt_top(rng, base) for _ in range(1 + n % longest)]]
            ops.append({"kind": "charp_overconv_norm", "ring": "tilt", "base": bi, "tops": tops,
                        "b": ("1/4", "1/2", "1", "2")[n % 4]})
    for pi, (p, depth, longest) in enumerate(PERFPOLY):
        for L in range(2, longest + 1):
            for kind in ("witt_add", "witt_mul"):
                for _ in range(30):
                    xs = [[_perfpoly_elt(rng, p, depth) for _ in range(L)] for _ in range(2)]
                    ops.append({"kind": kind, "ring": "perfpoly", "poly": pi, "xs": xs})
        for n in range(22):
            xs = [[_perfpoly_elt(rng, p, depth) for _ in range(1 + n % longest)]]
            ops.append({"kind": "charp_overconv_norm", "ring": "perfpoly", "poly": pi, "xs": xs,
                        "b": ("1/4", "1/2", "1", "2")[n % 4]})
    n_tops = len(_untilt_tops())
    for n in range(24):
        shape = ((0,), (0, 1), (0, None, 1), (None, 0))[n % 4]
        picks = [None if s is None else rng.randrange(n_tops) for s in shape]
        ops.append({"kind": "untilt_isometry", "picks": picks, "b": ("1/4", "1/2", "1")[n % 3]})
    return ops


_GENERATORS = {
    "witt-zmod": _gen_witt_zmod,
    "numberfield": _gen_numberfield,
    "tilt-charp": _gen_tilt_charp,
}


def generate(workload: str, seed: int) -> List[dict]:
    """The workload's op list for a seed, shuffled so that any prefix of a
    pass is a fair sample of the mix."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# set-up: what every invocation pays before its first op
# ---------------------------------------------------------------------------


class Context:
    pass


def setup(workload: str) -> Context:
    import wittlab
    from wittlab import univ

    ctx = Context()
    ctx.w = wittlab
    if workload == "witt-zmod":
        ctx.zmod = {(p, M): wittlab.ZModPM(p, M) for p, M in ZMOD_RINGS}
        ctx.zmod.update({(p, M): wittlab.ZModPM(p, M) for p, M, _ in SOLVE_RINGS})
        kinds, primes = ("frob_f",), (2, 3, 5)
    elif workload == "numberfield":
        ctx.fields = {}
        for kind, p, k in NF_FIELDS:
            ctx.fields[(kind, p, k)] = (
                wittlab.GaussianField(p) if kind == "Qi" else wittlab.cyclotomic_field(p, k)
            )
        ctx.seq = wittlab.build_root_sequence(TOWER_P, TOWER_LEVELS)
        kinds, primes = ("frob_f",), (2, 3, 5)
    else:
        ctx.bases, ctx.tilt_rings = [], []
        for kind, p, k, M, _ in TILT_BASES:
            base = wittlab.ZModPM(p, M) if kind == "Zmod" else wittlab.CycloModPM(p, k, M)
            ctx.bases.append(base)
            ctx.tilt_rings.append(wittlab.TiltRing(base, TILT_DEPTH))
        ctx.polys = [wittlab.PerfPolyRing(p, 1, depth) for p, depth, _ in PERFPOLY]
        kinds, primes = ("sum", "prod", "neg"), (2, 3)
    for p in primes:
        for kind in kinds:
            for index in range(univ.structure_cap(p) + 1):
                univ.structure_poly(p, index, kind)
    return ctx


# ---------------------------------------------------------------------------
# ops and checks
# ---------------------------------------------------------------------------


def norm_json(v) -> str:
    """A NormValue as the CLI prints it."""
    return "0" if v.is_zero else f"p^{-v.v}"


def _zmod_check(p: int, M: int, xs: List[List[List[int]]], combine, shift: int = 0) -> Check:
    """Ghost homomorphism mod p^(k+m): w_m(z) = combine(w_{m+shift}(x), ...)."""

    def check(out) -> Optional[str]:
        comps = [O.trunc_int(c, M) for c in out["components"]]
        in_prec = min(c[1] for x in xs for c in x)
        k = min(c[1] for c in comps)
        if k != in_prec:
            return f"result precision {k}, inputs {in_prec}"
        z = [c[0] for c in comps]
        for m in range(len(z)):
            q = p ** (k + m)
            want = combine(*[O.ghost_int([c[0] for c in x], p, m + shift, q) for x in xs]) % q
            if O.ghost_int(z, p, m, q) != want:
                return f"ghost component {m} differs mod {p}^{k + m}"
        return None

    return check


def _build_witt_zmod(ctx: Context, spec: dict) -> Op:
    w = ctx.w

    kind, p, M = spec["kind"], spec["p"], spec["M"]
    ring = ctx.zmod[(p, M)]

    def vec(comps):
        return w.WittVec(ring, tuple(ring.make(v, prec) for v, prec in comps))

    if kind in ("witt_add", "witt_mul", "witt_neg", "frobenius"):
        x = vec(spec["x"])
        if kind == "witt_neg":
            return Op(kind, lambda: w.witt.witt_to_json(w.witt_neg(x)), _zmod_check(p, M, [spec["x"]], lambda a: -a))
        if kind == "frobenius":
            return Op(kind, lambda: w.witt.witt_to_json(w.frobenius(x)), _zmod_check(p, M, [spec["x"]], lambda a: a, 1))
        y = vec(spec["y"])
        combine = (lambda a, b: a + b) if kind == "witt_add" else (lambda a, b: a * b)
        return Op(kind, lambda: w.witt.witt_to_json(getattr(w, kind)(x, y)), _zmod_check(p, M, [spec["x"], spec["y"]], combine))

    if kind == "solve_frobenius":
        x = w.WittVec(ring, tuple(ring.make(v) for v in spec["x"]))

        def run():
            try:
                y, rep = w.solve_frobenius(x)
            except w.NoRoot as exc:
                return {"solved": False, "certified": True, "reason": str(exc)}
            return {"solved": True, "y": w.witt.witt_to_json(y), "report": rep}

        def check(out) -> Optional[str]:
            if not out["solved"]:
                return "an image of F was refused" if spec["image"] else None
            comps = [O.trunc_int(c, M) for c in out["y"]["components"]]
            k = out["report"]["verified_at_precision"]
            if len(comps) != len(spec["x"]) + 1 or k < 1:
                return f"preimage of length {len(comps)} verified at precision {k}"
            ys = [c[0] for c in comps]
            for m in range(len(spec["x"])):
                q = p ** (k + m)
                if O.ghost_int(ys, p, m + 1, q) != O.ghost_int(spec["x"], p, m, q):
                    return f"F(y) differs from x in ghost component {m}"
            return None

        return Op(kind, run, check)

    if kind == "arrow_from_integer":
        c, N = spec["c"], spec["N"]

        def check(out) -> Optional[str]:
            levels = out["levels"]
            if len(levels) != N + 1 or out["tail_bound_exponent"] != "0":
                return "wrong depth or tail bound"
            for n, lvl in enumerate(levels):
                z = [O.trunc_int(v, M)[0] for v in lvl]
                if len(z) != n + 1:
                    return f"level {n} has length {len(z)}"
                for m in range(n + 1):
                    q = p ** (M + m)
                    if O.ghost_int(z, p, m, q) != c % q:
                        return f"level {n} ghost {m} is not {c}"
            return None

        return Op(kind, lambda: w.arrow.arrow_to_json(w.arrow_from_integer(ring, c, N)), check)

    families = [O.coherent_family(top, p, M) for top in spec["tops"]]
    arrows = [
        w.make_arrow(ring, [vec([[v, M] for v in lvl]) for lvl in fam], tail_bound=w.NormValue.one(), validate=False)
        for fam in families
    ]
    if kind == "arrow_mul":

        def check(out) -> Optional[str]:
            for n, lvl in enumerate(out["levels"]):
                z = [O.trunc_int(v, M)[0] for v in lvl]
                for m in range(n + 1):
                    q = p ** (M + m)
                    want = O.ghost_int(families[0][n], p, m, q) * O.ghost_int(families[1][n], p, m, q)
                    if O.ghost_int(z, p, m, q) != want % q:
                        return f"level {n} ghost {m} is not the product"
            return None

        return Op(kind, lambda: w.arrow.arrow_to_json(w.arrow_mul(arrows[0], arrows[1])), check)

    b = Fraction(spec["b"])
    fam = families[0]

    def check(out) -> Optional[str]:
        terms = []
        for n, lvl in enumerate(fam):
            v = O.witt_valuation([O.vp(c, p) for c in lvl], p)
            terms.append(None if v is None else -(p ** n * v + b * n))
        if [O.opt_fraction(t) for t in out["terms"]] != terms:
            return "term exponents differ"
        present = [t for t in terms if t is not None]
        best = max(present) if present else None
        if O.opt_fraction(out["exponent"]) != best:
            return "supremum differs"
        if best is not None and out["attained_at"] != terms.index(best):
            return "attained_at differs"
        tail = -b * len(fam)  # unit tail bound: p^(-b (N+1))
        if O.opt_fraction(out["tail"]) != tail:
            return "tail bound differs"
        certified = best is not None and tail <= best
        if (out["status"] == "exact") != certified:
            return f"status {out['status']} with tail {tail} and supremum {best}"
        return None

    return Op(kind, lambda: w.arrow_norm(arrows[0], b).to_dict(), check)


def _field_arith(kind: str, p: int, k: int):
    if kind == "Qi":
        return O.gauss_ops(), (lambda a: O.gauss_valuation(a, p))
    C = O.Cyclo(p, k)
    return O.cyclo_ops(C), C.valuation


def _build_numberfield(ctx: Context, spec: dict) -> Op:
    w = ctx.w

    kind = spec["kind"]
    if kind == "witt_perfect_test":
        return _build_perfect_test(ctx, spec)
    if kind == "solve_frobenius_normed":
        return _build_normed_solve(ctx, spec)
    fkind, p, k = spec["field"]
    field = ctx.fields[(fkind, p, k)]
    ops, valuation = _field_arith(fkind, p, k)
    mul, add, pow_, scale = ops

    def elt(strs):
        vals = [Fraction(s) for s in strs]
        return field.from_pair(*vals) if fkind == "Qi" else field.from_coeffs(vals)

    xs = [O.fraction_vec(c) for c in spec["x"]]
    x = w.WittVec(field, tuple(elt(c) for c in spec["x"]))
    gx = O.ghost_field(xs, p, mul, add, pow_, scale)
    if kind == "witt_norm":
        want = O.witt_valuation([valuation(c) for c in xs], p)

        def check(out) -> Optional[str]:
            got = O.norm_text_exponent(out)
            return None if got == (None if want is None else -want) else f"norm {out}, expected v={want}"

        return Op(kind, lambda: norm_json(w.witt_norm(x)), check)

    if kind == "frobenius":
        fn, want_ghost = (lambda: w.frobenius(x)), gx[1:]
    else:
        ys = [O.fraction_vec(c) for c in spec["y"]]
        y = w.WittVec(field, tuple(elt(c) for c in spec["y"]))
        gy = O.ghost_field(ys, p, mul, add, pow_, scale)
        if kind == "witt_add":
            fn, want_ghost = (lambda: w.witt_add(x, y)), [add(a, b) for a, b in zip(gx, gy)]
        else:
            fn, want_ghost = (lambda: w.witt_mul(x, y)), [mul(a, b) for a, b in zip(gx, gy)]

    def check(out) -> Optional[str]:
        zs = [O.fraction_vec(c) for c in out["components"]]
        got = O.ghost_field(zs, p, mul, add, pow_, scale)
        return None if list(got) == list(want_ghost) else "ghost vector differs"

    return Op(kind, lambda: w.witt.witt_to_json(fn()), check)


def _build_perfect_test(ctx: Context, spec: dict) -> Op:
    w = ctx.w
    config, seed = spec["config"], spec["rng"]

    def run():
        return w.witt_perfect_test(config, random.Random(seed)).to_dict()

    p = config["p"]
    if config["instance"] == "zeta-ring":
        C = O.Cyclo(p, config["k"])
        residues = _all_residues(p, C.e)
        image_a = {C.pow(b, p, p) for b in residues}
        image_b = {C.pow(b, p, p * p) for b in residues}

        def parse(text):
            return tuple(int(Fraction(s)) % p for s in text.strip("[]").split(","))

        def check(out) -> Optional[str]:
            a, b_ = out["condition_a"], out["condition_b"]
            if a["checked"] != p ** C.e or a["roots_found"] != len(image_a):
                return "condition (a) counts differ"
            if a["holds"] != (len(image_a) == p ** C.e) or (a["witness"] is None) != a["holds"]:
                return "condition (a) verdict differs"
            if a["witness"] is not None and parse(a["witness"]) in image_a:
                return "condition (a) witness is a p-th power"
            holds_b = all(C.scale(p, r, p * p) in image_b for r in residues)
            if b_["holds"] != holds_b:
                return "condition (b) verdict differs"
            if b_["witness_a"] is not None and C.scale(p, parse(b_["witness_a"]), p * p) in image_b:
                return "condition (b) witness has a root"
            target = C.scale(p, C.one(), p * p)
            root = b_["root_of_p"]
            if (root is None) != (target not in image_b):
                return "root_of_p presence differs"
            if root is not None and C.pow(tuple(root), p, p * p) != target:
                return "root_of_p is not a root of p mod p^2"
            verdict = "yes" if a["holds"] and holds_b else "no"
            return None if out["verdict"] == verdict else f"verdict {out['verdict']}"

        return Op("witt_perfect_test", run, check)

    levels = config["levels"]

    def check(out) -> Optional[str]:
        if out["verdict"] != f"yes-up-to-level-{levels}":
            return f"verdict {out['verdict']}"
        if not (out["condition_a"]["holds"] and out["condition_b"]["holds"]):
            return "a condition failed"
        if not all(out["condition_b"]["x1_checks"].values()):
            return "root sequence checks failed"
        for lvl in range(1, levels + 1):
            rec = out["condition_a"]["levels"][f"level_{lvl}"]
            e = (p - 1) * p ** (lvl + 1)
            exhaustive = p ** e <= 1100
            want = p ** e if exhaustive else config.get("samples", 48)
            if not rec["purity_certificate"] or rec["mode"] != ("exhaustive" if exhaustive else "structural+sampled"):
                return f"level {lvl} certificate"
            if not rec["residues_checked"] == rec["roots_constructed"] == rec["b_witnesses_verified"] == want:
                return f"level {lvl} counts"
        return None

    return Op("witt_perfect_test", run, check)


def _all_residues(p: int, e: int) -> List[tuple]:
    out = [()]
    for _ in range(e):
        out = [r + (c,) for r in out for c in range(p)]
    return out


def _build_normed_solve(ctx: Context, spec: dict) -> Op:
    w = ctx.w

    level = spec["level"]
    field = ctx.seq.tower.field(level)
    x = w.WittVec(field, tuple(field.from_coeffs([Fraction(s) for s in c]) for c in spec["x"]))
    xs = [O.fraction_vec(c) for c in spec["x"]]
    p = TOWER_P
    low = O.Cyclo(p, level + 2)

    def run():
        y, rep = w.solve_frobenius_normed(ctx.seq, level, x)
        return {"y": w.witt.witt_to_json(y), "report": rep}

    def check(out) -> Optional[str]:
        rep = out["report"]
        if not (rep["exact"] and rep["norm_contract"]):
            return "report does not claim the contract"
        K = out["y"]["ring"]["k"]
        if K != rep["working_level"] + 2:
            return "working level differs from the result's field"
        C = O.Cyclo(p, K)
        ops = O.cyclo_ops(C)
        X = [low.embed(c, C) for c in xs]
        Y = [O.fraction_vec(c) for c in out["y"]["components"]]
        if len(Y) != len(X) + 1:
            return "preimage has the wrong length"
        gx, gy = O.ghost_field(X, p, *ops), O.ghost_field(Y, p, *ops)
        if gy[1:] != gx:
            return "F(y) != x"
        vy = O.witt_valuation([C.valuation(c) for c in Y], p)
        vx = O.witt_valuation([low.valuation(c) for c in xs], p)
        if not (vy is None or (vx is not None and p * vy >= vx)):
            return f"|y|^p > |x|: v(y)={vy}, v(x)={vx}"
        return None

    return Op("solve_frobenius_normed", run, check)


# -- tilt-charp --------------------------------------------------------------------------


def _base_arith(bi: int):
    kind, p, k, M, _ = TILT_BASES[bi]
    return (None if kind == "Zmod" else O.Cyclo(p, k)), p, M


def _entry(bi: int, value):
    """(value, prec) of a chain entry in its JSON form."""
    kind, _, _, M, _ = TILT_BASES[bi]
    return O.trunc_int(value, M) if kind == "Zmod" else O.trunc_vec(value, M)


def _base_ops(C, q):
    if C is None:
        return (lambda a, b: a * b % q, lambda a, b: (a + b) % q, lambda a, n: pow(a, n, q), lambda c, a: c * a % q)
    return O.cyclo_ops(C, q)


def _residue(C, value, p):
    return value % p if C is None else tuple(c % p for c in value)


def _chain_check(bi: int, entries) -> Optional[str]:
    """x_{m+1}^p = x_m at the precision both sides carry (a value known
    mod p^k has a p-th power known mod p^(k+1))."""
    C, p, M = _base_arith(bi)
    vals = [_entry(bi, e) for e in entries]
    for m in range(len(vals) - 1):
        (lo, klo), (hi, khi) = vals[m], vals[m + 1]
        k = min(klo, khi + 1, M)
        q = p ** k
        power = pow(hi, p, q) if C is None else C.pow(hi, p, q)
        if power != (lo % q if C is None else tuple(c % q for c in lo)):
            return f"chain slots {m}/{m + 1} are not coherent"
    return None


def _tilt_elt(ctx: Context, bi: int, top):
    C, p, M = _base_arith(bi)
    base = ctx.bases[bi]
    raw = _chain(C, p, M, top if C is None else tuple(top), TILT_DEPTH)
    return ctx.w.tilt.make_tilt(base, [base.make(v) for v in raw], validate=False), raw


def _build_tilt_charp(ctx: Context, spec: dict) -> Op:
    w = ctx.w

    kind = spec["kind"]
    if kind == "untilt_isometry":
        return _build_untilt(ctx, spec)
    if kind in ("tilt_from_top", "tilt_add", "tilt_mul"):
        bi = spec["base"]
        C, p, M = _base_arith(bi)
        base = ctx.bases[bi]
        if kind == "tilt_from_top":
            top = spec["tops"][0]
            top_elt = base.make(top)

            def check(out) -> Optional[str]:
                entries = out["entries"]
                if len(entries) != TILT_DEPTH + 1:
                    return "wrong depth"
                last, prec = _entry(bi, entries[-1])
                if prec != M or last != (top if C is None else tuple(top)):
                    return "deepest slot is not the top"
                return _chain_check(bi, entries)

            return Op(kind, lambda: w.tilt.tilt_to_json(w.tilt_from_top(base, top_elt, TILT_DEPTH)), check)

        (x, rx), (y, ry) = (_tilt_elt(ctx, bi, t) for t in spec["tops"])
        q = p ** M
        mul, add, _, _ = _base_ops(C, q)

        def check(out) -> Optional[str]:
            entries = out["entries"]
            if len(entries) != TILT_DEPTH + 1:
                return "wrong depth"
            for m, e in enumerate(entries):
                val, prec = _entry(bi, e)
                if kind == "tilt_mul":
                    if prec != M or val != mul(rx[m], ry[m]):
                        return f"slot {m} is not x*y"
                elif prec != min(TILT_DEPTH - m + 1, M):
                    return f"slot {m} carries {prec} digits"
                elif _residue(C, val, p) != _residue(C, add(rx[m], ry[m]), p):
                    return f"slot {m} is not x+y mod p"
            return _chain_check(bi, entries)

        return Op(kind, lambda: w.tilt.tilt_to_json(getattr(w, kind)(x, y)), check)

    # Witt vectors over char-p rings: TiltRing or PerfPolyRing
    if spec["ring"] == "tilt":
        bi = spec["base"]
        C, p, M = _base_arith(bi)
        tring = ctx.tilt_rings[bi]
        vecs, raws = [], []
        for tops in spec["tops"]:
            pairs = [_tilt_elt(ctx, bi, t) for t in tops]
            vecs.append(w.WittVec(tring, tuple(e for e, _ in pairs)))
            raws.append([r for _, r in pairs])
        if kind == "charp_overconv_norm":
            b = Fraction(spec["b"])
            heads = [r[0] for r in raws[0]]
            vals = [(O.vp(h, p) if C is None else C.valuation(h)) for h in heads]
            return _norm_op(w, vecs[0], b, [None if v is None else -Fraction(v) for v in vals], p)

        def slot_vectors(comps_per_vec, slot):
            return [[_residue(C, chain[slot], p) for chain in comps] for comps in comps_per_vec]

        def check(out) -> Optional[str]:
            zs = [[_entry(bi, e)[0] for e in comp] for comp in out["components"]]
            for slot in range(TILT_DEPTH + 1):
                xv, yv = slot_vectors(raws, slot)
                zv = [_residue(C, chain[slot], p) for chain in zs]
                err = _slot_ghost_check(C, p, xv, yv, zv, kind)
                if err:
                    return f"slot {slot}: {err}"
            return None

    else:
        pi = spec["poly"]
        p, depth, _ = PERFPOLY[pi]
        ring = ctx.polys[pi]
        unit = p ** depth

        def elt(terms):
            acc = ring.zero()
            for m, c in terms:
                acc = ring.add(acc, ring.monomial([Fraction(m, unit)], c))
            return acc

        vecs = [w.WittVec(ring, tuple(elt(t) for t in x)) for x in spec["xs"]]
        polys = [[_poly(t, p) for t in x] for x in spec["xs"]]
        if kind == "charp_overconv_norm":
            b = Fraction(spec["b"])
            logs = [None if not f else Fraction(max(m[0] for m in f), unit) for f in polys[0]]
            return _norm_op(w, vecs[0], b, logs, p)

        def check(out) -> Optional[str]:
            zs = [O.poly_from_json(c) for c in out["components"]]
            return _poly_ghost_check(p, polys[0], polys[1], zs, kind)

    return Op(kind, lambda: w.witt.witt_to_json(getattr(w, kind)(vecs[0], vecs[1])), check)


def _poly(terms, p: int) -> Dict[tuple, int]:
    out: Dict[tuple, int] = {}
    for m, c in terms:
        out[(m,)] = (out.get((m,), 0) + c) % p
    return {k: v for k, v in out.items() if v}


# Over an integer lift of a char-p ring, w_m(z) = w_m(x) op w_m(y) mod
# p^(m+1) for every m, and these congruences pin z down mod p.


def _slot_ghost_check(C, p: int, xv, yv, zv, kind: str) -> Optional[str]:
    """Residues of one chain slot, lifted to Z (C None) or Z[zeta] (C)."""
    for m in range(len(zv)):
        mul, add, pow_, scale = _base_ops(C, p ** (m + 1))
        g = [O.ghost_field(vec[: m + 1], p, mul, add, pow_, scale)[m] for vec in (xv, yv, zv)]
        if g[2] != (add(g[0], g[1]) if kind == "witt_add" else mul(g[0], g[1])):
            return f"ghost component {m} differs mod {p}^{m + 1}"
    return None


def _poly_ghost_check(p: int, xv, yv, zv, kind: str) -> Optional[str]:
    """Perfected polynomials over F_p, lifted to integer coefficients."""
    for m in range(len(zv)):
        q = p ** (m + 1)
        gx, gy, gz = (O.poly_ghost(v, p, m, q, 1) for v in (xv, yv, zv))
        if gz != (O.poly_add(gx, gy, q) if kind == "witt_add" else O.poly_mul(gx, gy, q)):
            return f"ghost component {m} differs mod {p}^{m + 1}"
    return None


def _norm_op(w, x, b: Fraction, logs: List[Optional[Fraction]], p: int) -> Op:
    """charp_overconv_norm = max_j p^(-b j) |x_j|^(1/p^j), from log_p |x_j|."""
    terms = [lg / p ** j - b * j for j, lg in enumerate(logs) if lg is not None]
    want = max(terms) if terms else None

    def check(out) -> Optional[str]:
        return None if O.norm_text_exponent(out) == want else f"norm {out}, expected p^{want}"

    return Op("charp_overconv_norm", lambda: norm_json(w.charp_overconv_norm(x, b)), check)


def _build_untilt(ctx: Context, spec: dict) -> Op:
    w = ctx.w
    bi = 1  # Z[zeta_32]/2^4
    C, p, M = _base_arith(bi)
    tops = _untilt_tops()
    zero = tuple([0] * C.e)
    chains, heads = [], []
    for pick in spec["picks"]:
        top = zero if pick is None else tops[pick]
        elt, raw = _tilt_elt(ctx, bi, top)
        chains.append(elt)
        heads.append(raw[0])
    x = w.WittVec(ctx.tilt_rings[bi], tuple(chains))
    b = Fraction(spec["b"])
    vals = [C.valuation(h) for h in heads]
    terms = [-v / p ** j - b * j for j, v in enumerate(vals) if v is not None]
    want = max(terms) if terms else None

    def check(out) -> Optional[str]:
        if out["isometric"] is not True:
            return "not isometric"
        if O.opt_fraction(out["charp_exponent"]) != want or out["family_exponent"] != out["charp_exponent"]:
            return f"exponents {out['family_exponent']} / {out['charp_exponent']}, expected {want}"
        return None

    return Op("untilt_isometry", lambda: w.untilt_isometry(x, UNTILT_N, b), check)


_BUILDERS = {
    "witt-zmod": _build_witt_zmod,
    "numberfield": _build_numberfield,
    "tilt-charp": _build_tilt_charp,
}


def build(ctx: Context, workload: str, spec: dict) -> Op:
    return _BUILDERS[workload](ctx, spec)


def timed_setup(workload: str) -> Tuple[Context, float]:
    t0 = time.perf_counter()
    ctx = setup(workload)
    return ctx, time.perf_counter() - t0
