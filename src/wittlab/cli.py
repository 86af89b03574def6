"""Command-line front end.

Computes Witt-vector operations, runs the named verification suites, and
emits machine-readable reports.  Every subcommand is a ``_cmd_*`` function
that returns ``(exit_code, payload, lines)`` and prints nothing; ``main``
is the one emitter, printing the payload as sorted, indented JSON under
``--json`` and the lines otherwise.  ``main`` lifts the interpreter's
int/str digit limit for its call, so numbers of any length are read and
printed exactly.  Exit codes: 0 for success, 1 when a verification suite
records failures, 2 for usage or configuration errors.  The subcommands
that draw samples (``verify``, ``perfect`` and ``kernel``) take their
randomness from ``--seed``, and ``--json`` output is byte-stable for a
fixed seed and configuration; ``kernel verify`` draws t with the kernel
suite's sampler, ``kernelnorm.unit_times_power``, and refuses to run with
no sample or with more than ``_MAX_SAMPLES``, drawn or read from a file.
The CLI has no parser of its own: element text reads through the rings'
``parse_elt`` and ``witt.parse_witt``, ``--b`` through
``Rationals.parse_elt``, and every integer flag through ``rings.integer``;
a refusal quotes the text it refuses through ``errors._quoted``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
from typing import Any, List, Optional, Sequence, Tuple

from .arrow import (
    arrow_from_integer,
    arrow_norm,
    arrow_to_json,
    lift_arrow_precision,
    theta,
    theta_series,
)
from .artin import invariant_classify, teichmuller_phi_invariance
from .config import ring_from_spec
from .cyclotomic import GaussianField
from .errors import CapabilityMissing, MalformedConfig, NoRoot, WittError, _cut, _quoted
from .kernelnorm import uniformizer_steps, unit_times_power, verify_kernel_norm
from .norms import exponent_text
from .perfect import INSTANCES, MAX_TOWER_DEGREE, solve_frobenius, witt_perfect_test
from .rings import MAX_PRECISION, MAX_PRIME, Rationals, Ring, integer, size
from .suites import SUITE_NAMES, run_suite
from .tilt import MAX_TILT_DEPTH, TiltRing, tilt_from_top, tilt_to_json, untilt
from .univ import MAX_STRUCTURE_DEGREE, canonical_dump
from .witt import (
    MAX_GHOST_EXPONENT,
    GhostVec,
    WittVec,
    format_witt,
    frobenius,
    ghost,
    parse_witt,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_norm,
    witt_sub,
    witt_to_json,
)

# what a subcommand hands the emitter: exit code, JSON payload, text lines
Reply = Tuple[int, Any, List[str]]


# ---------------------------------------------------------------------------
# compute: a tiny expression evaluator over Witt vectors
# ---------------------------------------------------------------------------

_UNARY = {"ghost", "unghost", "neg", "frob", "versch", "wnorm"}
_BINARY = {"add", "sub", "mul"}


def _operands(ring: Ring, expr: str, pos: int) -> List[WittVec]:
    """The top-level '(...)' groups of expr[pos:], each parsed as a vector."""
    groups, depth, start = [], 0, pos
    for i in range(pos, len(expr)):
        ch = expr[i]
        if depth == 0 and ch != "(":
            if ch.isspace():
                continue
            raise MalformedConfig(f"expected '(' at position {i} in {_quoted(expr)}")
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                groups.append(expr[start : i + 1])
    if depth:
        raise MalformedConfig(f"unclosed '(' at position {start} in {_quoted(expr)}")
    return [parse_witt(ring, g) for g in groups]


def _cmd_compute(args) -> Reply:
    ring = ring_from_spec(args.ring, p=args.p, precision=args.precision, depth=args.depth)
    expr = args.expr.strip()
    m = re.match(r"[a-z_]+", expr)
    if not m:
        raise MalformedConfig(f"expected an operation name at position 0 in {_quoted(expr)}")
    op = m.group(0)
    if op not in _UNARY | _BINARY:
        raise MalformedConfig(
            f"unknown operation {_quoted(op)} at position 0; supported: "
            + ", ".join(sorted(_UNARY | _BINARY))
        )
    vectors = _operands(ring, expr, m.end())
    want = 1 if op in _UNARY else 2
    if len(vectors) != want:
        raise MalformedConfig(
            f"{op} takes {want} vector(s), got {len(vectors)} in {_quoted(expr)}"
        )
    if op == "ghost":
        entries = ghost(vectors[0]).entries
        text = format_witt(WittVec(ring, entries))
        payload = {"op": op, "result": [ring.elt_to_json(e) for e in entries]}
    elif op == "unghost":
        gv = vectors[0]
        x = unghost(GhostVec(ring, gv.components))
        text = format_witt(x)
        payload = {"op": op, "result": witt_to_json(x)}
    elif op == "wnorm":
        text = witt_norm(vectors[0]).text()
        payload = {"op": op, "result": text}
    else:
        fn = {
            "add": witt_add,
            "sub": witt_sub,
            "mul": witt_mul,
            "neg": witt_neg,
            "frob": frobenius,
            "versch": verschiebung,
        }[op]
        out = fn(*vectors)
        text = format_witt(out)
        payload = {"op": op, "result": witt_to_json(out)}
    return 0, payload, [text]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> Reply:
    report = run_suite(args.suite, seed=args.seed, p=args.p)
    lines = [
        f"suite {report.suite}: {len(report.cases)} cases, "
        f"{report.failures} failures ({report.elapsed_s:.2f}s, seed {report.seed})"
    ]
    lines += [
        f"  [{case.status}] {case.name}: {case.detail}"
        for case in sorted(report.cases, key=lambda c: c.name)
    ]
    return (0 if report.passed else 1), report.to_dict(), lines


# ---------------------------------------------------------------------------
# universal dump
# ---------------------------------------------------------------------------


def _cmd_universal(args) -> Reply:
    lines = canonical_dump(args.p).splitlines()
    return 0, {"p": args.p, "polynomials": lines}, lines


# ---------------------------------------------------------------------------
# arrow norm | lift | theta
# ---------------------------------------------------------------------------


def _cmd_arrow(args) -> Reply:
    # norm works over any ring; lift and theta need a truncated base
    spec = args.ring or ("Z" if args.action == "norm" else "Zmod")
    ring = ring_from_spec(spec, p=args.p, precision=args.precision)
    if args.action == "norm":
        a = arrow_from_integer(ring, args.c, args.depth)
        result = arrow_norm(a, Rationals(ring.p).parse_elt(args.b))
        where = "" if result.attained_at is None else f", attained at level {result.attained_at}"
        line = f"|{args.c}|_(W,{result.b}) = {result.value.text()} ({result.status}{where})"
        return 0, {"c": args.c, "norm": result.to_dict()}, [line]
    if args.action == "lift":
        if not ring.truncated:
            raise CapabilityMissing(f"arrow lift needs a truncated base ring, got {ring.kind}")
        a = arrow_from_integer(ring, args.c, args.depth + ring.M + 2)
        lifted = lift_arrow_precision(a, args.depth)
        lines = [
            f"lift of {args.c} from {ring.label} to {lifted.ring.label} at depth {args.depth}:"
        ]
        lines += [f"  level {n}: {format_witt(lvl)}" for n, lvl in enumerate(lifted.levels)]
        return 0, {"c": args.c, "lifted": arrow_to_json(lifted)}, lines
    a = arrow_from_integer(ring, args.c, args.depth)
    value = theta(a)
    series_value, terms = theta_series(a)
    payload = {
        "c": args.c,
        "theta": ring.elt_to_json(value),
        "series": ring.elt_to_json(series_value),
        "terms": [ring.elt_to_json(t) for t in terms],
        "agree": ring.eq(value, series_value),
    }
    fmt = ring.format_elt
    lines = [
        f"theta = {fmt(value)}",
        f"series = {fmt(series_value)} (terms: " + ", ".join(fmt(t) for t in terms) + ")",
    ]
    return 0, payload, lines


# ---------------------------------------------------------------------------
# perfect test | solve-frob
# ---------------------------------------------------------------------------

def _cmd_perfect(args) -> Reply:
    if args.action == "test":
        spec = args.x or args.ring or "Z"
        if spec.strip().startswith("{"):
            try:
                config = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise MalformedConfig(f"bad instance config: {exc}") from exc
        elif spec in INSTANCES:
            # each instance reads only its own keys
            config = {"instance": spec, "p": args.p, "M": args.precision}
            config.update(k=args.depth, levels=args.depth)
        else:
            raise MalformedConfig(
                f"unknown perfectness instance {_quoted(spec)}; use one of "
                + ", ".join(INSTANCES)
                + " or an inline JSON config"
            )
        report = witt_perfect_test(config, random.Random(args.seed))
        lines = [
            f"{report.instance}: {report.verdict}",
            f"  condition (a): {report.condition_a}",
            f"  condition (b): {report.condition_b}",
        ]
        lines += [f"  note: {note}" for note in report.notes]
        return 0, report.to_dict(), lines
    ring = ring_from_spec(args.ring or "Zmod", p=args.p, precision=args.precision)
    x = parse_witt(ring, args.x)
    try:
        y, rep = solve_frobenius(x)
    except NoRoot as exc:
        payload = {"solved": False, "certified": True, "reason": str(exc)}
        return 0, payload, [f"no preimage (certified): {exc}"]
    lines = [f"y = {format_witt(y)}", f"verified at precision {rep['verified_at_precision']}"]
    return 0, {"solved": True, "y": witt_to_json(y), "report": rep}, lines


# ---------------------------------------------------------------------------
# tilt add | mul | norm | untilt
# ---------------------------------------------------------------------------


def _cmd_tilt(args) -> Reply:
    base = ring_from_spec(args.ring, p=args.p, precision=args.precision, depth=args.depth)
    chains = [tilt_from_top(base, base.parse_elt(tok), args.depth) for tok in args.tops]
    ring = TiltRing(base, args.depth)
    if args.action in ("add", "mul"):
        if len(chains) != 2:
            raise MalformedConfig(f"tilt {args.action} takes two top elements")
        out = (ring.add if args.action == "add" else ring.mul)(*chains)
        lines = [f"  slot {m}: {base.format_elt(entry)}" for m, entry in enumerate(out.entries)]
        return 0, {"op": args.action, "result": tilt_to_json(out)}, lines
    if len(chains) != 1:
        raise MalformedConfig(f"tilt {args.action} takes one top element")
    if args.action == "norm":
        text = ring.seminorm(chains[0]).text()
        return 0, {"op": "norm", "result": text}, [text]
    a = untilt(WittVec(ring, (chains[0],)), args.n)
    lines = [f"  level {n}: {format_witt(lvl)}" for n, lvl in enumerate(a.levels)]
    return 0, {"op": "untilt", "result": arrow_to_json(a)}, lines


# ---------------------------------------------------------------------------
# kernel verify
# ---------------------------------------------------------------------------

# the most samples a count may ask for; 10^4 ran in 1.0-2.4 s on a shared 2-CPU host
_MAX_SAMPLES = 10_000


def _cmd_kernel(args) -> Reply:
    ring = ring_from_spec(args.ring, p=args.p, precision=args.precision, depth=args.depth)
    try:
        count = integer(args.samples)
    except ValueError:
        try:
            with open(args.samples, "r", encoding="utf-8") as fh:
                # reading stops one element past the bound
                texts = list(itertools.islice(filter(None, map(str.strip, fh)), _MAX_SAMPLES + 1))
        except OSError as exc:
            raise MalformedConfig(
                "--samples must be a count or a readable file: "
                f"[Errno {exc.errno}] {exc.strerror}: {_quoted(args.samples)}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise MalformedConfig(
                f"--samples {_quoted(args.samples)} is not UTF-8 text: {exc}"
            ) from exc
        # a run that checks nothing must not report 0 failures
        size("--samples elements read", len(texts), 1, _MAX_SAMPLES)
        elements = [ring.parse_elt(t) for t in texts]
    else:
        size("--samples", count, 1, _MAX_SAMPLES)
        # the sampled t may carry negative powers of p; a file may hold t over any ring
        if not ring.q_algebra:
            raise MalformedConfig(
                f"kernel verify with a sample count needs a Q-algebra (it divides by p), "
                f"got {ring.kind}; use --ring Q, Qi or Qzeta:k, or give --samples a file"
            )
        rng = random.Random(args.seed)
        steps = uniformizer_steps(ring)  # valuations in [-2, 2], as in the kernel suite
        elements = [
            unit_times_power(rng, ring, rng.randint(-2 * steps, 2 * steps)) for _ in range(count)
        ]
    results = [verify_kernel_norm(ring, t, args.j) for t in elements]
    failures = sum(1 for r in results if not r["passed"])
    lines = [
        f"[{'pass' if r['passed'] else 'FAIL'}] t={r['t']}: "
        f"|w1| = {exponent_text(r['w1_exponent'])}, "
        f"scaled sup = {exponent_text(r['scaled_sup_exponent'])}"
        for r in results
    ]
    lines.append(f"{len(results)} samples, {failures} failures")
    payload = {"j": args.j, "failures": failures, "results": results}
    return (0 if failures == 0 else 1), payload, lines


# ---------------------------------------------------------------------------
# artin classify
# ---------------------------------------------------------------------------

def _cmd_artin(args) -> Reply:
    if args.field != "Qi":
        raise MalformedConfig(
            f"classification is implemented over the Gaussian field only, got {_quoted(args.field)}"
        )
    field = GaussianField(args.p)
    f = field.parse_elt(args.f)
    report = invariant_classify(field, f, args.depth)
    report["teichmuller_phi_invariant"] = teichmuller_phi_invariance(field, f)
    verdict = "bounded" if report["bounded"] else "unbounded"
    predicted = "bounded" if report["predicted_bounded"] else "unbounded"
    lines = [
        f"f = {args.f} over Q(i) at p={args.p} ({report['splitting']}): "
        f"{verdict} (predicted {predicted}, match={report['passed']})",
        f"profile exponents: {report['profile_exponents']}",
    ]
    return 0, report, lines


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# a token in argparse's refusal line: a refused choice, which argparse quotes
# by its repr, or a bare word, such as an unrecognized argument
_TOKEN = re.compile(r"'([^'\\]*)'|\S+")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusal line cuts each long token as
    ``errors._quoted`` cuts it and lists the first three unrecognized
    arguments and the count of the rest; the subparsers inherit it."""

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            more = [f"... ({len(extra) - 3} more)"] if len(extra) > 3 else []
            self.error("unrecognized arguments: " + " ".join(extra[:3] + more))
        return args

    def error(self, message: str):
        cut = _TOKEN.sub(lambda m: _cut(m[0]) if m[1] is None else _quoted(m[1]), message)
        super().error(cut)


def _integer(text: str) -> int:
    """An integer flag's value, read by ``rings.integer``; argparse prints the
    refusal with its usage line."""
    try:
        return integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {_quoted(text)}") from None


def _add_prime(sp, default: int) -> None:
    text = f"the prime, at most {MAX_PRIME} (default {default})"
    sp.add_argument("--p", type=_integer, default=default, help=text)


def _add_common(sp, *, ring_default: Optional[str] = None, precision: int = 6, depth: int = 3):
    _add_prime(sp, 2)
    if ring_default is not None:
        sp.add_argument(
            "--ring",
            default=ring_default,
            help="ring config: shorthand (Z, Q, Qi, Zmod, Qzeta:k, ZzetaMod:k, "
            f"PerfPoly:n), inline JSON, or a config file (default {ring_default})",
        )
    sp.add_argument(
        "--precision",
        type=_integer,
        default=precision,
        help=f"truncation exponent M, at most {MAX_PRECISION}",
    )
    sp.add_argument("--depth", type=_integer, default=depth, help="family depth / level count")
    sp.add_argument("--json", action="store_true", help="emit a machine-readable report")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wittlab",
        description="Exact Witt-vector arithmetic, tilting, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=SUITE_NAMES)
    restrict = "restrict to one prime; checks without a case there are reported as skipped"
    sp.add_argument("--p", type=_integer, default=None, help=restrict)
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("compute", help="evaluate a Witt-vector expression")
    sp.add_argument(
        "expr",
        help="expression: an operation (ghost, unghost, add, sub, mul, neg, "
        "frob, versch, wnorm) followed by parenthesized vectors, "
        f"e.g. \"add (1,0) (1,0)\"; a vector's p^(length-1) at most {MAX_GHOST_EXPONENT}",
    )
    _add_common(sp, ring_default="Z")
    sp.set_defaults(fn=_cmd_compute)

    sp = sub.add_parser("universal", help="structure polynomial utilities")
    sp.add_argument(
        "action",
        choices=["dump"],
        help=f"every cached polynomial at p; p^index at most {MAX_STRUCTURE_DEGREE}",
    )
    _add_prime(sp, 2)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_universal)

    sp = sub.add_parser("arrow", help="coherent-family (inverse limit) operations")
    sp.add_argument(
        "action",
        choices=["norm", "lift", "theta"],
        help=f"the family's p^depth at most {MAX_GHOST_EXPONENT} (lift builds depth + M + 2)",
    )
    sp.add_argument("c", type=_integer, help="the integer whose coherent family to build")
    sp.add_argument("--b", default="1", help="overconvergence weight (rational)")
    sp.add_argument(
        "--ring",
        default=None,
        help="ring config, as for compute (default Z for norm, Zmod for lift and theta)",
    )
    _add_common(sp, precision=2, depth=3)
    sp.set_defaults(fn=_cmd_arrow)

    sp = sub.add_parser("perfect", help="Witt-perfectness tests and Frobenius solving")
    sp.add_argument(
        "action",
        choices=["test", "solve-frob"],
        help="a tower test reaches level depth + 1, of field degree (p-1)*p^(depth+2) "
        f"at most {MAX_TOWER_DEGREE}",
    )
    sp.add_argument(
        "x",
        nargs="?",
        default="",
        help="for solve-frob: the target vector, e.g. \"(4, 0)\"",
    )
    sp.add_argument("--ring", help="ring config (default Z for test, Zmod for solve-frob)")
    sp.add_argument("--seed", type=_integer, default=0, help="seed for the tower's samples")
    _add_common(sp, precision=6, depth=2)
    sp.set_defaults(fn=_cmd_perfect)

    sp = sub.add_parser("tilt", help="chain (tilt) arithmetic over a truncated base")
    chains = f"chain depth at most {MAX_TILT_DEPTH}"
    sp.add_argument("action", choices=["add", "mul", "norm", "untilt"], help=chains)
    sp.add_argument("tops", nargs="+", help="top elements; each seeds a coherent chain")
    sp.add_argument(
        "--n",
        type=_integer,
        default=1,
        help=f"untilt output depth; the family's p^n at most {MAX_GHOST_EXPONENT}",
    )
    _add_common(sp, ring_default="Zmod", precision=3, depth=3)
    sp.set_defaults(fn=_cmd_tilt)

    sp = sub.add_parser("kernel", help="Frobenius-kernel norm identity")
    sp.add_argument("action", choices=["verify"])
    j = f"kernel index (vector length - 1); p^j at most {MAX_GHOST_EXPONENT}"
    sp.add_argument("--j", type=_integer, default=1, help=j)
    sp.add_argument(
        "--samples",
        default="10",
        help=f"sample count, or a file of one element per line; at most {_MAX_SAMPLES} either way",
    )
    sp.add_argument("--seed", type=_integer, default=0, help="seed for a sample count's draws")
    _add_common(sp, ring_default="Q")
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("artin", help="constant-ghost invariant classification")
    sp.add_argument("action", choices=["classify"])
    sp.add_argument("--field", default="Qi", help="base field (Qi)")
    sp.add_argument("--f", required=True, help="the constant, e.g. 'i', '1/5', '1/2+3i'")
    _add_prime(sp, 5)
    depth = f"profile depth; p^depth at most {MAX_GHOST_EXPONENT}"
    sp.add_argument("--depth", type=_integer, default=3, help=depth)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_artin)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # exact numbers may run past the interpreter's int/str digit limit, in
    # the input and in the output; it is lifted for this call only
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code, payload, lines = args.fn(args)
        print(json.dumps(payload, sort_keys=True, indent=2) if args.json else "\n".join(lines))
        # a reader that closed the pipe shows here, not in the exit flush
        sys.stdout.flush()
    except WittError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # a reader that stops early is not an error; stdout goes to the null
        # device so that the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        # e.g. stdout on a full device; after BrokenPipeError, its subclass
        print(f"error: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
