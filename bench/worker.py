"""One benchmark process: set up wittlab, run a workload's ops, print JSON.

``run.py`` starts this in a fresh interpreter for every measurement, so each
one pays the import and set-up a CLI invocation pays.  It can also be run by
hand from the repository root:

    python3 bench/worker.py --mode run --workload witt-zmod --seed 1 --seconds 5

Modes:

* ``setup``: import and set up, print ``{"setup_s": ...}``.
* ``run``: a closed loop with one caller over the seeded op list (at least
  1000 ops, so ten lie beyond the 99th percentile), whole pass after whole
  pass, for ``--seconds``.  The first pass checks every output against its
  identity and hashes the outputs, and is not timed; later passes must
  reproduce the first pass's JSON byte for byte.
* ``trace``: a checked pass, an untraced pass, a traced pass and another
  untraced pass; per-layer numbers come from the traced pass only.

An op's timed region is one public wittlab call plus the conversion of its
result to the JSON form the CLI prints.  Checks, hashing and comparison run
outside it.

Every time this process reports in ``run`` and ``setup`` mode is normalized
to the host's speed at that moment.  The host is shared, and other tenants
make everything it runs up to twice as slow, for seconds at a time.  So a fixed
slice of the oracle's own arithmetic (``reference_slice``, which never
touches wittlab) runs before every ``REF_EVERY``-th op, and an op's time is
scaled by ``REF_NOMINAL_S`` over the mean of the slices near it.  A value is
then the time the op would take where the slice takes ``REF_NOMINAL_S``: the
slice's time on the quiet 2-CPU host the benchmark was tuned on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle as O  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

MIN_PASSES = 3  # timed passes, after the checked one
REF_EVERY = 10  # ops between two reference slices
REF_WINDOW = 3  # slices on each side of an op that normalize its time
REF_NOMINAL_S = 0.00066  # reference_slice on the quiet tuning host
SETUP_REF_SLICES = 5  # slices before and after set-up


def _reference_data():
    rng = random.Random(0)
    C = O.Cyclo(3, 2)
    vec = [
        tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((1, 2, 3))) for _ in range(C.e))
        for _ in range(2)
    ]
    return O.cyclo_ops(C), vec, [rng.randrange(25, 125) for _ in range(5)]


_REF_OPS, _REF_VEC, _REF_INTS = _reference_data()


def reference_slice() -> float:
    """Time one fixed piece of the oracle's arithmetic: the ghost vector of a
    length-2 Witt vector over Q(zeta_9) and five ghost components over
    Z/5^3, the kind of Fraction and big-integer work the ops do."""
    t0 = time.perf_counter()
    O.ghost_field(_REF_VEC, 3, *_REF_OPS)
    for m in range(5):
        O.ghost_int(_REF_INTS, 5, m, 5 ** (3 + m))
    return time.perf_counter() - t0


def normalize(times, refs) -> list:
    """Each op's time scaled by REF_NOMINAL_S over the mean of the reference
    slices within REF_WINDOW slices of it; refs[j] ran before op j*REF_EVERY."""
    out = []
    for i, t in enumerate(times):
        j = i // REF_EVERY
        near = refs[max(0, j - REF_WINDOW): j + REF_WINDOW + 1]
        out.append(t * REF_NOMINAL_S * len(near) / sum(near))
    return out


def _canonical(out) -> str:
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


class Runner:
    """Runs passes over the op list and keeps the first pass's outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = [None] * len(ops)
        self.bad = set()
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def _record_failure(self, i: int, reason: str) -> None:
        self.failed += 1
        self.bad.add(i)
        if len(self.failures) < 5:
            self.failures.append(f"op {i} ({self.ops[i].kind}): {reason}")

    def one(self, i: int, first: bool) -> float:
        op = self.ops[i]
        clock = time.perf_counter
        error = None
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a raised op is a failed op; keep measuring the rest
            error = f"raised {type(exc).__name__}: {exc}"
        dt = clock() - t0
        self.attempted += 1
        if error is None:
            try:
                canon = _canonical(out)
                if first:
                    reason = op.check(out)
                    self.reference[i] = canon
                    self.digest.update(canon.encode())
                    self.digest.update(b"\n")
                else:
                    reason = None if canon == self.reference[i] else "output differs from the first pass"
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
            error = reason or ("failed in the first pass" if i in self.bad else None)
        if error is not None:
            self._record_failure(i, error)
        return dt

    def checked_pass(self) -> None:
        for i in range(len(self.ops)):
            self.one(i, True)

    def reference_pass(self):
        """A pass with a reference slice before every REF_EVERY-th op:
        (op times, slice times)."""
        times, refs = [], []
        for i in range(len(self.ops)):
            if i % REF_EVERY == 0:
                refs.append(reference_slice())
            times.append(self.one(i, False))
        return times, refs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load(args):
    init = os.path.join(args.root, "src", "wittlab", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"no wittlab sources at {init}")
    sys.path.insert(0, os.path.join(args.root, "src"))
    for _ in range(4 * SETUP_REF_SLICES):  # warm the slice up
        reference_slice()
    before = [reference_slice() for _ in range(SETUP_REF_SLICES)]
    ctx, setup_s = W.timed_setup(args.workload)
    refs = before + [reference_slice() for _ in range(SETUP_REF_SLICES)]
    setup_s *= REF_NOMINAL_S * len(refs) / sum(refs)
    loaded = os.path.realpath(ctx.w.__file__)
    if loaded != os.path.realpath(init):
        raise SystemExit(f"imported wittlab from {loaded}, not from {init}")
    return ctx, setup_s


def _build_ops(ctx, args):
    specs = W.generate(args.workload, args.seed)
    return [W.build(ctx, args.workload, spec) for spec in specs]


def mode_run(args, ctx, setup_s) -> dict:
    """A checked, untimed pass, then timed passes until --seconds have gone
    by (at least MIN_PASSES).  An op's latency is the median over the timed
    passes of its normalized time."""
    runner = Runner(_build_ops(ctx, args))
    clock = time.perf_counter
    start = clock()
    runner.checked_pass()
    deadline = start + args.seconds
    samples, slowdowns, last = [], [], clock() - start
    # no pass starts that the last one's length says would end past the deadline
    while len(samples) < MIN_PASSES or clock() + last <= deadline:
        t0 = clock()
        times, refs = runner.reference_pass()
        samples.append(normalize(times, refs))
        slowdowns.append(statistics.median(refs) / REF_NOMINAL_S)
        last = clock() - t0
    lat = [statistics.median(col) for col in zip(*samples)]
    ordered = sorted(lat)
    rank = math.ceil(0.99 * len(ordered))
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": ordered[rank - 1] * 1e3,
        "list_ops": len(lat),
        "beyond_p99": len(lat) - rank,
        "passes": len(samples),
        "slowdowns": slowdowns,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "loop_s": clock() - start,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "digest": runner.digest.hexdigest(),
    }


def mode_trace(args, ctx, setup_s) -> dict:
    """The overhead ratio compares normalized pass times, so a host that
    slowed down during one pass does not show as tracer overhead."""
    runner = Runner(_build_ops(ctx, args))
    runner.checked_pass()
    untraced = [sum(normalize(*runner.reference_pass()))]
    before = T.snapshot()
    tracer = T.Tracer()
    tracer.install()
    try:
        times, refs = runner.reference_pass()
    finally:
        tracer.uninstall()
    traced_s = sum(times)
    leftovers = T.verify_clean(before)
    untraced.append(sum(normalize(*runner.reference_pass())))
    metrics = tracer.aggregate()
    metrics["trace.overhead_ratio"] = sum(normalize(times, refs)) / statistics.mean(untraced)
    metrics["trace.spans"] = tracer.span_count()
    self_total = sum(metrics[f"{layer}.self_s"] for layer in T.LAYERS)
    tracer.write(os.path.join(args.root, ".bench_out", f"trace-{args.workload}"))
    return {
        "metrics": metrics,
        "traced_s": traced_s,
        "untraced_s": untraced,
        "self_s_total": self_total,
        "clean": not leftovers,
        "leftovers": leftovers[:5],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "digest": runner.digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--root", default=os.getcwd())
    args = parser.parse_args(argv)
    ctx, setup_s = _load(args)
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    elif args.mode == "run":
        result = mode_run(args, ctx, setup_s)
    else:
        result = mode_trace(args, ctx, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
