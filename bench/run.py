"""The wittlab benchmark: one command per workload, run from the repository root.

    python3 bench/run.py --workload witt-zmod --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured untraced:
``SETUP_PROBES`` fresh processes that only import and set up, whose median
is ``setup_s``, then one closed-loop worker process for ``--seconds``.  These
times are normalized to the host's speed at the moment they were taken (see
``worker.py``), because other tenants of the shared host make whole runs up to
twice as slow.  With
``--trace 1`` it runs one worker that traces a single pass from outside the
package and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit, ``ops_failed_ratio`` and the sha256 of the canonical JSON of every
op's output (reported, not gated).

The benchmark generates its inputs from ``--seed``, imports wittlab from
``src/`` of the current directory and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11
TIME_LIMIT_S = 170.0

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("rings.calls", "count"),
    ("rings.self_s", "s"),
    ("rings.Rationals.mul.calls", "count"),
    ("rings.Rationals.pow_.calls", "count"),
    ("rings.ZModPM.mul.calls", "count"),
    ("rings.ZModPM.pow_.calls", "count"),
    ("rings.lift_to_cover.calls", "count"),
    ("witt.calls", "count"),
    ("witt.self_s", "s"),
    ("witt.ghost.calls", "count"),
    ("witt.unghost.calls", "count"),
    ("witt.ghost.out_bits", "bits_computed"),
    ("cyclotomic.calls", "count"),
    ("cyclotomic.self_s", "s"),
    ("cyclotomic.mul.calls", "count"),
    ("cyclotomic.inv.calls", "count"),
    ("cyclotomic.valuation.calls", "count"),
    ("cyclotomic.mul.in_bits", "bits_computed"),
    ("univ.calls", "count"),
    ("univ.self_s", "s"),
    ("univ.evaluate.calls", "count"),
    ("perfpoly.calls", "count"),
    ("perfpoly.self_s", "s"),
    ("tilt.calls", "count"),
    ("tilt.self_s", "s"),
    ("arrow.calls", "count"),
    ("arrow.self_s", "s"),
    ("arrow.raised", "count"),
    ("perfect.calls", "count"),
    ("perfect.self_s", "s"),
    ("perfect.raised", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--root", os.getcwd(),
    ]
    # Bytecode is cached under .bench_out whatever the environment says, so
    # every set-up probe imports wittlab as an installed CLI does: from cache.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=os.path.join(os.getcwd(), ".bench_out", "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric_lines(values: dict, units) -> list:
    return [f"  {name:30s} {values[name]:.6g} {unit}" for name, unit in units]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wittlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "wittlab", "__init__.py")):
        print("bench/run.py: run it from a wittlab checkout (src/wittlab is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.trace:
        res = _worker(args, "trace", deadline)
        values = {name: res["metrics"].get(name, 0) for name, _ in PER_LAYER}
        units = PER_LAYER
        correct = (
            res["failed"] == 0 and res["clean"] and res["self_s_total"] <= res["traced_s"]
        )
        print(f"{args.workload} seed={args.seed} traced pass: {res['traced_s']:.3f} s, "
              f"{res['metrics']['trace.spans']} spans, untraced passes (normalized) "
              + ", ".join(f"{s:.3f} s" for s in res["untraced_s"]))
        print(f"  wrappers removed after the traced pass: {res['clean']} {res['leftovers']}")
        print(f"  sum of layer self_s {res['self_s_total']:.3f} s <= traced op time: "
              f"{res['self_s_total'] <= res['traced_s']}")
        print("  *.out_bits and *.in_bits are computed from operand sizes, not measured")
    else:
        # the probes run first, so that compiling bytecode into a fresh cache
        # never adds to the run's peak memory
        probes = [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = _worker(args, "run", deadline)
        values = {name: res[name] for name, _ in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(probes)
        units = END_TO_END
        correct = res["failed"] == 0
        print(f"{args.workload} seed={args.seed}: {res['passes']} timed passes over a list of "
              f"{res['list_ops']} ops in {res['loop_s']:.2f} s, each op's latency the median "
              f"over the passes of its normalized time; {res['beyond_p99']} ops beyond p99")
        print("  host slowdown per pass (reference slice / nominal): "
              + ", ".join(f"{s:.2f}" for s in res["slowdowns"]))
        print("  setup probes " + ", ".join(f"{s:.4f}" for s in probes) + " s")

    print(f"  output sha256 {res['digest']}")
    print(f"  ops_failed_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    for line in res["failures"]:
        print(f"  failure: {line}")
    print("\n".join(_metric_lines(values, units)))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
