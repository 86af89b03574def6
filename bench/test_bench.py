"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as R  # noqa: E402
import tracer as T  # noqa: E402
import worker as K  # noqa: E402
import workloads as W  # noqa: E402

SUBSET = 60


@pytest.fixture(scope="module")
def contexts():
    return {w: W.setup(w) for w in W.WORKLOADS}


def _ops(contexts, workload, seed=0, count=SUBSET):
    specs = W.generate(workload, seed)[:count]
    return [W.build(contexts[workload], workload, s) for s in specs]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = json.dumps(W.generate(workload, 7))
    assert json.dumps(W.generate(workload, 7)) == first
    assert json.dumps(W.generate(workload, 8)) != first
    assert len(W.generate(workload, 7)) >= 1000  # ten ops beyond the 99th percentile


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_outputs_pass_their_checks(contexts, workload):
    for op in _ops(contexts, workload):
        assert op.check(op.run()) is None, op.kind


def _bump(v):
    """The same element plus one (a residue, a coefficient vector, a chain)."""
    if isinstance(v, int):
        return v + 1
    if isinstance(v, dict):
        key = "value" if "value" in v else "coeffs"
        return {**v, key: _bump(v[key])}
    if isinstance(v, str):
        return str(Fraction(v) + 1)
    if v and isinstance(v[0], list) and v[0] and isinstance(v[0][0], list):
        return v + [[[10 ** 6], 1]]  # a perfected polynomial gains a term
    return [_bump(v[0])] + list(v[1:])


def _flip_status(out):
    return {**out, "status": "lower-bound" if out["status"] == "exact" else "exact"}


def _shift_norm(out):
    return "p^0" if out == "0" else f"p^{Fraction(out[2:]) + 1}"


@pytest.mark.parametrize(
    "workload, kind, corrupt",
    [
        ("witt-zmod", "witt_mul", lambda out: {**out, "components": out["components"][:-1] + [_bump(out["components"][-1])]}),
        ("witt-zmod", "arrow_norm", _flip_status),
        ("numberfield", "witt_add", lambda out: {**out, "components": [_bump(out["components"][0])] + out["components"][1:]}),
        ("numberfield", "witt_norm", _shift_norm),
        ("tilt-charp", "tilt_add", lambda out: {**out, "entries": [_bump(out["entries"][0])] + out["entries"][1:]}),
        ("tilt-charp", "witt_mul", lambda out: {**out, "components": [_bump(out["components"][0])] + out["components"][1:]}),
    ],
)
def test_checks_reject_wrong_outputs(contexts, workload, kind, corrupt):
    """Each check must catch a perturbed answer, or it proves nothing."""
    ops = [op for op in _ops(contexts, workload, count=400) if op.kind == kind][:10]
    assert ops
    for op in ops:
        out = op.run()
        bad = corrupt(copy.deepcopy(out))
        assert bad != out
        assert op.check(bad) is not None, (kind, out, bad)


def _traced_pass(ops):
    tracer = T.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for op in ops:
            op.run()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, wall


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tracer_is_removed_and_self_time_fits(contexts, workload):
    ops = _ops(contexts, workload)
    before = T.snapshot()
    tracer, wall = _traced_pass(ops)
    assert T.verify_clean(before) == []
    roots = sum(1 for parent in tracer.parents if parent < 0)
    assert roots >= len(ops)  # every op's own call is a span, not only its callees
    metrics = tracer.aggregate()
    assert sum(metrics[f"{layer}.self_s"] for layer in T.LAYERS) <= wall
    # calls repeat exactly on the same ops
    again, _ = _traced_pass(ops)
    second = again.aggregate()
    assert {k: v for k, v in metrics.items() if k.endswith(".calls")} == {
        k: v for k, v in second.items() if k.endswith(".calls")
    }


def test_tracer_wraps_inherited_methods_and_rebinds_imports(contexts):
    import wittlab
    from wittlab import arrow, perfect, rings, tilt, witt

    tracer = T.Tracer()
    tracer.install()
    try:
        assert getattr(witt.witt_mul, "__bench_traced__", False)
        assert arrow.witt_mul is witt.witt_mul and tilt.frobenius is perfect.frobenius is witt.frobenius
        assert wittlab.witt_mul is witt.witt_mul
        assert "pow_" in vars(rings.Rationals)  # inherited from Ring, wrapped here
        assert not getattr(rings.Ring.pow_, "__bench_traced__", False)
        ring = rings.ZModPM(3, 4)
        x = witt.WittVec(ring, (ring.make(5), ring.make(7)))
        witt.witt_mul(x, x)
    finally:
        tracer.uninstall()
    assert "pow_" not in vars(rings.Rationals)
    assert not getattr(witt.witt_mul, "__bench_traced__", False)
    names = {tracer.names[i] for i in tracer.name_ids}
    assert {"witt.witt_mul", "witt.ghost", "rings.Rationals.pow_", "rings.ZModPM.lift_to_cover"} <= names


def test_reference_slice_never_calls_wittlab(contexts):
    tracer = T.Tracer()
    tracer.install()
    try:
        K.reference_slice()
    finally:
        tracer.uninstall()
    assert tracer.span_count() == 0


def test_normalize_scales_each_op_by_the_slices_near_it():
    n = 8 * K.REF_EVERY
    refs = [K.REF_NOMINAL_S] * (n // K.REF_EVERY)
    assert K.normalize([1.0] * n, refs) == pytest.approx([1.0] * n)
    slow = list(refs)
    slow[-1] *= 2  # the host was slow by the last slice only
    out = K.normalize([1.0] * n, slow)
    assert out[0] == pytest.approx(1.0)  # more than REF_WINDOW slices away
    assert out[-1] < 1.0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(R.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(R.PER_LAYER)
