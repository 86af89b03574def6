"""The verification suites at seeds 0 and 1, pinned byte for byte, the law
tally, and the rule by which the runner runs, skips or refuses each check."""

import hashlib
import inspect
import json
import random
import re

import pytest

from wittlab import suites
from wittlab.cli import main
from wittlab.errors import MalformedConfig, NotDivisible
from wittlab.suites import SUITE_NAMES, CaseResult, _Law, run_suite

# sha256 of json.dumps(report.to_dict(), sort_keys=True, indent=2), which is
# exactly what `wittlab verify <suite> --seed S --json` prints
DIGESTS = {
    "universal": "6fecc43d3474c73580bce775d41f79e5372d79c4d9c2012168a0cb29733c41be",
    "ghost": "232f2ff314549d1db19b0b86c6942f30aebd0fbb8063f6d740549bec02d29839",
    "norms": "0fee92cc05f8b357df934c4cc2cea40788dce9ae3f0fd0de8320ccecdd5e6d3f",
    "arrow": "ef78d4013a2584eff0792df74558969d14b36c1be0e034524db288f56c5a2056",
    "perfect": "5e834589cc6d483e9a97d655efa4514f82173e9c107b549b89b2b96d876389c1",
    "tilt": "bcaed066cc109301ec49e9bbb92d6b534e98af60d7468aa8cf9c837490cb7563",
    "kernel": "9119eaddacca32badfb874f64432c580dcbd1b127cddcec13650f57909d92806",
    "artin": "75f836016700bc5ad8ee420a09ac1a0dfa5549fdd172032965d2d3b1c5ef7e26",
}
DIGESTS_SEED_1 = {
    "universal": "ee1851d2ba34eccf1b2c47703648e64dada42a1812c0a21fd42ddfd40cbcb4a2",
    "ghost": "5de9b52fa8a3bcb09c6a7ce67c6171a1f7d57e7f593a3fa356a4d66dcc6d3ec6",
    "norms": "08662b5cb2860456c41674af50b12b345bd08ab1fd13295738b9f7d23cf5b770",
    "arrow": "48f08ecec37f1b8188b39bf2562387b4b4de286cc997188c028ff7092a1aaa33",
    "perfect": "9f344a05af69285e64666391863b7511cbc825b118ef1aa739ce97341b64e342",
    "tilt": "d4b8a0a691216498005a34cff127528a9d0b17189331fce982dd05b6e6d93622",
    "kernel": "fa1aed0cca7a7140517fe85933668c58a2978631919f33b5fb7e0e1c3b719b77",
    "artin": "cac0eaea946bb825515538709c348f1983325245f58a8f8900a27517cf2f051e",
}


def _pinned_report(suite, seed, digests):
    report = run_suite(suite, seed=seed)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digests[suite]
    failing = [c for c in report.cases if not c.passed]
    assert report.passed, [(c.name, c.detail) for c in failing]
    return report


def _sandwich(report):
    (case,) = [c for c in report.cases if c.name == "inverse_frobenius_sandwich"]
    assert case.status == "inconclusive"
    return case


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_suite_report_at_seed_0(suite):
    report = _pinned_report(suite, 0, DIGESTS)
    if suite == "arrow":
        # a residue that is zero mod p^M has norm in [0, p^-M], not 0: the
        # sample that read as a failure is inconclusive, and nothing fails
        case = _sandwich(report)
        assert "0 failures, 2 inconclusive" in case.detail
        assert "; first inconclusive: sample 4 over Zmod(p=3, M=4), depth 3, b=2: " in case.detail


@pytest.mark.parametrize("suite", sorted(DIGESTS_SEED_1))
def test_suite_report_at_seed_1(suite):
    report = _pinned_report(suite, 1, DIGESTS_SEED_1)
    if suite == "arrow":
        case = _sandwich(report)
        assert "0 failures, 1 inconclusive" in case.detail
        assert "; first inconclusive: sample 36 over Zmod(p=2, M=6), depth 4, b=1: " in case.detail


def test_law_keeps_the_first_witness_and_counts_every_failure():
    law = _Law("demo")
    calls = []
    for i, ok in enumerate([True, False, True, False, False]):
        law.check(ok, lambda: calls.append(i) or f"sample {i}")
    assert (law.bad, law.first, calls) == (3, "sample 1", [1])
    case = law.case("5 samples; 3 failures")
    assert not case.passed
    assert case.detail == "5 samples; 3 failures; first: sample 1"


def test_law_adds_no_suffix_on_a_pass():
    law = _Law("demo")
    for _ in range(3):
        law.check(True, lambda: pytest.fail("a witness is built only on a failure"))
    case = law.case("3 samples", inconclusive=True)
    assert (case.passed, case.status, case.detail) == (True, "inconclusive", "3 samples")


def _stub_registry(monkeypatch, cases):
    """Replace every check's ``run`` by a stub that records the primes it is
    handed and returns ``cases(name)``."""
    calls = {}

    def stub(name):
        def run(rng, primes):
            calls[name] = primes
            return cases(name)

        return run

    registry = {
        suite: [check._replace(run=stub(check.name)) for check in checks]
        for suite, checks in suites._SUITES.items()
    }
    monkeypatch.setattr(suites, "_SUITES", registry)
    return registry, calls


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 11])
def test_every_registered_check_is_run_or_skipped_exactly_once(monkeypatch, p):
    registry, calls = _stub_registry(monkeypatch, lambda name: [CaseResult(name, True, "ran")])
    for suite in SUITE_NAMES:
        selected = {
            (f"{sub}." if suite == "all" else "") + check.name: check
            for sub, checks in registry.items()
            if suite in (sub, "all")
            for check in checks
        }
        excluded = {
            label
            for label, check in selected.items()
            if p is not None and check.primes is not None and p not in check.primes
        }
        calls.clear()
        if excluded == set(selected):
            with pytest.raises(MalformedConfig, match=f"^--p {p}: suite {suite} covers p in "):
                run_suite(suite, p=p)
            assert not calls
            continue
        report = run_suite(suite, p=p)
        names = [case.name for case in report.cases]
        assert sorted(names) == sorted(selected), (suite, p)
        skipped = {c.name: c for c in report.cases if c.detail.startswith("skipped: ")}
        assert set(skipped) == excluded, (suite, p)
        for label in excluded:
            covered = ", ".join(map(str, selected[label].primes))
            assert (skipped[label].status, skipped[label].detail) == (
                "inconclusive",
                f"skipped: --p {p}: this check covers p in {{{covered}}} only",
            )
        assert calls == {
            check.name: check.primes if p is None else (p,)
            for label, check in selected.items()
            if label not in excluded
        }


def test_a_check_that_returns_no_case_is_reported_as_failing(monkeypatch):
    registry, _ = _stub_registry(monkeypatch, lambda name: [])
    report = run_suite("all")
    labels = [f"{sub}.{check.name}" for sub, checks in registry.items() for check in checks]
    assert sorted(c.name for c in report.cases) == sorted(labels)
    assert all(c.status == "fail" for c in report.cases) and not report.passed
    report = run_suite("kernel", p=3)
    assert [(c.name, c.passed) for c in report.cases] == [("kernel_norm", False)]


def test_a_check_that_raises_fails_alone(monkeypatch, capsys):
    """A ``WittError`` inside one check is that check's failing case; the
    other checks still run and ``verify all`` exits 1, not 2."""

    def cases(name):
        if name == "frobenius_solving":
            raise NotDivisible("235 is not divisible by 2")
        return [CaseResult(name, True, "ran")]

    registry, _ = _stub_registry(monkeypatch, cases)
    code = main(["verify", "all", "--json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    report = json.loads(out)
    labels = [f"{sub}.{check.name}" for sub, checks in registry.items() for check in checks]
    assert sorted(c["name"] for c in report["cases"]) == sorted(labels)
    statuses = {c["name"]: (c["status"], c["detail"]) for c in report["cases"]}
    assert statuses.pop("perfect.frobenius_solving") == (
        "fail",
        "raised NotDivisible: 235 is not divisible by 2",
    )
    assert set(statuses.values()) == {("pass", "ran")}
    assert report["failures"] == 1 and not report["passed"]


def test_every_registered_check_is_a_generator():
    """A check yields its cases; only `run_suite` collects them."""
    checks = [check for checks in suites._SUITES.values() for check in checks]
    assert checks
    for check in checks:
        assert inspect.isgeneratorfunction(check.run), check.name


def test_a_check_that_raises_after_a_case_reports_only_the_failure(monkeypatch):
    """The cases a check yielded before it raised are dropped: the check is
    one failing case, as if it had raised at once."""

    def run(rng, primes):
        yield CaseResult("kernel_closed_form", True, "ran")
        raise NotDivisible("235 is not divisible by 2")

    monkeypatch.setattr(suites, "_SUITES", {"kernel": [suites._Check("kernel_norm", (2, 3), run)]})
    report = run_suite("kernel")
    assert [(c.name, c.status, c.detail) for c in report.cases] == [
        ("kernel_norm", "fail", "raised NotDivisible: 235 is not divisible by 2")
    ]
    assert report.failures == 1 and not report.passed


def test_truncated_naturality_fails_when_the_transport_claims_a_digit_too_many(monkeypatch):
    """The planted defect: the truncated transport claims one digit more
    than its inputs carry (capped at M)."""
    from wittlab import witt

    real = witt._min_precision

    def one_digit_more(ring, vecs):
        prec = real(ring, vecs)
        return None if prec is None else min(prec + 1, ring.M)

    (case,) = suites._check_truncated_naturality(random.Random(0), None)
    assert case.passed and case.detail.startswith("sampled: 11000 components ")
    monkeypatch.setattr(witt, "_min_precision", one_digit_more)
    for p in (2, 3, 5, 7):
        (case,) = suites._check_truncated_naturality(random.Random(0), (p,))
        assert case.status == "fail" and "; first: sample " in case.detail, case.detail


@pytest.mark.parametrize("p", [2, 3])
def test_truncated_naturality_over_zeta_rings_fails_under_the_same_defect(monkeypatch, p):
    """The planted defect of the test above, on Z[zeta]/p^M alone: the
    Z[zeta] half of the check finds it by itself, and its first witness
    names the ring."""
    from wittlab import witt
    from wittlab.cyclotomic import CycloModPM

    real = witt._min_precision

    def one_digit_more_over_zeta(ring, vecs):
        prec = real(ring, vecs)
        return min(prec + 1, ring.M) if isinstance(ring, CycloModPM) else prec

    monkeypatch.setattr(witt, "_min_precision", one_digit_more_over_zeta)
    (case,) = suites._check_truncated_naturality(random.Random(0), (p,))
    assert case.status == "fail", case.detail
    assert "; first: sample " in case.detail and " over ZzetaMod(p=" in case.detail


def test_ring_laws_fail_under_a_coefficient_product_defect(monkeypatch):
    """The planted defect: Q's product is off by one when a > b.  Over Q the
    transport divides by p freely, so the laws fail rather than raise (the
    same defect in Z's product ends in NotDivisible), and each first witness
    names its sample and Q."""
    from wittlab.rings import Rationals

    monkeypatch.setattr(suites, "_LAW_DRAWS", 28)  # four draws per law over each ring
    assert all(c.passed for c in suites._check_witt_ring_laws(random.Random(0), None))
    real = Rationals.mul
    monkeypatch.setattr(Rationals, "mul", lambda self, a, b: real(self, a, b) + (a > b))
    cases = {c.name: c for c in suites._check_witt_ring_laws(random.Random(0), None)}
    for name in ("law_mul_commutative", "law_mul_associative", "law_distributive"):
        assert cases[name].status == "fail", cases[name].detail
    for case in cases.values():
        if not case.passed:
            assert re.search(r"; first: sample \d+ over Q\(p=3\): x=\(", case.detail), case.detail


def test_tilt_mul_laws_fail_under_a_chain_product_defect(monkeypatch):
    """The planted defect: the chain product adds the square of each entry.
    It is commutative, so associativity or distributivity must catch it; the
    sum is untouched, and its laws still pass."""
    from wittlab import tilt

    real = tilt.tilt_mul

    def squared_too(x, y):
        z, base = real(x, y), x.base
        return tilt.TiltElt(base, tuple(base.add(e, base.mul(e, e)) for e in z.entries))

    monkeypatch.setattr(tilt, "tilt_mul", squared_too)
    cases = {c.name: c for c in suites._check_tilt_ring_laws(random.Random(0), (2, 3))}
    for q, M in ((2, 3), (3, 2)):
        assert cases[f"tilt_add_laws_p{q}"].status == "pass"
        detail = cases[f"tilt_mul_laws_p{q}"].detail
        assert cases[f"tilt_mul_laws_p{q}"].status == "fail", detail
        witness = rf"; first: (mul_associative|distributive) over Zmod\(p={q}, M={M}\) at x="
        assert re.search(witness, detail), detail
