"""Perfectness reports, computed on residue digits mod p and mod p^2, against
the exact-arithmetic loops in ``oracles``, byte for byte as sorted JSON."""

import json
import random

import pytest

from wittlab.cyclotomic import CyclotomicField, cyclotomic_field
from wittlab.perfect import build_root_sequence, witt_perfect_test

import oracles

ZETA_RINGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
TOWERS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
SAMPLES = 8


def _bytes(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def _tower_pair(p, levels):
    config = {"instance": "tower", "p": p, "levels": levels, "samples": SAMPLES}
    got = witt_perfect_test(config, random.Random(levels)).to_dict()
    seq = build_root_sequence(p, levels + 1)
    want = oracles.tower_perfect_report(seq, levels, random.Random(levels), SAMPLES)
    return _bytes(got), _bytes(want)


@pytest.mark.parametrize("p, k", ZETA_RINGS)
def test_zeta_ring_report_matches_the_exact_loops(p, k):
    got = witt_perfect_test({"instance": "zeta-ring", "p": p, "k": k}).to_dict()
    assert _bytes(got) == _bytes(oracles.zeta_ring_perfect_report(cyclotomic_field(p, k)))


@pytest.mark.parametrize("p, levels", TOWERS)
def test_tower_report_matches_the_exact_loops(p, levels):
    got, want = _tower_pair(p, levels)
    assert got == want
    assert json.loads(got)["verdict"] == f"yes-up-to-level-{levels}"


def test_a_tower_test_read_mod_p_is_caught(monkeypatch):
    """A planted defect: b**p reduced mod p where the test needs mod p^2.
    Then b**p - p*a reads -p*a, which p^2 divides only for a = 0, so the
    report must differ from the oracle's on every tower."""
    exact = CyclotomicField.pow_digits_mod
    monkeypatch.setattr(
        CyclotomicField,
        "pow_digits_mod",
        lambda self, digits, n, q: exact(self, digits, n, self.p),
    )
    for p, levels in TOWERS:
        got, want = _tower_pair(p, levels)
        assert got != want, (p, levels)
