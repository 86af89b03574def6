"""Ghost-constant invariant profiles over Q(i)."""

from wittlab.artin import invariant_classify
from wittlab.cyclotomic import GaussianField


def test_classification_verdict_carries_passed():
    f3, f5 = GaussianField(3), GaussianField(5)
    for field, f in ((f3, f3.from_int(2)), (f3, f3.imag_unit()), (f5, f5.from_pair(0, "1/5"))):
        rep = invariant_classify(field, f, 3)
        assert rep["passed"] is True


def test_a_depth_too_short_to_see_growth_does_not_pass():
    # i is not rational, so it is predicted unbounded at the inert prime 3,
    # but its depth-0 profile is |i| = 1
    field = GaussianField(3)
    rep = invariant_classify(field, field.imag_unit(), 0)
    assert rep["bounded"] and not rep["predicted_bounded"]
    assert rep["passed"] is False
