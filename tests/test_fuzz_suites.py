"""Moderate-trial runs of the property suites not tied to an acceptance
criterion letter (the lettered ones run at full strength in
test_acceptance)."""

import pytest

from macdual.fuzz import run_suite


@pytest.mark.parametrize("name,trials", [
    ("consum", 80),
    ("modification", 80),
    ("codim2-cyclic", 80),
])
def test_extra_suites(name, trials):
    rep = run_suite(name, trials, 515)
    assert rep.ok, (rep.failures + rep.errors)[:5]
    assert rep.checked + rep.skipped == trials


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", 1, 0)
