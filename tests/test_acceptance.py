"""Acceptance suite: one test per item of `htour verify --level full`.

The criteria are defined once, in `htour.verify.build_items`; this module
only runs them.  The items flagged as expected failures (the boundary
behavior of the chain construction at n = 6 and 7, documented in the README
and in `htour.verify`) are strict xfails, so any change in that behavior
turns the suite red.  Each item must also finish within the wall-clock
budget of its criterion.
"""

import time

import pytest

from htour.verify import build_items

XFAIL_REASON = "boundary behavior of the chain construction at n = 6 and 7"

# seconds per item, keyed by criterion: the first two characters of its name
BUDGET = {"c1": 1, "c2": 1, "c3": 30, "c4": 60, "c5": 60, "c6": 120, "c7": 60}


@pytest.mark.parametrize(
    "name, item",
    [
        pytest.param(
            name, item, id=name,
            marks=[pytest.mark.xfail(strict=True, reason=XFAIL_REASON)] if xfail else [],
        )
        for name, item, xfail in build_items("full")
    ],
)
def test_item(name, item):
    started = time.perf_counter()
    detail = item()
    elapsed = time.perf_counter() - started
    budget = BUDGET[name[:2]]
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s, budget {budget}s): {detail}")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"
