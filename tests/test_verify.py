import io

import pytest

from htour import verify
from htour.classify import FourType

PINNED_XFAILS = {"c3a-allminus-n6", "c3a-allminus-n7", "c3c-part3-n6", "c4-bn-minimal-n6"}


def _fails():
    raise AssertionError("claim does not hold")


@pytest.mark.parametrize(
    "items, counts, ok",
    [
        (
            [("p", lambda: "fine", False), ("f", _fails, False),
             ("x", _fails, True), ("u", lambda: "fine", True)],
            {"pass": 1, "fail": 1, "xfail": 1, "upass": 1},
            False,
        ),
        (
            [("p", lambda: "fine", False), ("x", _fails, True)],
            {"pass": 1, "fail": 0, "xfail": 1, "upass": 0},
            True,
        ),
    ],
    ids=["mixed", "expected-only"],
)
def test_driver_summary(monkeypatch, items, counts, ok):
    monkeypatch.setattr(verify, "build_items", lambda level, jobs=1: items)
    buf = io.StringIO()
    summary = verify.run_verify("quick", out=buf)
    assert summary["counts"] == counts
    assert summary["ok"] is ok
    lines = buf.getvalue().strip().splitlines()
    # one line per item plus the summary line
    assert len(lines) == len(items) + 1 and lines[-1].startswith("summary:")
    assert [item["status"] for item in summary["items"]] == [
        {"p": "pass", "f": "fail", "x": "xfail", "u": "upass"}[name]
        for name, _, _ in items
    ]


def test_levels_share_items_and_pin_four_xfails():
    quick, full = verify.build_items("quick"), verify.build_items("full")
    assert {name for name, _, _ in quick} <= {name for name, _, _ in full}
    for items in (quick, full):
        assert {name for name, _, xfail in items if xfail} == PINNED_XFAILS


def test_driver_detects_a_broken_classifier(monkeypatch):
    # mutation sanity: wreck the census and the census item must fail
    monkeypatch.setattr(
        verify, "census4", lambda: {t: 0 for t in FourType}
    )
    with pytest.raises(AssertionError):
        verify.item_census()
