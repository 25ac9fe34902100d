"""HEAD's end-to-end outputs against the checked-in fingerprint.

`tools/fingerprint.py` records the catalog solves, the bounds, criterion 8's
dependence pairs, five inequality campaigns and 200 random-instance oracles
and bound curves. Bits may differ across CPUs and libm builds, so this test
checks closeness: every record's recorded values within 1e-12 of the
checked-in ones, relative to the record's largest magnitude, or absolute when
that magnitude is below 1. The floor is for the residuals and residual
budgets, defects between 1e-16 and 1e-4 whose last bits are rounding:
rounding sin, cos and exp 1 ulp apart on a tenth of their inputs moves them by
up to 5e-15, while every other record stays within a relative 1e-12.
`--diff` reports the bits.
"""

import importlib.util
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
spec = importlib.util.spec_from_file_location("fingerprint", TOOLS / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)

CHECKED_IN = fingerprint.load(str(TOOLS / "fingerprint.json"))


@pytest.fixture(scope="module")
def head():
    return fingerprint.fingerprint()


def test_head_has_the_checked_in_entries(head):
    assert list(head) == list(CHECKED_IN)
    assert [len(v) for v in head.values()] == [len(v) for v in CHECKED_IN.values()]


@pytest.mark.parametrize("name", list(CHECKED_IN))
def test_entry_matches_the_checked_in_fingerprint(head, name):
    for i, (old, new) in enumerate(zip(CHECKED_IN[name], head[name])):
        worst, rel, _ = fingerprint.change(old, new)
        scale = max((abs(float.fromhex(v)) for v in old["values"]), default=0.0)
        assert worst <= 1e-12 * max(scale, 1.0), \
            f"{name} record {i}: max abs {worst:.3g}, max rel {rel:.3g}"


def test_change_reads_ulps_and_relative_change():
    a = fingerprint.record([1.0, 2.0, -0.0])
    b = fingerprint.record([1.0, 2.0 + 2 ** -51, 0.0])
    worst, rel, ulps = fingerprint.change(a, b)
    assert (worst, rel, ulps) == (2 ** -51, 2 ** -52, 1)
    assert fingerprint.change(a, a) == (0.0, 0.0, 0)
    assert fingerprint.change(a, fingerprint.record([1.0])) == (float("inf"),) * 3
