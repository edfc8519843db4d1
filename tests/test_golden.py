"""The golden trajectories of ``golden.py`` reproduce ``golden.json`` to
1e-12 relative.  A nudge of every parameter by one ulp moves no recorded
value by more than 1e-15 relative, so the tolerance leaves a wide margin for
a change that only reorders floating-point sums, and none for one that
changes what is computed."""

import json
import math

import pytest

from golden import CASES, GOLDEN, run_case

REL = 1e-12
WANT = json.loads(GOLDEN.read_text(encoding="utf-8"))


def close(got, want):
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


def test_every_case_is_pinned():
    assert set(WANT) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    got, want = run_case(name), WANT[name]
    assert got["clip_events"] == want["clip_events"]
    for key in ("nll", "valid_ppl", "eval_log2"):
        assert len(got[key]) == len(want[key]), key
        for i, (g, w) in enumerate(zip(got[key], want[key])):
            assert close(g, w), f"{key}[{i}]: {g!r} != {w!r}"
    assert close(got["eval_ppl"], want["eval_ppl"])
    assert got["tensors"].keys() == want["tensors"].keys()
    for tensor, w in want["tensors"].items():
        g = got["tensors"][tensor]
        assert close(g["abs"], w["abs"]) and close(g["sq"], w["sq"]), tensor
        # a sum can cancel to near zero, so its error is bounded by the
        # sum of magnitudes, not by itself
        assert abs(g["sum"] - w["sum"]) <= REL * w["abs"], tensor
