"""The no-regression verdict of ``tools/bench_pairs.py``, on made-up runs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

from bench_pairs import main, regression_verdict  # noqa: E402

TIGHT = [1.0, 0.99, 1.01, 1.0, 1.02, 0.98]   # interquartile range 1.5 %
WIDE = [1.0, 0.6, 1.4, 0.7, 1.3, 1.0]        # interquartile range 45 %


@pytest.mark.parametrize("parent,change,sign,want", [
    # lower is better: median 25 % worse against a 20 % bound
    (TIGHT, [1.25] * 6, 1, "regress"),
    (TIGHT, [1.15] * 6, 1, "ok"),
    (WIDE, [0.9, 1.1, 1.0], 1, "unresolved"),
    # every change run better than every parent run resolves a wide spread
    (WIDE, [0.5, 0.55, 0.59], 1, "ok"),
    (WIDE, [0.5, 0.55, 0.6], 1, "unresolved"),
    # higher is better
    ([10 * x for x in TIGHT], [7.5] * 6, -1, "regress"),
    ([10 * x for x in WIDE], [14.5, 15.0], -1, "ok"),
    ([10 * x for x in WIDE], [10.0, 11.0], -1, "unresolved"),
], ids=["regress", "within", "unresolved", "all_better", "one_tie",
        "higher_regress", "higher_all_better", "higher_unresolved"])
def test_regression_verdict(parent, change, sign, want):
    assert regression_verdict(parent, change, 0.2, sign) == want


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_no_pairs_is_refused_before_any_run(pairs, tmp_path):
    # an empty table would read as a no-regression verdict
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path), str(tmp_path), "--workload", "all",
              "--pairs", pairs, "--seed0", "1"])
    assert exc.value.code == 2
