#!/usr/bin/env python3
"""Tests for run.py --compare: results written by run.py read back
through it, and each verdict on constructed runs. `dune runtest` runs
them.

  python3 perfbench/test_compare.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
}

# The shape of perf.exe's last stdout line.
LINE = ('{"correct": true, "attempted": 780625, "failed": 0, "metrics": '
        '{"wall_s": {"value": 0.50913259200000005, "unit": "s"}, '
        '"ops_per_s": {"value": 1533244.9979945498, "unit": "1/s"}}}')


def results(walls, rates, failed=0):
    """Runs with these walls and rates; the first [failed] of them fail
    one op each and are incorrect."""
    runs = []
    for i, (wall, rate) in enumerate(zip(walls, rates)):
        line = json.loads(LINE)
        line["metrics"]["wall_s"]["value"] = wall
        line["metrics"]["ops_per_s"]["value"] = rate
        if i < failed:
            line["correct"] = False
            line["failed"] = 1
        runs.append(line)
    return {"schema": 1, "seconds": 12, "trace": 0,
            "seeds": list(range(len(runs))), "workloads": {"paper-replay": runs}}


class CompareTest(unittest.TestCase):
    def verdicts(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            pa, pb = os.path.join(d, "a.json"), os.path.join(d, "b.json")
            run.save_results(a, pa)
            run.save_results(b, pb)
            return {name: v for _, name, v in run.compare(pa, pb, BENCH)}

    def base(self):
        walls = [0.50, 0.51, 0.505, 0.495, 0.502, 0.498, 0.507, 0.501, 0.499, 0.503]
        return walls, [780625 / w for w in walls]

    def test_round_trip_is_unchanged(self):
        walls, rates = self.base()
        a = results(walls, rates)
        self.assertEqual(self.verdicts(a, a),
                         {"failed_frac": "unchanged", "wall_s": "unchanged",
                          "ops_per_s": "unchanged"})

    def test_regression_beyond_bound_is_worse(self):
        walls, rates = self.base()
        slow = [w * 1.2 for w in walls]
        v = self.verdicts(results(walls, rates),
                          results(slow, [780625 / w for w in slow]))
        self.assertEqual(v, {"failed_frac": "unchanged", "wall_s": "worse",
                             "ops_per_s": "worse"})

    def test_consistent_gain_beyond_spread_is_better(self):
        walls, rates = self.base()
        fast = [w * 0.95 for w in walls]
        v = self.verdicts(results(walls, rates),
                          results(fast, [780625 / w for w in fast]))
        self.assertEqual(v, {"failed_frac": "unchanged", "wall_s": "better",
                             "ops_per_s": "better"})

    def test_gain_within_spread_is_unchanged(self):
        walls, rates = self.base()
        fast = [w * 0.995 for w in walls]
        v = self.verdicts(results(walls, rates),
                          results(fast, [780625 / w for w in fast]))
        self.assertEqual(v["wall_s"], "unchanged")

    def test_noisy_parent_is_unresolved(self):
        walls = [0.4, 0.6, 0.45, 0.55, 0.5, 0.42, 0.58, 0.48, 0.52, 0.5]
        rates = [780625 / w for w in walls]
        slow = [w * 1.05 for w in walls]
        v = self.verdicts(results(walls, rates),
                          results(slow, [780625 / w for w in slow]))
        self.assertEqual(v["wall_s"], "unresolved")

    def test_gain_with_more_failed_ops_is_worse(self):
        walls, rates = self.base()
        fast = [w * 0.5 for w in walls]
        v = self.verdicts(results(walls, rates),
                          results(fast, [780625 / w for w in fast], failed=1))
        self.assertEqual(v, {"failed_frac": "worse", "wall_s": "worse",
                             "ops_per_s": "worse"})

    def test_fewer_failed_ops_is_better(self):
        walls, rates = self.base()
        v = self.verdicts(results(walls, rates, failed=2),
                          results(walls, rates, failed=1))
        self.assertEqual(v["failed_frac"], "better")
        self.assertEqual(v["wall_s"], "unchanged")

    def test_too_few_runs_is_unresolved(self):
        a = results([0.5, 0.5], [1.0, 1.0])
        self.assertEqual(self.verdicts(a, a)["wall_s"], "unresolved")


if __name__ == "__main__":
    unittest.main()
