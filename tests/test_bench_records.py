"""Committed benchmark records, `BENCH_<n>.json` at the repository root.

Each record holds a provenance object and the final JSON line of every
perfbench run behind a performance claim, tagged with its side ("before"
for the parent commit, "after" for the change).  A record that lost its
provenance, holds only one side, or keeps a run that failed its own checks
backs no claim.  A record whose provenance names a `claim` (a `metric`
and a `workload`) must show that metric's median lower after than before
on that workload.
"""

import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_records_are_complete():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        provenance = record["provenance"]
        for key in ("git_sha", "seed", "params"):
            assert provenance.get(key), (path, key)
        runs = record["runs"]
        assert {"before", "after"} <= {run["side"] for run in runs}, path
        for run in runs:
            assert run["side"] in ("before", "after"), (path, run)
            assert run["correct"] is True and run["failed"] == 0, (path, run)
            assert run["metrics"], (path, run)
        claim = provenance.get("claim")
        if claim is not None:
            medians = {}
            for side in ("before", "after"):
                values = [run["metrics"][claim["metric"]]["value"] for run in runs
                          if run["side"] == side and run["workload"] == claim["workload"]
                          and claim["metric"] in run["metrics"]]
                assert values, (path, claim, side)
                medians[side] = statistics.median(values)
            assert medians["after"] < medians["before"], (path, claim, medians)
