#!/usr/bin/env python3
"""Compares two sets of benchmark run records against BENCHMARK.json.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are run-record files or directories of them (perfbench/run.py
keeps one per run under <build>/records). For each workload and metric it
prints both medians and quartiles and, for end-to-end metrics, a verdict
against the metric's bound:

    REGRESSION   NEW's median is worse than OLD's by more than the bound
    unresolved   either side's quartile spread exceeds the bound, so a
                 change within the bound cannot be told from noise
    ok           neither of the above

End-to-end metrics come from untraced records, per-layer metrics from traced
ones; the end-to-end metrics run.py prints without gating them are listed
too, without a verdict. Exit status 1 when any metric regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import UNGATED  # noqa: E402


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if "workload" in r and "metrics" in r:
            records.append(r)
    return records


def summary(values):
    """(median, q1, q3) with statistics.quantiles' default method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def values(records, workload, traced, name):
    return [r["metrics"][name] for r in records
            if r["workload"] == workload and r["traced"] == traced
            and isinstance(r["metrics"].get(name), (int, float))]


def verdict(old, new, better, bound):
    (mo, q1o, q3o), (mn, q1n, q3n) = old, new
    worse = (mn - mo) / mo if better == "lower" else (mo - mn) / mo
    if worse > bound:
        return "REGRESSION", worse
    if (q3o - q1o) / mo > bound or (q3n - q1n) / mn > bound:
        return "unresolved", worse
    return "ok", worse


def compare(old, new, bench, out=sys.stdout):
    regressions = 0
    workloads = [w["name"] for w in bench["workloads"]]
    ungated = [{"name": name, "unit": unit} for name, unit in UNGATED]
    for workload in workloads:
        for specs, traced in ((bench["end_to_end"] + ungated, 0),
                              (bench["per_layer"], 1)):
            for spec in specs:
                a = values(old, workload, traced, spec["name"])
                b = values(new, workload, traced, spec["name"])
                if not a or not b:
                    continue
                so, sn = summary(a), summary(b)
                line = "%-14s %-30s old %12.5g [%.5g, %.5g] n=%d  new %12.5g [%.5g, %.5g] n=%d" % (
                    workload, spec["name"], so[0], so[1], so[2], len(a),
                    sn[0], sn[1], sn[2], len(b))
                if "bound" in spec and so[0] != 0:
                    v, worse = verdict(so, sn, spec["better"], spec["bound"])
                    regressions += v == "REGRESSION"
                    line += "  %+6.1f%% (bound %.0f%%) %s" % (
                        100 * worse, 100 * spec["bound"], v)
                print(line, file=out)
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sys.exit(1 if compare(load(args.old), load(args.new), bench) else 0)


if __name__ == "__main__":
    main()
