#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload serve --seed 7 --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build, or $CARGO_TARGET_DIR when set,
generates the run's inputs from the seed in a separate process, runs the
measured process, and prints a readable report followed by one JSON result
line: every end_to_end metric of BENCHMARK.json with --trace 0, every
per_layer metric with --trace 1.

A traced run first repeats the untraced run with the same seed, then runs
with spans on; it reports the per-layer numbers, the tracing overhead
(traced minus untraced) of every end-to-end metric, and the share of
publish_p50_ms and fresh_p50_ms that the replayed layer times account for.
Each run record is kept under <build>/records for perfbench/compare.py; the
Chrome trace of a traced run goes to <build>/traces.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Which end-to-end metric each per-layer metric should move (README.md has
# the reasoning and the workloads where each one shows).
FEEDS = {
    "graph.ingest_ms": "setup_s",
    "la.wedge_ms": "count_ms",
    "la.blocked_ms": "paper_ms",
    "la.parallel_ms": "paper_ms",
    "la.wedges": "count_ms, paper_ms",
    "la.nnz_scanned": "count_ms, paper_ms",
    "la.panels": "paper_ms",
    "count.tip_v1_ms": "tips_ms; fresh_p50_ms",
    "count.tip_v2_ms": "tips_ms; fresh_p50_ms",
    "count.tip_ns_per_wedge": "tips_ms",
    "count.vertex_priority_ms": "baseline_ms",
    "count.wedge_reference_ms": "baseline_ms",
    "peel.k_tip_ms": "peel_ms",
    "peel.k_wing_ms": "peel_ms",
    "peel.rounds": "peel_ms",
    "svc.tip_p50_us": "query_p50_us, qps",
    "svc.tip_p99_us": "query_p99_us",
    "svc.global_p50_us": "query_p50_us, qps",
    "svc.global_p99_us": "query_p99_us",
    "svc.edge_p50_us": "query_p50_us, qps",
    "svc.edge_p99_us": "query_p99_us",
    "svc.top_p50_us": "query_p50_us, qps",
    "svc.top_p99_us": "query_p99_us",
    "svc.cache_hit_ratio": "query_p50_us, qps",
    "svc.queue_depth_mean": "query_p99_us",
    "svc.tip_passes_per_epoch": "fresh_p50_ms",
    "count.apply_ms": "publish_p50_ms",
    "count.to_graph_ms": "publish_p50_ms, fresh_p50_ms, setup_s",
    "sparse.validate_ms": "publish_p50_ms",
    "sparse.transpose_ms": "publish_p50_ms",
    "svc.store_publish_ms": "publish_p50_ms",
    "count.top_pairs_ms": "fresh_p50_ms",
    "shard.publish_ms": "publish_p50_ms",
    "shard.cross_pass_ms": "fresh_p50_ms",
    "shard.cross_pairs": "fresh_p50_ms",
    "shard.cross_passes_per_batch": "fresh_p50_ms",
}


# The shard layer's metrics. On a one-shard workload that layer does no work:
# the run record holds no value for them, the report prints n/a, and the
# result line carries 0, because it must hold a number for every per_layer
# metric of BENCHMARK.json.
SHARD_ONLY = ("shard.publish_ms", "shard.cross_pass_ms", "shard.cross_pairs",
              "shard.cross_passes_per_batch")


def applies(name, record):
    return name not in SHARD_ONLY or record["health"]["shards"] > 1


# End-to-end metrics printed with every untraced run but not gated by
# BENCHMARK.json: their spread over ten runs on a noisy host came within a
# tenth of the largest allowed bound (README.md, "Gated metrics").
UNGATED = (("count_ms", "ms"), ("tips_ms", "ms"), ("peel_ms", "ms"),
           ("qps", "1/s"), ("query_p50_us", "us"), ("query_p99_us", "us"))


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src" % ROOT, 2)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def run_once(bdir, args, inputs, traced, trace_out=None):
    cmd = [os.path.join(bdir, "perfbench_run"), "--inputs", inputs,
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", "1" if traced else "0",
           "--plant-wrong", "1" if args.plant_wrong else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measured process timed out")
    if p.returncode != 0:
        fail("measured process exited with %d" % p.returncode)
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("measured process printed no record")
    return json.loads(lines[-1])


def keep_record(bdir, record):
    rdir = os.path.join(bdir, "records")
    os.makedirs(rdir, exist_ok=True)
    name = "%s-s%d-t%d-%d.json" % (record["workload"], record["seed"],
                                   record["traced"], time.time_ns())
    with open(os.path.join(rdir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def layer_shares(untraced, traced):
    """Share of publish_p50_ms and fresh_p50_ms covered by replayed layers."""
    m, e2e = traced["metrics"], untraced["metrics"]
    if traced["health"].get("shards", 1) > 1:
        publish = m["shard.publish_ms"]
        fresh = publish + m["shard.cross_pass_ms"]
    else:
        publish = m["count.apply_ms"] + m["count.to_graph_ms"]
        fresh = publish
    fresh += (m["replay.count.tip_v1_ms"] + m["replay.count.tip_v2_ms"] +
              m["count.top_pairs_ms"])
    return {"publish_layers_ms": publish,
            "publish_share": publish / e2e["publish_p50_ms"],
            "fresh_layers_ms": fresh,
            "fresh_share": fresh / e2e["fresh_p50_ms"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong", type=int, choices=(0, 1), default=0,
                    help="corrupt one checked answer (tests that it counts)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(bench_path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (bench_path, e), 2)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    bdir = build_dir()
    build(bdir)
    idir = os.path.join(bdir, "inputs")
    os.makedirs(idir, exist_ok=True)
    inputs = os.path.join(idir, "%s-s%d-%d.bin" % (args.workload, args.seed,
                                                   args.seconds))
    gen = subprocess.run([os.path.join(bdir, "perfbench_gen"),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--out", inputs])
    if gen.returncode != 0:
        fail("input generation failed")

    record = run_once(bdir, args, inputs, traced=False)
    keep_record(bdir, record)
    listed = bench["end_to_end"]
    extra = {}
    if args.trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        trace_out = os.path.join(tdir, "%s-s%d.json" % (args.workload, args.seed))
        untraced, record = record, run_once(bdir, args, inputs, True, trace_out)
        names = [m["name"] for m in bench["end_to_end"]] + [n for n, _ in UNGATED]
        record["overhead"] = {
            n: record["metrics"][n] - untraced["metrics"][n] for n in names}
        extra = layer_shares(untraced, record)
        record["layer_shares"] = extra
        record["trace_file"] = os.path.relpath(trace_out, ROOT)
        keep_record(bdir, record)
        listed = bench["per_layer"]

    m, h = record["metrics"], record["health"]
    attempted, failed = record["attempted"], record["failed"]
    print("workload %s  seed %d  seconds %d  traced %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for spec in listed:
        name = spec["name"]
        feeds = ("   -> " + FEEDS.get(name, "")) if args.trace else ""
        value = "%16.6g" % (m.get(name) if number(m.get(name)) else float("nan"))
        if not applies(name, record):
            value = "%16s" % "n/a"
            feeds += " on serve_sharded (1 shard here: no shard layer)"
        print("  %-30s %s %s%s" % (name, value, spec["unit"], feeds))
    if not args.trace:
        for name, unit in UNGATED:
            value = m.get(name) if number(m.get(name)) else float("nan")
            print("  %-30s %16.6g %s (not gated)" % (name, value, unit))
    print("  %-30s %16.6g fraction (not gated)" % ("failed_ratio",
                                                   failed / max(attempted, 1)))
    if args.trace:
        for name, delta in record["overhead"].items():
            print("  overhead %-21s %+16.6g" % (name, delta))
        for name, v in extra.items():
            print("  %-30s %16.6g" % (name, v))
    for name in sorted(h):
        print("  health %-23s %16.6g" % (name, h[name] if number(h[name])
                                         else float("nan")))
    for why in record["failures"]:
        print("  failure: " + why)

    missing = [s["name"] for s in listed
               if applies(s["name"], record) and not number(m.get(s["name"]))]
    if missing:
        fail("no value for %s (too few samples for the percentile rule?)"
             % ", ".join(missing))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": m[s["name"]] if applies(s["name"], record)
                                else 0, "unit": s["unit"]}
                    for s in listed},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
