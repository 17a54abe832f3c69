#!/usr/bin/env python3
"""Validates BENCH_<name>.json files emitted by bench::BenchReport.

Usage:
  check_bench_json.py BENCH_a.json [BENCH_b.json ...]

Checks:
  - all schema keys present: schema_version, bench, config, series,
    scalars, latency_ns, counters, gauges, io
  - every latency histogram has monotone percentiles
    (min <= p50 <= p95 <= p99 <= max) and count consistent with them
  - counters are non-negative integers
  - no metric was registered twice (bg3.registry.collisions == 0)
  - the io breakdown carries all expected fields
  - per-bench series, scalar floors, ceilings, orderings and ratios
    (BENCH_EXPECTATIONS)
"""
import argparse
import json
import sys

REQUIRED_KEYS = [
    "schema_version", "bench", "config", "series", "scalars",
    "latency_ns", "counters", "gauges", "io",
]
IO_FIELDS = [
    "append_ops", "append_bytes", "read_ops", "read_bytes",
    "gc_moved_bytes", "extents_freed", "manifest_updates",
    "injected_faults", "retries", "retry_exhausted",
]

# Per-bench structural expectations, keyed by the JSON's "bench" name.
# `series`: names that must each appear in at least one row;
# `scalars`: (name, min_value) pairs that must be present and >= min;
# `scalar_max`: (name, max_value) pairs that must be present and <= max;
# `scalar_order`: (smaller, larger) pairs — both must be present and
# smaller <= larger (pins orderings like "workload-aware GC costs no more
# than FIFO" without hard-coding machine-dependent absolute dollars);
# `scalar_ratio`: (numerator, denominator, min_ratio) triples — both must
# be present and numerator / denominator >= min_ratio.
BENCH_EXPECTATIONS = {
    "fig9_read_amp": {
        # Zero-cache point reads over a seeded Zipf workload, so both counts
        # are deterministic. Algorithm 1 keeps one delta per page: a read
        # costs at most the base plus that delta (1.93 measured). The
        # traditional chain reads up to 10 images (4.41 measured).
        "scalar_max": [("storage_reads_per_query_read_optimized", 2.0)],
        "scalar_ratio": [("storage_reads_per_query_traditional",
                          "storage_reads_per_query_read_optimized", 1.5)],
    },
    "read_scaling": {
        "series": [
            "read_optimized_hit", "read_optimized_miss",
            "traditional_hit", "traditional_miss",
            "read_optimized_scan_hit",
        ],
        # Cache-hit point reads and limit-32 scans must take shared leaf
        # latches: a latch-count ratio, so it does not vary between runs.
        # It is 1.0 today and drops to 0 if hit reads go back to exclusive
        # latches.
        "scalars": [("shared_latch_frac_read_optimized_hit", 0.99),
                    ("shared_latch_frac_read_optimized_scan_hit", 0.99)],
        # Memory per key of the loaded 20K-key tree (seeded keys, so
        # deterministic). Leaves hold their storage payload plus a 4-byte
        # offset per entry: 31.96 B. Owned entry vectors took 101.23 B.
        "scalar_max": [("leaf_bytes_per_entry", 45.0)],
    },
    "overload": {
        "series": ["protected", "unprotected"],
        # With protection on, goodput at 4x offered load must retain
        # >= 70% of the goodput at sustainable (1x) load (DESIGN.md §5.5
        # acceptance bar); the unprotected series shows the collapse.
        "scalars": [("goodput_retention_4x", 0.7)],
    },
    "restart": {
        "series": ["checkpointed", "full_replay"],
        # Instant-restart floors (DESIGN.md §5.7) are deterministic byte
        # ratios, immune to machine speed: the checkpointed restart must
        # skip >= 50% of the 16x WAL, and the full-replay baseline must
        # read >= 4x more bytes than the checkpointed path. Wall-clock
        # time_to_first_read_us / time_to_full_qps_us ride along in the
        # series rows for inspection.
        "scalars": [("replay_savings_16x", 0.5),
                    ("full_vs_checkpoint_replay_ratio_16x", 4.0)],
        # RwNode::Recover reads the WAL suffix and the pages it touched,
        # and installs every other page demand-paged: its storage reads at
        # 16x base volume stay within 1.5x of those at 1x (same suffix).
        "scalar_max": [("recover_reads_growth_16x_over_1x", 1.5)],
    },
    "failover": {
        "series": ["checkpointed", "full_replay"],
        # Failover floors (DESIGN.md §5.10), deterministic byte ratios:
        # promoting a cold follower with a checkpoint manifest must replay
        # <= 50% of the 16x WAL backlog (the catch-up is bounded by the
        # checkpoint suffix, not total WAL length), and the no-checkpoint
        # promotion must read >= 4x more bytes. Wall-clock
        # unavailability_us rides along in the series rows for inspection.
        "scalars": [("promotion_replay_savings_16x", 0.5),
                    ("full_vs_checkpoint_promotion_replay_ratio_16x", 4.0)],
    },
    "write_latency": {
        "series": ["sync", "pipelined"],
        # Pipelined-WAL acceptance bar (DESIGN.md §5.9): at the default
        # group size the deepest pipeline's enqueue-to-ack p50 must be at
        # least 4x below the sync baseline's. Both runs pay identical
        # simulated I/O in real wall time, so the ratio isolates the
        # head-of-line blocking the pipeline removes and is immune to
        # machine speed. The baseline queues on a FIFO lock, so its p50 is
        # about 16 round trips whatever the lock hand-off; the p99 ratio
        # (reported, not gated) swings with the pipelined side's stalls.
        "scalars": [("p50_speedup_default_group", 4.0)],
    },
    "table2_gc": {
        "series": ["wl1_follow", "wl2_risk_ttl", "long_ttl"],
        # Table 2 runs on a manual clock with seeded RNGs, so both floors
        # are deterministic. WL2's 0.5 s TTL falls inside the 1 s bypass
        # window: every TTL'd extent expires in place and nothing moves.
        # On the one-hour TTL the windowed policy keeps reclaiming, so it
        # ends with no more resident bytes than the unbounded bypass.
        "scalar_max": [("wl2_ttl_bypass_moved_mb_per_s", 0.0)],
        "scalar_order": [("long_ttl_resident_mb_1s_window",
                          "long_ttl_resident_mb_unbounded_window")],
    },
    "storage_cost": {
        "series": ["bytes", "gc_cost"],
        # TTL workload under per-GB-written pricing: FIFO relocates
        # soon-to-expire bytes that workload-aware GC lets die in place, so
        # the workload-aware bill must come out <= the FIFO bill.
        "scalar_order": [("estimated_monthly_cost_usd_workload_aware",
                          "estimated_monthly_cost_usd_fifo")],
        # Owner-table bytes per owner of the default GraphDB (seeded
        # workload, so deterministic): a 24-byte record plus its index
        # share and the shards' and owner locks' fixed costs. A heap node
        # and mutex per owner took about 120.
        "scalar_max": [("owner_table_bytes_per_owner", 48.0)],
    },
}

errors = []


def fail(path, msg):
    errors.append(f"{path}: {msg}")


def check_bench(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"cannot parse: {e}")
        return

    for key in REQUIRED_KEYS:
        if key not in doc:
            fail(path, f"missing required key '{key}'")
    if errors:
        return

    if doc["schema_version"] != 1:
        fail(path, f"unexpected schema_version {doc['schema_version']}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        fail(path, "'bench' must be a non-empty string")
    if not isinstance(doc["series"], list):
        fail(path, "'series' must be an array")
    else:
        for i, row in enumerate(doc["series"]):
            if not isinstance(row, dict) or "series" not in row or "x" not in row:
                fail(path, f"series[{i}] must be an object with series/x keys")

    for name, h in doc["latency_ns"].items():
        missing = [k for k in ("count", "mean", "min", "p50", "p95", "p99", "max")
                   if k not in h]
        if missing:
            fail(path, f"latency_ns[{name}] missing {missing}")
            continue
        if h["count"] < 0:
            fail(path, f"latency_ns[{name}] negative count")
        if h["count"] > 0:
            if not (h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"]):
                fail(path, f"latency_ns[{name}] percentiles not monotone: {h}")
            if h["mean"] < h["min"] or h["mean"] > h["max"]:
                fail(path, f"latency_ns[{name}] mean outside [min,max]: {h}")

    for name, v in doc["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(path, f"counter {name} not a non-negative integer: {v!r}")

    collisions = doc["counters"].get("bg3.registry.collisions")
    if collisions is None:
        fail(path, "counters missing bg3.registry.collisions")
    elif collisions != 0:
        fail(path, f"{collisions} metric name collision(s) — a metric was "
                   "registered twice")

    for field in IO_FIELDS:
        if field not in doc["io"]:
            fail(path, f"io breakdown missing '{field}'")

    expect = BENCH_EXPECTATIONS.get(doc["bench"])
    if expect:
        present = {row.get("series") for row in doc["series"]
                   if isinstance(row, dict)}
        for name in expect.get("series", []):
            if name not in present:
                fail(path, f"expected series '{name}' missing")
        scalars = doc.get("scalars", {})
        for name, minimum in expect.get("scalars", []):
            if name not in scalars:
                fail(path, f"expected scalar '{name}' missing")
            elif not isinstance(scalars[name], (int, float)) or \
                    scalars[name] < minimum:
                fail(path, f"scalar {name}={scalars[name]!r} below "
                           f"required minimum {minimum}")
        for name, maximum in expect.get("scalar_max", []):
            if name not in scalars:
                fail(path, f"expected scalar '{name}' missing")
            elif not isinstance(scalars[name], (int, float)) or \
                    scalars[name] > maximum:
                fail(path, f"scalar {name}={scalars[name]!r} above "
                           f"allowed maximum {maximum}")
        for smaller, larger in expect.get("scalar_order", []):
            missing = [n for n in (smaller, larger) if n not in scalars]
            if missing:
                fail(path, f"expected scalar(s) {missing} missing")
            elif scalars[smaller] > scalars[larger]:
                fail(path, f"scalar order violated: {smaller}="
                           f"{scalars[smaller]!r} > {larger}="
                           f"{scalars[larger]!r}")

        for num, den, minimum in expect.get("scalar_ratio", []):
            missing = [n for n in (num, den) if n not in scalars]
            if missing:
                fail(path, f"expected scalar(s) {missing} missing")
            elif not scalars[den] or scalars[num] / scalars[den] < minimum:
                fail(path, f"scalar ratio {num}/{den}={scalars[num]!r}/"
                           f"{scalars[den]!r} below required minimum "
                           f"{minimum}")

    if not doc["latency_ns"]:
        # Per-layer latency is the point of the schema; an empty map means
        # timing was disabled or the bench bypassed the instrumented layers.
        print(f"{path}: note: latency_ns is empty "
              "(no instrumented layer was exercised)")

    print(f"{path}: OK ({len(doc['latency_ns'])} histograms, "
          f"{len(doc['series'])} series rows, "
          f"io.append_ops={doc['io']['append_ops']})")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("files", nargs="+")
    args = p.parse_args()

    for path in args.files:
        check_bench(path)

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
