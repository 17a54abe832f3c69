#!/usr/bin/env python3
"""End-to-end validation of the debug/observability HTTP endpoint.

Launches a binary (default: build/examples/bg3_stats) with the debug server
enabled, parses the "debug server listening on 127.0.0.1:PORT" line, then
scrapes and validates every route while the process keeps serving:

  /healthz   JSON: status "ok"; when a Bg3Cluster is registered as a
             health source, every partition reports node roles
             (leader/follower/zombie), leader terms >= 1 and a committed
             WAL cursor (DESIGN.md §5.10)
  /metrics   Prometheus text exposition: every sample line parses, known
             bg3 counters are present and non-negative
  /tracez    chrome-tracing JSON: traceEvents parse; when a traced request
             ran, its span tree covers >= --min-layers known engine layers
             (span categories outside KNOWN_LAYERS do not count); no span is
             named like a histogram (spans are named by operation,
             histograms by unit, so a `_ns` span is a doubled instrument)
  /costz     cost JSON: pricing block, cloud bill arithmetic consistent
             with the advertised pricing, per-layer attribution present

Usage:
  check_debug_endpoints.py [--binary build/examples/bg3_stats]
                           [--min-layers 4] [--serve-ms 20000]
"""
import argparse
import json
import os
import re
import subprocess
import sys
import urllib.request

errors = []


def fail(msg):
    errors.append(msg)


def fetch(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8")


VALID_ROLES = {"leader", "follower", "zombie"}

# Span categories (the second dot-component of a span name) that name an
# engine layer; a `test` or `bg3` category does not count toward coverage.
KNOWN_LAYERS = {
    "api", "bytegraph", "query", "forest", "bwtree", "wal",
    "cloud", "gc", "replication", "trace",
}


def check_healthz(port):
    status, body = fetch(port, "/healthz")
    if status != 200:
        fail(f"/healthz: status={status} body={body!r}")
        return
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        fail(f"/healthz: not JSON: {e} body={body!r}")
        return
    if doc.get("status") != "ok":
        fail(f"/healthz: status field {doc.get('status')!r} != 'ok'")
        return
    # Failover health (DESIGN.md §5.10): every registered cluster source
    # must report well-formed per-partition role/term/cursor entries.
    clusters = 0
    for name, source in doc.get("sources", {}).items():
        parts = source.get("partitions")
        if parts is None:
            continue
        clusters += 1
        if not parts:
            fail(f"/healthz: source {name} has no partitions")
            return
        for part in parts:
            nodes = part.get("nodes", [])
            roles = [n.get("role") for n in nodes]
            bad = [r for r in roles if r not in VALID_ROLES]
            if bad:
                fail(f"/healthz: source {name} partition "
                     f"{part.get('partition')} has invalid roles {bad}")
                return
            if "leader" not in roles or "follower" not in roles:
                fail(f"/healthz: source {name} partition "
                     f"{part.get('partition')} lacks a leader+follower "
                     f"(roles: {roles})")
                return
            for n in nodes:
                if n["role"] == "leader":
                    if not isinstance(n.get("term"), int) or n["term"] < 1:
                        fail(f"/healthz: source {name} leader term "
                             f"{n.get('term')!r} invalid")
                        return
                    committed = n.get("committed", {})
                    for key in ("term", "seq", "extent", "offset"):
                        if key not in committed:
                            fail(f"/healthz: source {name} leader committed "
                                 f"cursor missing '{key}'")
                            return
                elif n["role"] == "follower":
                    if "wal_offset" not in n:
                        fail(f"/healthz: source {name} follower missing "
                             "wal_offset")
                        return
    if clusters == 0:
        fail("/healthz: no cluster health source registered "
             "(the demo builds a Bg3Cluster and fails one leader over)")
        return
    print(f"/healthz: OK ({clusters} cluster source(s))")


PROM_LINE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+naif]+)$")


def check_metrics(port):
    status, body = fetch(port, "/metrics")
    if status != 200:
        fail(f"/metrics: status={status}")
        return
    samples = {}
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        m = PROM_LINE.match(line)
        if not m:
            fail(f"/metrics: unparseable exposition line {line!r}")
            return
        if not m.group(2):  # plain (unlabeled) sample
            samples[m.group(1)] = float(m.group(3))
    for required in ("bg3_cloud_store0_append_ops",
                     "bg3_cloud_store0_read_ops",
                     "bg3_registry_collisions"):
        if required not in samples:
            fail(f"/metrics: missing {required}")
    if samples.get("bg3_registry_collisions", 0) != 0:
        fail("/metrics: metric name collisions registered")
    for name, v in samples.items():
        if name.startswith("bg3_") and v < 0:
            fail(f"/metrics: negative sample {name}={v}")
    print(f"/metrics: OK ({len(samples)} unlabeled samples)")


def check_tracez(port, min_layers):
    status, body = fetch(port, "/tracez")
    if status != 200:
        fail(f"/tracez: status={status}")
        return
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        fail(f"/tracez: not JSON: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("/tracez: no traceEvents array")
        return
    traces = doc.get("traces", [])
    if not traces:
        fail("/tracez: no retained traces (the demo runs a traced request)")
        return
    unit_named = sorted({e.get("name") for e in events
                         if isinstance(e, dict)
                         and str(e.get("name", "")).endswith("_ns")})
    if unit_named:
        fail(f"/tracez: spans named like histograms: {unit_named}")
        return
    layers = {e.get("cat") for e in events
              if isinstance(e, dict)} & KNOWN_LAYERS
    if len(layers) < min_layers:
        fail(f"/tracez: spans cover only {sorted(layers)}, "
             f"need >= {min_layers} layers")
        return
    # Causality: every parent id referenced resolves within the document.
    span_ids = {e["args"]["span"] for e in events
                if isinstance(e.get("args"), dict) and "span" in e["args"]}
    for e in events:
        args = e.get("args")
        if not isinstance(args, dict):
            continue
        parent = args.get("parent", 0)
        if parent and parent not in span_ids:
            fail(f"/tracez: dangling parent span {parent}")
            return
    print(f"/tracez: OK ({len(traces)} retained traces, "
          f"layers: {sorted(layers)})")


def check_costz(port):
    status, body = fetch(port, "/costz")
    if status != 200:
        fail(f"/costz: status={status}")
        return
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        fail(f"/costz: not JSON: {e}")
        return
    for key in ("pricing", "cloud", "by_class", "by_layer"):
        if key not in doc:
            fail(f"/costz: missing '{key}'")
            return
    pricing, cloud = doc["pricing"], doc["cloud"]
    # The bill must be consistent with the advertised pricing.
    gib = 1024.0 ** 3
    expect_read = (cloud["read_ops"] * pricing["usd_per_read_op"] +
                   cloud["read_bytes"] / gib * pricing["usd_per_gb_read"])
    if abs(cloud["read_cost_usd"] - expect_read) > 1e-9 + 1e-6 * expect_read:
        fail(f"/costz: read_cost_usd {cloud['read_cost_usd']} != "
             f"recomputed {expect_read}")
    if cloud["append_ops"] <= 0:
        fail("/costz: no appends billed after a write workload")
    if not doc["by_layer"]:
        fail("/costz: by_layer attribution empty "
             "(traced request did not fold)")
    if not doc["by_class"]:
        fail("/costz: by_class attribution empty")
    print(f"/costz: OK (total ${cloud['total_cost_usd']:.6f}, "
          f"layers: {sorted(doc['by_layer'])}, "
          f"classes: {sorted(doc['by_class'])})")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--binary", default="build/examples/bg3_stats")
    p.add_argument("--min-layers", type=int, default=4)
    p.add_argument("--serve-ms", type=int, default=20000)
    args = p.parse_args()

    env = dict(os.environ)
    env["BG3_DEBUG_SERVER"] = "1"
    env["BG3_SERVE_MS"] = str(args.serve_ms)
    proc = subprocess.Popen([args.binary], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    port = None
    try:
        for line in proc.stdout:
            m = re.match(r"debug server listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                port = int(m.group(1))
                break
        if port is None:
            print("FAIL: no 'debug server listening' line", file=sys.stderr)
            return 1
        # Wait for the workload + traced request before scraping: the serve
        # line is printed at startup, "serving debug endpoints" at the end.
        for line in proc.stdout:
            if line.startswith("serving debug endpoints"):
                break
        check_healthz(port)
        check_metrics(port)
        check_tracez(port, args.min_layers)
        check_costz(port)
    finally:
        proc.terminate()
        proc.wait(timeout=30)

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print("debug endpoints: all OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
