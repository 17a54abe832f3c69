// Observability tour: run a short Follow-style workload against a BG3
// GraphDB, then dump the process-wide metrics registry (JSON and Prometheus
// text), which carries the per-layer latency breakdown.
//
//   $ ./bg3_stats                  # metrics dump on stdout
//   $ BG3_SLOW_OP_US=50 ./bg3_stats  # span trees of slow ops on stderr
//   $ BG3_DEBUG_SERVER=1 BG3_SERVE_MS=5000 ./bg3_stats
//                                  # serve /metrics /tracez /costz /healthz
//                                  # on an ephemeral loopback port for 5s
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "cloud/cloud_store.h"
#include "common/metrics_registry.h"
#include "common/op_context.h"
#include "core/graph_db.h"
#include "forest/buffer_pool.h"
#include "query/query.h"
#include "replication/cluster.h"
#include "workload/driver.h"
#include "workload/workloads.h"

int main() {
  using namespace bg3;

  cloud::CloudStore store;
  core::GraphDBOptions options;
  // BG3_DEBUG_SERVER=1 exposes the introspection endpoint; BG3_DEBUG_PORT
  // picks a fixed port (default 0 = ephemeral, printed below).
  const char* dbg_env = std::getenv("BG3_DEBUG_SERVER");
  if (dbg_env != nullptr && dbg_env[0] == '1') {
    options.debug_server.enabled = true;
    const char* port_env = std::getenv("BG3_DEBUG_PORT");
    if (port_env != nullptr) {
      options.debug_server.port =
          static_cast<uint16_t>(std::strtoul(port_env, nullptr, 10));
    }
  }
  core::GraphDB db(&store, options);
  if (db.debug_server_port() != 0) {
    // Parsed by scripts/check_debug_endpoints.py; keep the format stable.
    printf("debug server listening on 127.0.0.1:%u\n",
           static_cast<unsigned>(db.debug_server_port()));
    fflush(stdout);
  }

  // Drive a mixed read/write social-follow workload through every layer:
  // API -> forest -> bw-tree -> WAL-less write path -> cloud store, plus GC.
  workload::DriverOptions dopts;
  dopts.threads = 4;
  dopts.ops_per_thread = 5'000;
  workload::DriverResult result;
  workload::RunWorkload(
      &db,
      [](int thread) {
        workload::FollowWorkload::Options o;
        o.num_users = 10'000;
        o.write_fraction = 0.2;
        return std::make_unique<workload::FollowWorkload>(
            o, /*seed=*/1 + thread);
      },
      dopts, &result);
  BG3_IGNORE_STATUS(db.RunGcCycle());

  printf("ran %llu ops at %.0f qps (%llu errors)\n",
         (unsigned long long)result.ops, result.qps,
         (unsigned long long)result.errors);

  // One traced request (DESIGN.md §5.8) so /tracez retains a span tree and
  // /costz shows per-class attribution. Threshold 0 = retain every traced
  // request; BG3_SLOW_OP_US overrides for tail-based sampling.
  {
    // Deterministic 2-hop neighborhood for the traced query, independent of
    // what the random workload generated around vertex 1.
    for (graph::VertexId mid = 2; mid <= 5; ++mid) {
      BG3_IGNORE_STATUS(db.AddEdge(1, 1, mid, "demo", 1));
      BG3_IGNORE_STATUS(db.AddEdge(mid, 1, 100 + mid, "demo", 1));
    }
    // Evict resident leaves first so the traced hops fault pages back from
    // the cloud store — the span tree then reaches the cloud layer and the
    // request's account carries real I/O for /costz.
    std::vector<bwtree::BwTree*> trees;
    db.forest()->AppendTrees(&trees);
    BG3_IGNORE_STATUS(forest::EvictTreesToBudget(trees, /*budget_bytes=*/0));

    OpStats op_stats;
    OpContext ctx = OpContext::Traced("bg3_stats_demo", &op_stats);
    auto traced = query::Query(&db).V(1).Out(1).Out(1).Dedup().Context(&ctx)
                      .Execute();
    BG3_IGNORE_STATUS(traced.status());
    printf("traced demo query: %s\n", op_stats.ToJson().c_str());
  }

  // Full registry dump — every BG3_TIMED_SCOPE's `<name>_ns` histogram (its
  // spans, named `<name>`, go to /tracez instead), the CloudStore's
  // I/O counters (bg3.cloud.store0.*), and this DB's forest/GC callbacks
  // (bg3.db0.*) appear here.
  printf("\n--- metrics registry (JSON) ---\n%s\n",
         MetricsRegistry::Default().RenderJson().c_str());

  printf("--- metrics registry (Prometheus text) ---\n%s",
         MetricsRegistry::Default().RenderPrometheus().c_str());

  // A small replicated cluster so /healthz carries per-partition roles,
  // terms and WAL cursors (DESIGN.md §5.10). One leader failover leaves a
  // promoted leader (term > 1) and a fenced zombie in the report; the
  // cluster registers itself as a health source on construction and stays
  // alive through the serve window below.
  cloud::CloudStore cluster_store;
  replication::ClusterOptions cluster_opts;
  cluster_opts.partitions = 2;
  cluster_opts.followers_per_partition = 2;
  cluster_opts.leader.wal.group_window_us = 0;
  replication::Bg3Cluster cluster(&cluster_store, cluster_opts);
  for (int i = 0; i < 200; ++i) {
    BG3_IGNORE_STATUS(
        cluster.Put("health-key-" + std::to_string(i), "health-value"));
  }
  BG3_IGNORE_STATUS(cluster.PromoteFollower(0));
  printf("cluster health: %llu partitions, %llu promotions, term %llu\n",
         (unsigned long long)cluster.partitions(),
         (unsigned long long)cluster.promotions(),
         (unsigned long long)cluster.term(0));

  // Keep the debug endpoint up for scrapes (BG3_SERVE_MS, default 0).
  const char* serve_env = std::getenv("BG3_SERVE_MS");
  if (db.debug_server_port() != 0 && serve_env != nullptr) {
    const unsigned long serve_ms = std::strtoul(serve_env, nullptr, 10);
    printf("serving debug endpoints for %lu ms\n", serve_ms);
    fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
  }
  return 0;
}
