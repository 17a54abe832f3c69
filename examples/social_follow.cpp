// The "Douyin Follow" scenario of Table 1: a power-law follow graph under a
// 99% read / 1% write mix, showing how the Bw-tree forest splits hot users
// out of the INIT tree and what the storage engine does underneath.
//
//   $ ./social_follow
#include <cstdio>
#include <memory>

#include "cloud/cloud_store.h"
#include "common/metrics_registry.h"
#include "core/graph_db.h"
#include "workload/driver.h"
#include "workload/graph_gen.h"
#include "workload/workloads.h"

int main() {
  using namespace bg3;

  cloud::CloudStore store;
  core::GraphDBOptions options;
  // Hot users (> 512 followees) get dedicated Bw-trees (§3.2.1).
  options.forest.split_out_threshold = 512;
  core::GraphDB db(&store, options);

  // Bulk-load a Zipf-skewed follow graph.
  workload::GraphGenOptions gen;
  gen.num_sources = 50'000;
  gen.num_dests = 50'000;
  gen.num_edges = 300'000;
  gen.zipf_theta = 0.9;
  printf("loading %llu follow edges over %llu users...\n",
         (unsigned long long)gen.num_edges, (unsigned long long)gen.num_sources);
  auto loaded = workload::LoadGraph(&db, gen);
  if (!loaded.ok()) {
    printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }

  // Serve the production op mix for a while.
  workload::DriverOptions drv;
  drv.threads = 4;
  drv.ops_per_thread = 50'000;
  drv.read_limit = 32;
  workload::DriverResult result;
  workload::RunWorkload(
      &db,
      [&](int thread) {
        workload::FollowWorkload::Options w;
        w.num_users = gen.num_sources;
        w.zipf_theta = gen.zipf_theta;
        return std::make_unique<workload::FollowWorkload>(w, 1000 + thread);
      },
      drv, &result);

  printf("douyin-follow: %llu ops in %.2fs -> %.0f QPS (errors=%llu)\n",
         (unsigned long long)result.ops, result.seconds, result.qps,
         (unsigned long long)result.errors);

  // DB-wide leaf-latch conflicts (forest + vertex tree) as /metrics serves
  // them; the forest and the store answer the rest directly.
  const auto counters = MetricsRegistry::Default().TakeSnapshot().counters;
  const std::string& db_prefix = db.metrics_prefix();
  const uint64_t latch_conflicts =
      counters.at(db_prefix + "bwtree.latch.shared_conflicts") +
      counters.at(db_prefix + "bwtree.latch.exclusive_conflicts");
  const cloud::IoStats& io = store.stats();
  printf("\nforest after the run:\n");
  printf("  bw-trees          : %zu (hot users split out: %llu)\n",
         db.forest()->TreeCount(),
         (unsigned long long)db.forest()->stats().split_outs.Get());
  printf("  INIT-tree entries : %zu\n", db.forest()->InitEntryCount());
  printf("  latch conflicts   : %llu\n", (unsigned long long)latch_conflicts);
  printf("storage:\n");
  printf("  total=%.1f MB live=%.1f MB appends=%llu reads=%llu\n",
         store.TotalBytes() / 1e6, store.LiveBytes() / 1e6,
         (unsigned long long)io.append_ops.Get(),
         (unsigned long long)io.read_ops.Get());

  // One reclamation pass to clean up overwrite garbage.
  BG3_CHECK(db.RunGcCycle().ok());
  printf("after GC: extents freed=%llu moved=%.1f MB\n",
         (unsigned long long)io.extents_freed.Get(),
         io.gc_moved_bytes.Get() / 1e6);
  return 0;
}
