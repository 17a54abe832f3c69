// Figure 13 reproduction: leader-follower synchronization latency as the
// write load grows from 10K to 60K QPS (§4.5). BG3's latency is dominated
// by WAL publication (group wait + shared-storage append) plus the RO tail
// interval — none of which grow with write load until the storage device
// saturates, so the curve stays flat around ~120 ms.
//
// Latency components are simulated on the virtual time line (see
// cloud::LatencyModel); the driver feeds the model the offered utilization
// for each load point.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "cloud/cloud_store.h"
#include "graph/edge.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"

using namespace bg3;
using namespace bg3::replication;

namespace {

struct LatencyPoint {
  double mean_ms;
  double p50_ms;
  double p99_ms;
};

LatencyPoint RunAtLoad(uint64_t write_qps) {
  cloud::CloudStoreOptions copts;
  // ms-level shared storage as in §4.1.
  copts.latency.append_base_us = 2'000;
  copts.latency.read_base_us = 2'500;
  cloud::CloudStore store(copts);
  // The WAL device saturates around 100K small appends/s in this model.
  store.latency_model().SetOfferedUtilization(
      static_cast<double>(write_qps) / 150'000.0);

  RwNodeOptions rw_opts;
  rw_opts.tree.tree_id = 1;
  rw_opts.tree.max_leaf_entries = 512;
  rw_opts.tree.base_stream = store.CreateStream("base");
  rw_opts.tree.delta_stream = store.CreateStream("delta");
  rw_opts.wal.stream = store.CreateStream("wal");
  rw_opts.wal.group_size = 32;              // group commit under high QPS
  rw_opts.wal.group_window_us = 150'000;    // WAL buffer residency window
  rw_opts.flush_group_pages = 64;
  RwNode rw(&store, rw_opts);

  RoNodeOptions ro_opts;
  ro_opts.wal_stream = rw_opts.wal.stream;
  ro_opts.poll_interval_us = 60'000;  // RO tails the WAL every 60 ms
  RoNode ro(&store, ro_opts);

  constexpr int kWrites = 30'000;
  for (int i = 0; i < kWrites; ++i) {
    const auto key = graph::EncodeFlatEdgeKey(i % 700, 1, i);
    BG3_IGNORE_STATUS(rw.Put(key, graph::EncodeEdgeValue(i, "risk-audit-record")));
    if (i % 512 == 0) (void)ro.PollWal();
  }
  BG3_IGNORE_STATUS(rw.checkpointer()->CheckpointNow());
  BG3_IGNORE_STATUS(ro.PollWal());

  LatencyPoint p;
  p.mean_ms = ro.sync_latency().Mean() / 1e3;
  p.p50_ms = ro.sync_latency().Percentile(0.5) / 1e3;
  p.p99_ms = ro.sync_latency().Percentile(0.99) / 1e3;
  return p;
}

}  // namespace

int main() {
  bench::Banner("Figure 13 — leader-follower latency vs write load (§4.5)",
                "latency stays ~120 ms from 10K to 60K write QPS (WAL "
                "publication dominates; independent of load below "
                "device saturation)");

  printf("%12s %10s %10s %10s\n", "write-QPS", "mean(ms)", "p50(ms)",
         "p99(ms)");
  bench::BenchReport report("fig13_sync_latency");
  for (uint64_t qps : {10'000, 20'000, 30'000, 40'000, 50'000, 60'000}) {
    const LatencyPoint p = RunAtLoad(qps);
    report.AddRow("sync_latency", std::to_string(qps))
        .Num("mean_ms", p.mean_ms)
        .Num("p50_ms", p.p50_ms)
        .Num("p99_ms", p.p99_ms);
    printf("%12llu %10.1f %10.1f %10.1f\n", (unsigned long long)qps, p.mean_ms,
           p.p50_ms, p.p99_ms);
    fflush(stdout);
  }
  return 0;
}
