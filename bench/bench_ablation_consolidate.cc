// Ablation (beyond the paper's figures): how the consolidation threshold
// trades read amplification against write bandwidth in both delta modes.
// This quantifies the design space around the paper's fixed choice of 10
// (§4.3.1) — small thresholds consolidate eagerly (fast reads, more base
// rewrites), large thresholds grow chains (slow reads on the traditional
// tree, bigger merged deltas on the read-optimized one). At the paper's
// threshold it also reports the mean cost of one consolidation and of one
// split (memory step plus image appends), from the bg3.bwtree.consolidate
// and bg3.bwtree.smo_split scope histograms.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench_common.h"
#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/metrics_registry.h"
#include "common/random.h"

using namespace bg3;
using namespace bg3::bwtree;

namespace {

constexpr uint64_t kKeys = 20'000;
constexpr int kWrites = 90'000;
constexpr int kReads = 10'000;

std::string KeyOf(uint64_t id) {
  char buf[16];
  snprintf(buf, sizeof(buf), "u%010llu", static_cast<unsigned long long>(id));
  return buf;
}

struct Point {
  double reads_per_query;
  double bytes_per_write;
  double consolidate_ns;  ///< mean per consolidation of the write phase.
  double split_ns;        ///< mean per split of the write phase.
};

/// Mean of the samples `name` gained between two registry snapshots.
double MeanDelta(const MetricsRegistry::Snapshot& before,
                 const MetricsRegistry::Snapshot& after,
                 const std::string& name) {
  const auto sum_count = [&name](const MetricsRegistry::Snapshot& snap) {
    auto it = snap.histograms.find(name);
    if (it == snap.histograms.end()) return std::pair<double, double>{0, 0};
    const double n = static_cast<double>(it->second.count);
    return std::pair<double, double>{it->second.mean * n, n};
  };
  const auto [sum0, n0] = sum_count(before);
  const auto [sum1, n1] = sum_count(after);
  return n1 > n0 ? (sum1 - sum0) / (n1 - n0) : 0.0;
}

Point Run(DeltaMode mode, uint32_t consolidate_threshold) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 20;
  cloud::CloudStore store(copts);
  BwTreeOptions opts;
  opts.delta_mode = mode;
  opts.consolidate_threshold = consolidate_threshold;
  opts.max_leaf_entries = 128;  // normal leaf splits
  opts.read_cache = ReadCacheMode::kNone;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  BwTree tree(&store, opts);

  const MetricsRegistry::Snapshot before =
      MetricsRegistry::Default().TakeSnapshot();
  ZipfGenerator write_keys(kKeys, 0.8, 1);
  for (int i = 0; i < kWrites; ++i) {
    BG3_IGNORE_STATUS(tree.Upsert(KeyOf(write_keys.Next()), "payload-32-bytes-of-props!!"));
  }
  const MetricsRegistry::Snapshot after =
      MetricsRegistry::Default().TakeSnapshot();
  const uint64_t bytes = store.stats().append_bytes.Get();

  ZipfGenerator read_keys(kKeys, 0.8, 2);
  const uint64_t reads_before = store.stats().read_ops.Get();
  for (int i = 0; i < kReads; ++i) {
    BG3_IGNORE_STATUS(tree.Get(KeyOf(read_keys.Next())));
  }
  Point p;
  p.reads_per_query =
      static_cast<double>(store.stats().read_ops.Get() - reads_before) /
      kReads;
  p.bytes_per_write = static_cast<double>(bytes) / kWrites;
  p.consolidate_ns = MeanDelta(before, after, "bg3.bwtree.consolidate_ns");
  p.split_ns = MeanDelta(before, after, "bg3.bwtree.smo_split_ns");
  return p;
}

}  // namespace

int main() {
  bench::Banner("Ablation — consolidation threshold sweep",
                "paper fixes ConsolidateNum=10; this sweep shows the "
                "read-amp / write-bandwidth tradeoff around that choice");

  printf("%10s | %-34s | %-34s\n", "", "traditional (SLED-like)",
         "read-optimized (BG3)");
  printf("%10s | %16s %16s | %16s %16s\n", "threshold", "reads/query",
         "bytes/write", "reads/query", "bytes/write");
  bench::BenchReport report("ablation_consolidate");
  for (uint32_t threshold : {2u, 5u, 10u, 20u, 50u}) {
    const Point t = Run(DeltaMode::kTraditional, threshold);
    const Point r = Run(DeltaMode::kReadOptimized, threshold);
    printf("%10u | %16.2f %16.0f | %16.2f %16.0f\n", threshold,
           t.reads_per_query, t.bytes_per_write, r.reads_per_query,
           r.bytes_per_write);
    report.AddRow("traditional", std::to_string(threshold))
        .Num("reads_per_query", t.reads_per_query)
        .Num("bytes_per_write", t.bytes_per_write);
    report.AddRow("read_optimized", std::to_string(threshold))
        .Num("reads_per_query", r.reads_per_query)
        .Num("bytes_per_write", r.bytes_per_write);
    if (threshold == 10) {
      // Reported only: wall-clock means, for comparing write-path changes.
      printf("%10s | consolidate %7.0f ns split %7.0f ns | consolidate %7.0f "
             "ns split %7.0f ns\n",
             "", t.consolidate_ns, t.split_ns, r.consolidate_ns, r.split_ns);
      report.Scalar("consolidate_ns_traditional", t.consolidate_ns);
      report.Scalar("split_ns_traditional", t.split_ns);
      report.Scalar("consolidate_ns_read_optimized", r.consolidate_ns);
      report.Scalar("split_ns_read_optimized", r.split_ns);
    }
    fflush(stdout);
  }
  bench::Note("read-optimized holds reads/query <= 2 at any threshold; the "
              "traditional chain degrades linearly with it");
  return 0;
}
