// Table 2 reproduction: background write amplification (MB/s of relocated
// data) under different space reclamation policies.
//
//   Workload 1 (Douyin Follow, no TTL):  dirty-ratio 15 MB/s vs
//                                        +update-gradient 12.5 MB/s (-16%)
//   Workload 2 (Financial Risk Control, short TTL): dirty-ratio 8 MB/s vs
//                                        +TTL bypass 0 MB/s
//
// Time is a ManualTimeSource advanced at the paper's offered rates (40K
// write QPS), so MB/s is computed over simulated seconds deterministically.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "cloud/cloud_store.h"
#include "common/random.h"
#include "core/graph_db.h"

using namespace bg3;

namespace {

struct GcRun {
  double moved_mb_per_s = 0;
  double expired_extents = 0;
  double freed_mb = 0;
  double resident_mb = 0;
};

// Workload 1: follow-style churn — hot users' adjacency pages rewritten
// constantly, cold users' pages stable.
GcRun RunFollowChurn(core::GcPolicyKind policy) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 64 << 10;
  cloud::CloudStore store(copts);
  cloud::ManualTimeSource clock;
  core::GraphDBOptions opts;
  opts.gc_policy = policy;
  opts.gc_target_dead_ratio = 0.05;
  opts.gc_min_fragmentation = 0.05;
  // Enough pressure that policies must also pick partially-valid extents
  // (fully-dead ones are free wins for every policy).
  opts.gc_extents_per_cycle = 8;
  opts.forest.tree_options.consolidate_threshold = 8;
  opts.time_source = &clock;
  core::GraphDB db(&store, opts);

  constexpr int kOps = 160'000;
  constexpr uint64_t kOpIntervalUs = 25;  // 40K QPS offered rate
  // Fig. 5's spatial-temporal mixture: half the traffic is cold appends
  // (follow edges that persist), half is hot-cohort churn (content that is
  // hot for a window, then cools). Extents therefore mix stable and dying
  // records, which is what differentiates the reclamation policies.
  constexpr int kCohortOps = 20'000;
  Random rng(4);
  const std::string props(24, 'p');
  uint64_t cold_seq = 0;
  for (int i = 0; i < kOps; ++i) {
    clock.AdvanceUs(kOpIntervalUs);
    if (rng.Uniform(2) == 0) {
      BG3_IGNORE_STATUS(db.AddEdge(1'000'000 + (cold_seq % 50'000), 1,
                       2'000'000 + cold_seq, props, 0));
      ++cold_seq;
    } else {
      const uint64_t cohort = static_cast<uint64_t>(i / kCohortOps);
      const uint64_t user = cohort * 64 + rng.Uniform(64);
      BG3_IGNORE_STATUS(db.AddEdge(user, 1, rng.Uniform(256), props, 0));
    }
    if (i % 250 == 0) (void)db.RunGcCycle();
  }
  BG3_IGNORE_STATUS(db.RunGcCycle());
  const double sim_seconds = kOps * kOpIntervalUs / 1e6;
  GcRun r;
  r.moved_mb_per_s = store.stats().gc_moved_bytes.Get() / 1e6 / sim_seconds;
  return r;
}

// Workload 2: risk-control — insert-only audit records with a short TTL.
// `bypass_window_us` is the workload-aware policy's TTL-bypass window; the
// 1 s default covers the 0.5 s TTL, so every TTL'd extent is bypassed.
GcRun RunRiskControlTtl(core::GcPolicyKind policy, bool use_ttl,
                        uint64_t ttl_us = 500'000,
                        uint64_t bypass_window_us = 1'000'000) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 64 << 10;
  cloud::CloudStore store(copts);
  cloud::ManualTimeSource clock;
  core::GraphDBOptions opts;
  opts.gc_policy = policy;
  opts.gc_target_dead_ratio = 0.05;
  opts.gc_min_fragmentation = 0.02;
  opts.gc_extents_per_cycle = 24;
  opts.edge_ttl_us = use_ttl ? ttl_us : 0;
  opts.gc_ttl_bypass_window_us = bypass_window_us;
  opts.forest.tree_options.consolidate_threshold = 8;
  opts.time_source = &clock;
  core::GraphDB db(&store, opts);

  constexpr int kOps = 120'000;
  constexpr uint64_t kOpIntervalUs = 25;
  ZipfGenerator accounts(5'000, 0.9, 5);
  Random rng(6);
  const std::string props(24, 'a');
  GcRun r;
  for (int i = 0; i < kOps; ++i) {
    clock.AdvanceUs(kOpIntervalUs);
    // Fresh audit edges; hot accounts overwrite their recent records, so
    // extents do fragment (the dirty-ratio baseline finds victims).
    BG3_IGNORE_STATUS(db.AddEdge(accounts.Next(), 1, rng.Uniform(5'000), props, 0));
    if (i % 500 == 0) (void)db.RunGcCycle();
  }
  BG3_IGNORE_STATUS(db.RunGcCycle());
  const double sim_seconds = kOps * kOpIntervalUs / 1e6;
  const gc::CycleResult& totals = db.reclaimer()->totals();
  r.moved_mb_per_s = store.stats().gc_moved_bytes.Get() / 1e6 / sim_seconds;
  r.expired_extents = static_cast<double>(totals.extents_expired);
  r.freed_mb = totals.bytes_freed / 1e6;
  r.resident_mb = store.TotalBytes() / 1e6;
  return r;
}

}  // namespace

int main() {
  bench::Banner("Table 2 — space reclamation policy comparison (§4.4)",
                "WL1: 15 MB/s (dirty-ratio) vs 12.5 MB/s (+gradient), -16%; "
                "WL2: 8 MB/s (dirty-ratio) vs 0 (+TTL natural expiry)");

  bench::BenchReport report("table2_gc");
  printf("\n-- workload 1: Douyin Follow (40K write QPS, no TTL) --\n");
  const GcRun wl1_dirty = RunFollowChurn(core::GcPolicyKind::kDirtyRatio);
  const GcRun wl1_aware = RunFollowChurn(core::GcPolicyKind::kWorkloadAware);
  printf("%-28s %10.2f MB/s\n", "dirty-ratio (ArkDB)", wl1_dirty.moved_mb_per_s);
  printf("%-28s %10.2f MB/s  (%.1f%% less movement)\n",
         "+update gradient (BG3)", wl1_aware.moved_mb_per_s,
         100.0 * (1.0 - wl1_aware.moved_mb_per_s /
                            (wl1_dirty.moved_mb_per_s > 0
                                 ? wl1_dirty.moved_mb_per_s
                                 : 1.0)));

  bench::Note(
      "reproduction note: in this synthetic substrate hot extents decay to "
      "near-fully-dead before selection, where fragmentation-greedy choice "
      "is already near-optimal; the gradient's benefit is therefore small "
      "here (paper reports -16%% on production traces; see EXPERIMENTS.md)");

  report.AddRow("wl1_follow", "dirty_ratio")
      .Num("moved_mb_per_s", wl1_dirty.moved_mb_per_s);
  report.AddRow("wl1_follow", "workload_aware")
      .Num("moved_mb_per_s", wl1_aware.moved_mb_per_s);

  printf("\n-- workload 2: Financial Risk Control (short TTL) --\n");
  const GcRun wl2_dirty =
      RunRiskControlTtl(core::GcPolicyKind::kDirtyRatio, /*use_ttl=*/false);
  const GcRun wl2_ttl =
      RunRiskControlTtl(core::GcPolicyKind::kWorkloadAware, /*use_ttl=*/true);
  printf("%-28s %10.2f MB/s\n", "dirty-ratio (no TTL aware)",
         wl2_dirty.moved_mb_per_s);
  printf("%-28s %10.2f MB/s  (extents expired in place: %.0f, %.1f MB freed)\n",
         "+TTL bypass (BG3)", wl2_ttl.moved_mb_per_s, wl2_ttl.expired_extents,
         wl2_ttl.freed_mb);

  report.AddRow("wl2_risk_ttl", "dirty_ratio")
      .Num("moved_mb_per_s", wl2_dirty.moved_mb_per_s);
  report.AddRow("wl2_risk_ttl", "ttl_bypass")
      .Num("moved_mb_per_s", wl2_ttl.moved_mb_per_s)
      .Num("expired_extents", wl2_ttl.expired_extents)
      .Num("freed_mb", wl2_ttl.freed_mb);
  report.Scalar("wl2_ttl_bypass_moved_mb_per_s", wl2_ttl.moved_mb_per_s);

  printf("\n-- extension: §4.4 future work, long-TTL workload --\n");
  // With a TTL far longer than the run, an unbounded bypass window (§3.3's
  // pure bypass) strands all dead space until expiry; a 1 s window keeps
  // reclaiming fragmented extents whose deadline is still distant.
  constexpr uint64_t kLongTtlUs = 3'600ull * 1'000'000;
  const GcRun long_bypass = RunRiskControlTtl(
      core::GcPolicyKind::kWorkloadAware, /*use_ttl=*/true, kLongTtlUs,
      gc::WorkloadAwarePolicy::kUnboundedWindow);
  const GcRun long_windowed = RunRiskControlTtl(
      core::GcPolicyKind::kWorkloadAware, /*use_ttl=*/true, kLongTtlUs);
  printf("%-28s moved %6.2f MB/s, resident at end %8.1f MB\n",
         "TTL bypass only", long_bypass.moved_mb_per_s,
         long_bypass.resident_mb);
  printf("%-28s moved %6.2f MB/s, resident at end %8.1f MB\n",
         "1s bypass window", long_windowed.moved_mb_per_s,
         long_windowed.resident_mb);
  report.AddRow("long_ttl", "ttl_bypass")
      .Num("moved_mb_per_s", long_bypass.moved_mb_per_s)
      .Num("resident_mb", long_bypass.resident_mb);
  report.AddRow("long_ttl", "bypass_window_1s")
      .Num("moved_mb_per_s", long_windowed.moved_mb_per_s)
      .Num("resident_mb", long_windowed.resident_mb);
  report.Scalar("long_ttl_resident_mb_unbounded_window",
                long_bypass.resident_mb);
  report.Scalar("long_ttl_resident_mb_1s_window", long_windowed.resident_mb);
  bench::Note("the window trades a little movement for not storing \"30 "
              "days' data\" of garbage (§4.4)");
  return 0;
}
