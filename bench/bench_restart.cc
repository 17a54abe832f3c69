// Instant restart (DESIGN.md §5.7): time-to-first-read and
// time-to-full-QPS after a crash, with continuous fuzzy checkpointing vs
// the full-WAL-replay baseline, swept across 1x/4x/16x WAL volume.
//
//   checkpointed — a Checkpointer published a manifest before the crash;
//       RwNode::Recover seeks the WAL reader past the checkpoint cursor,
//       replays only the suffix and installs the pages the suffix did not
//       touch demand-paged, so the first read lands after a bounded amount
//       of I/O *independent of total WAL length*. Full QPS follows once
//       the tree's warm sweep (BwTree::WarmRestoredPages) has fetched
//       every restored page.
//   full_replay  — an RO view of the same store with checkpoint resume
//       disabled: every byte of the WAL is re-read before the first read
//       (PollWal, first Get, then ExportTree).
//
// Wall-clock times are reported for inspection; the CI floors
// (scripts/check_bench_json.py) are deterministic ratios:
// replay_savings_16x >= 0.5 (the checkpointed restart skips at least half
// the 16x WAL), full_vs_checkpoint_replay_ratio_16x >= 4.0 (the baseline
// replays at least 4x more bytes than the checkpointed path), and
// recover_reads_growth_16x_over_1x <= 1.5 (Recover's storage reads do not
// grow with the database: it reads the suffix and the pages it touched).
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "cloud/cloud_store.h"
#include "common/clock.h"
#include "replication/checkpoint.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"

using namespace bg3;

namespace {

constexpr int kBaseWrites = 400;   // 1x WAL volume
constexpr int kSuffixWrites = 50;  // constant post-checkpoint suffix
constexpr int kScales[] = {1, 4, 16};
constexpr const char* kPayload = "restart-bench-payload-restart-bench";

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct CrashedStore {
  std::unique_ptr<cloud::CloudStore> store;
  replication::RwNodeOptions opts;
};

/// Builds a store holding a crashed RW node: `scale * kBaseWrites` writes,
/// a durable checkpoint manifest, then kSuffixWrites more (the replay
/// suffix), then the crash.
CrashedStore BuildCrashedStore(int scale) {
  CrashedStore c;
  c.store = std::make_unique<cloud::CloudStore>();
  c.opts.tree.tree_id = 1;
  c.opts.tree.max_leaf_entries = 64;
  c.opts.tree.base_stream = c.store->CreateStream("base");
  c.opts.tree.delta_stream = c.store->CreateStream("delta");
  c.opts.wal.stream = c.store->CreateStream("wal");
  c.opts.flush_group_pages = 1'000'000;  // the checkpointer flushes
  c.opts.flush_group_mutations = 1'000'000'000;
  auto rw = std::make_unique<replication::RwNode>(c.store.get(), c.opts);
  for (int i = 0; i < kBaseWrites * scale; ++i) {
    BG3_IGNORE_STATUS(rw->Put(Key(i), kPayload));
  }
  BG3_IGNORE_STATUS(rw->checkpointer()->CheckpointNow());
  for (int i = 0; i < kSuffixWrites; ++i) {
    BG3_IGNORE_STATUS(rw->Put(Key(10'000'000 + i), kPayload));
  }
  rw.reset();  // crash
  return c;
}

struct Measured {
  uint64_t first_read_us = 0;
  uint64_t full_qps_us = 0;
  uint64_t replayed_bytes = 0;
  uint64_t total_wal_bytes = 0;
  uint64_t read_ops = 0;  ///< storage reads of the restart itself.
};

/// The checkpointed restart: RwNode::Recover, the first read, then the
/// warm sweep. Destructive (the recovered node checkpoints), so it runs
/// before the full-replay baseline on the same store.
Measured RunRecover(CrashedStore& c) {
  Measured m;
  const uint64_t reads_before = c.store->stats().read_ops.Get();
  const uint64_t start = NowMicros();
  auto recovered = replication::RwNode::Recover(c.store.get(), c.opts);
  BG3_CHECK(recovered.ok());
  auto rw = recovered.take();
  m.read_ops = c.store->stats().read_ops.Get() - reads_before;
  BG3_CHECK(rw->Get(Key(0)).ok());  // the first post-crash read
  m.first_read_us = NowMicros() - start;
  for (;;) {
    auto remaining = rw->tree()->WarmRestoredPages(32);
    BG3_CHECK(remaining.ok());
    if (remaining.value() == 0) break;
  }
  m.full_qps_us = NowMicros() - start;
  m.replayed_bytes = rw->recovery().wal_bytes_replayed;
  m.total_wal_bytes = rw->recovery().total_wal_bytes;
  return m;
}

/// The full-replay baseline: an RO view that ignores the checkpoint reads
/// the whole WAL before its first read, then materializes the tree.
Measured RunFullReplay(CrashedStore& c) {
  Measured m;
  replication::RoNodeOptions ro_opts;
  ro_opts.wal_stream = c.opts.wal.stream;
  ro_opts.cache_capacity_pages = ~0ull;
  ro_opts.resume_from_checkpoint = false;
  const uint64_t reads_before = c.store->stats().read_ops.Get();
  const uint64_t start = NowMicros();
  replication::RoNode ro(c.store.get(), ro_opts);
  BG3_CHECK(ro.PollWal().ok());
  BG3_CHECK(ro.Get(c.opts.tree.tree_id, Key(0)).ok());
  m.first_read_us = NowMicros() - start;
  auto exported = ro.ExportTree(c.opts.tree.tree_id);
  BG3_CHECK(exported.ok());
  m.full_qps_us = NowMicros() - start;
  m.read_ops = c.store->stats().read_ops.Get() - reads_before;
  m.replayed_bytes = exported.value().replay.wal_bytes_replayed;
  m.total_wal_bytes = exported.value().replay.total_wal_bytes;
  return m;
}

}  // namespace

int main() {
  bench::Banner(
      "Instant restart — time-to-first-read / time-to-full-QPS after a "
      "crash, checkpointed vs full WAL replay, 1x/4x/16x WAL volume",
      "DESIGN.md §5.7: the checkpointed restart replays only the WAL "
      "suffix; first-read cost is independent of WAL length");

  bench::BenchReport report("restart");
  report.Config("base_writes", kBaseWrites);
  report.Config("suffix_writes", kSuffixWrites);
  report.Config("payload_bytes", static_cast<uint64_t>(sizeof(kPayload) - 1));

  printf("%12s %6s %18s %18s %16s %16s %10s\n", "series", "scale",
         "first-read-us", "full-qps-us", "replayed-bytes", "total-wal-bytes",
         "read-ops");

  uint64_t ckpt_replayed_16x = 0, full_replayed_16x = 0, total_16x = 0;
  uint64_t ckpt_replayed_1x = 0, ckpt_reads_1x = 0, ckpt_reads_16x = 0;
  for (const int scale : kScales) {
    const std::string x = std::to_string(scale) + "x";
    CrashedStore c = BuildCrashedStore(scale);
    // Checkpointed restart first (the recovered node republishes pages);
    // the full-replay baseline measures last and reads strictly more WAL.
    const Measured ckpt = RunRecover(c);
    const Measured full = RunFullReplay(c);
    for (const auto& [series, m] :
         {std::pair<const char*, const Measured&>{"checkpointed", ckpt},
          {"full_replay", full}}) {
      printf("%12s %5dx %18llu %18llu %16llu %16llu %10llu\n", series, scale,
             (unsigned long long)m.first_read_us,
             (unsigned long long)m.full_qps_us,
             (unsigned long long)m.replayed_bytes,
             (unsigned long long)m.total_wal_bytes,
             (unsigned long long)m.read_ops);
      report.AddRow(series, x)
          .Num("time_to_first_read_us", static_cast<double>(m.first_read_us))
          .Num("time_to_full_qps_us", static_cast<double>(m.full_qps_us))
          .Num("replayed_bytes", static_cast<double>(m.replayed_bytes))
          .Num("total_wal_bytes", static_cast<double>(m.total_wal_bytes))
          .Num("read_ops", static_cast<double>(m.read_ops));
    }
    if (scale == 1) {
      ckpt_replayed_1x = ckpt.replayed_bytes;
      ckpt_reads_1x = ckpt.read_ops;
    }
    if (scale == 16) {
      ckpt_replayed_16x = ckpt.replayed_bytes;
      ckpt_reads_16x = ckpt.read_ops;
      full_replayed_16x = full.replayed_bytes;
      total_16x = full.total_wal_bytes;
    }
  }

  // CI floors: deterministic byte ratios, immune to machine speed.
  const double savings =
      total_16x > 0
          ? 1.0 - static_cast<double>(ckpt_replayed_16x) / total_16x
          : 0.0;
  const double ratio = ckpt_replayed_16x > 0
                           ? static_cast<double>(full_replayed_16x) /
                                 ckpt_replayed_16x
                           : 0.0;
  // Boundedness across the sweep: the 16x checkpointed restart replays
  // about the same suffix as the 1x one (reported for inspection).
  const double growth = ckpt_replayed_1x > 0
                            ? static_cast<double>(ckpt_replayed_16x) /
                                  ckpt_replayed_1x
                            : 0.0;
  report.Scalar("replay_savings_16x", savings);
  report.Scalar("full_vs_checkpoint_replay_ratio_16x", ratio);
  report.Scalar("checkpoint_replay_growth_16x_over_1x", growth);
  // Recover's storage reads at 16x over 1x: the suffix and the pages it
  // touched are the same at every scale (CI ceiling 1.5).
  const double reads_growth =
      ckpt_reads_1x > 0
          ? static_cast<double>(ckpt_reads_16x) / ckpt_reads_1x
          : 0.0;
  report.Scalar("recover_reads_growth_16x_over_1x", reads_growth);

  bench::Note("16x WAL: checkpointed restart skipped %.1f%% of the log "
              "(floor 50%%); full replay read %.1fx more bytes (floor 4x); "
              "suffix growth 16x/1x = %.2fx; Recover read_ops 16x/1x = "
              "%.2fx (ceiling 1.5x)",
              100.0 * savings, ratio, growth, reads_growth);
  report.Write();
  return 0;
}
