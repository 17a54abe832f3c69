// Leader failover (DESIGN.md §5.10): write-unavailability window and
// promotion replay cost across 1x/4x/16x WAL backlog.
//
//   checkpointed — the leader checkpointed after the backlog; the
//       promotion candidate is a *cold* follower that bootstraps from the
//       manifest and replays only the WAL suffix past its cursor, so the
//       bytes a promotion must read are bounded by the checkpoint suffix,
//       not the total WAL length.
//   full_replay  — the same backlog never checkpointed: the cold
//       candidate re-reads the entire WAL before it can be promoted.
//
// The unavailability window (fence -> epoch CAS -> catch-up -> reopen ->
// first acknowledged write on the new leader) is wall clock, reported for
// inspection. The CI floors (scripts/check_bench_json.py) are the
// deterministic byte ratios: promotion_replay_savings_16x >= 0.5 and
// full_vs_checkpoint_promotion_replay_ratio_16x >= 4.0.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "cloud/cloud_store.h"
#include "common/clock.h"
#include "replication/cluster.h"

using namespace bg3;

namespace {

constexpr int kBaseWrites = 400;   // 1x WAL backlog
constexpr int kSuffixWrites = 50;  // constant post-checkpoint suffix
constexpr int kScales[] = {1, 4, 16};
constexpr const char* kPayload = "failover-bench-payload-failover-bench";

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct Measured {
  uint64_t unavailability_us = 0;  ///< fence to first acked write.
  uint64_t first_follower_read_us = 0;
  uint64_t replay_bytes = 0;  ///< cold candidate's WAL read during catch-up.
  uint64_t total_wal_bytes = 0;
  bool resumed_from_checkpoint = false;
};

/// Builds one single-partition cluster with `scale * kBaseWrites` writes of
/// backlog (plus a constant suffix past the checkpoint when checkpointing),
/// then fails the leader over to a cold follower and measures the window.
/// The group flush triggers never fire, so only `checkpointing` publishes a
/// manifest before the promotion.
Measured RunFailover(int scale, bool checkpointing) {
  auto store = std::make_unique<cloud::CloudStore>();
  replication::ClusterOptions copts;
  copts.partitions = 1;
  copts.followers_per_partition = 2;
  copts.leader.tree.max_leaf_entries = 64;
  copts.leader.flush_group_pages = 1'000'000;  // the checkpointer flushes
  copts.leader.flush_group_mutations = 1'000'000'000;
  copts.leader.wal.group_window_us = 0;
  replication::Bg3Cluster cluster(store.get(), copts);
  // CreateStream is name-idempotent: this resolves the id of the WAL
  // stream the cluster created for partition 0.
  const cloud::StreamId wal_stream = store->CreateStream("cluster-p0-wal");

  for (int i = 0; i < kBaseWrites * scale; ++i) {
    BG3_CHECK(cluster.Put(Key(i), kPayload).ok());
  }
  if (checkpointing) {
    BG3_CHECK(cluster.checkpointer(0)->CheckpointNow().ok());
    for (int i = 0; i < kSuffixWrites; ++i) {
      BG3_CHECK(cluster.Put(Key(10'000'000 + i), kPayload).ok());
    }
  }

  // The candidate is a *cold* follower: rebuilt after the backlog so its
  // replay during promotion is exactly what a node that was not tailing
  // must read — the manifest suffix, or the whole WAL without one.
  BG3_CHECK(cluster.RestartFollower(0, 0).ok());

  Measured m;
  const uint64_t start = NowMicros();
  // The candidate's catch-up, inside the window: promotion consumes the
  // candidate into the new leader, so its replay is read off here. The
  // catch-up poll inside PromoteFollower then finds nothing new.
  replication::RoNode* candidate = cluster.follower(0, 0);
  BG3_CHECK(candidate->PollWal().ok());
  m.replay_bytes = candidate->WalBytesReplayed();
  m.resumed_from_checkpoint = candidate->ResumedFromCheckpoint();
  m.total_wal_bytes = store->TotalBytes(wal_stream);
  BG3_CHECK(cluster.PromoteFollower(0, 0).ok());
  BG3_CHECK(cluster.Put(Key(20'000'000), kPayload).ok());
  m.unavailability_us = NowMicros() - start;
  BG3_CHECK(cluster.Get(Key(20'000'000)).ok());
  m.first_follower_read_us = NowMicros() - start;
  return m;
}

}  // namespace

int main() {
  bench::Banner(
      "Leader failover — write-unavailability window and promotion replay "
      "bytes, checkpointed vs full WAL replay, 1x/4x/16x backlog",
      "DESIGN.md §5.10: a promotion replays only the checkpoint suffix; "
      "its cost is independent of total WAL length");

  bench::BenchReport report("failover");
  report.Config("base_writes", kBaseWrites);
  report.Config("suffix_writes", kSuffixWrites);
  report.Config("payload_bytes", static_cast<uint64_t>(sizeof(kPayload) - 1));

  printf("%12s %6s %18s %20s %16s %16s %8s\n", "series", "scale",
         "unavail-us", "first-foll-read-us", "replay-bytes",
         "total-wal-bytes", "resumed");

  uint64_t ckpt_replay_16x = 0, full_replay_16x = 0, total_16x = 0;
  uint64_t ckpt_replay_1x = 0;
  for (const int scale : kScales) {
    const std::string x = std::to_string(scale) + "x";
    const Measured ckpt = RunFailover(scale, /*checkpointing=*/true);
    const Measured full = RunFailover(scale, /*checkpointing=*/false);
    for (const auto& [series, m] :
         {std::pair<const char*, const Measured&>{"checkpointed", ckpt},
          {"full_replay", full}}) {
      printf("%12s %5dx %18llu %20llu %16llu %16llu %8s\n", series, scale,
             (unsigned long long)m.unavailability_us,
             (unsigned long long)m.first_follower_read_us,
             (unsigned long long)m.replay_bytes,
             (unsigned long long)m.total_wal_bytes,
             m.resumed_from_checkpoint ? "yes" : "no");
      report.AddRow(series, x)
          .Num("unavailability_us", static_cast<double>(m.unavailability_us))
          .Num("first_follower_read_us",
               static_cast<double>(m.first_follower_read_us))
          .Num("promotion_replay_bytes", static_cast<double>(m.replay_bytes))
          .Num("total_wal_bytes", static_cast<double>(m.total_wal_bytes));
    }
    if (scale == 1) ckpt_replay_1x = ckpt.replay_bytes;
    if (scale == 16) {
      ckpt_replay_16x = ckpt.replay_bytes;
      full_replay_16x = full.replay_bytes;
      total_16x = full.total_wal_bytes;
    }
  }

  // CI floors: deterministic byte ratios, immune to machine speed.
  const double savings =
      total_16x > 0
          ? 1.0 - static_cast<double>(ckpt_replay_16x) / total_16x
          : 0.0;
  const double ratio =
      ckpt_replay_16x > 0
          ? static_cast<double>(full_replay_16x) / ckpt_replay_16x
          : 0.0;
  // Boundedness across the sweep: the 16x checkpointed promotion replays
  // about the same suffix as the 1x one (reported for inspection).
  const double growth =
      ckpt_replay_1x > 0
          ? static_cast<double>(ckpt_replay_16x) / ckpt_replay_1x
          : 0.0;
  report.Scalar("promotion_replay_savings_16x", savings);
  report.Scalar("full_vs_checkpoint_promotion_replay_ratio_16x", ratio);
  report.Scalar("checkpoint_promotion_replay_growth_16x_over_1x", growth);

  bench::Note("16x backlog: checkpointed promotion skipped %.1f%% of the "
              "WAL (floor 50%%); the no-checkpoint promotion read %.1fx "
              "more bytes (floor 4x); suffix growth 16x/1x = %.2fx",
              100.0 * savings, ratio, growth);
  report.Write();
  return 0;
}
