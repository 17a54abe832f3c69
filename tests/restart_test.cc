// Restart harness tests (DESIGN.md §5.7): RwNode::Recover, the one restart
// path (demand-paged install, suffix-only replay, warm sweep), deterministic
// crash-point schedules at every cloud-I/O class boundary (including
// mid-checkpoint), GraphDB on the WAL-backed RW node (kill after ack,
// checkpoint/restore, aborted split-outs), and the cluster checkpointer
// wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "core/graph_db.h"
#include "gc/extent_usage.h"
#include "gc/policy.h"
#include "gc/space_reclaimer.h"
#include "replication/checkpoint.h"
#include "replication/cluster.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"
#include "test_seed.h"

namespace bg3::replication {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct RestartFixture {
  explicit RestartFixture(
      size_t extent_capacity = 1 << 16,
      int max_attempts = RetryOptions{}.max_attempts,
      size_t max_pages_per_round = CheckpointerOptions{}.max_pages_per_round) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = extent_capacity;
    copts.retry.max_attempts = max_attempts;
    store = std::make_unique<cloud::CloudStore>(copts);
    opts.tree.tree_id = 1;
    opts.tree.max_leaf_entries = 16;
    opts.tree.base_stream = store->CreateStream("base");
    opts.tree.delta_stream = store->CreateStream("delta");
    opts.wal.stream = store->CreateStream("wal");
    opts.flush_group_pages = 1'000'000;  // checkpointer flushes, not GC
    opts.flush_group_mutations = 1'000'000'000;
    opts.checkpoint.max_pages_per_round = max_pages_per_round;
    rw = std::make_unique<RwNode>(store.get(), opts);
  }

  void Checkpoint() {
    ASSERT_TRUE(rw->checkpointer()->CheckpointNow().ok());
    ASSERT_GT(rw->checkpointer()->epoch(), 0u);
  }

  void Crash() { rw.reset(); }

  /// RwNode::Recover on the crashed node's store; null (and a test
  /// failure) if it fails.
  std::unique_ptr<RwNode> Recover() {
    auto recovered = RwNode::Recover(store.get(), opts);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    return recovered.ok() ? recovered.take() : nullptr;
  }

  std::unique_ptr<cloud::CloudStore> store;
  RwNodeOptions opts;
  std::unique_ptr<RwNode> rw;
};

/// Runs the tree's restore warm sweep to completion in bounded steps.
void WarmToCompletion(bwtree::BwTree* tree) {
  for (;;) {
    auto remaining = tree->WarmRestoredPages(16);
    ASSERT_TRUE(remaining.ok()) << remaining.status().ToString();
    if (remaining.value() == 0) return;
  }
}

// --- RwNode::Recover: the one restart path -----------------------------------

TEST(RwNodeRecoverTest, ReadsServeBeforeWarmSweepCompletes) {
  RestartFixture f;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  f.Checkpoint();
  for (int i = 500; i < 530; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "suffix").ok());
  }
  f.Crash();

  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  EXPECT_TRUE(rw->recovery().resumed_from_checkpoint);
  bwtree::BwTree* tree = rw->tree();
  EXPECT_GT(tree->WarmRestoredPages(0).value(), 0u)
      << "restore must not be complete yet — that's the point";
  EXPECT_LT(tree->ResidentPageCount(), tree->LeafCount());

  // Demand-paged reads are correct *during* restore: checkpoint state and
  // the replayed suffix both serve before the warm sweep finishes.
  EXPECT_EQ(rw->Get(Key(3)).value(), "v3");
  EXPECT_EQ(rw->Get(Key(499)).value(), "v499");
  EXPECT_EQ(rw->Get(Key(520)).value(), "suffix");
  EXPECT_TRUE(rw->Get("absent").status().IsNotFound());

  std::vector<bwtree::Entry> out;
  bwtree::BwTree::ScanOptions scan;
  scan.start_key = Key(0);
  scan.end_key = Key(10);
  ASSERT_TRUE(rw->Scan(scan, &out).ok());
  EXPECT_EQ(out.size(), 10u);

  // Warm in bounded steps to completion.
  WarmToCompletion(tree);
  EXPECT_EQ(tree->ResidentPageCount(), tree->LeafCount());
  for (int i = 0; i < 530; ++i) {
    ASSERT_TRUE(rw->Get(Key(i)).ok()) << i;
  }
  // Writes resume with non-colliding LSNs/pages.
  for (int i = 530; i < 600; ++i) {
    ASSERT_TRUE(rw->Put(Key(i), "post-restart").ok());
  }
  EXPECT_EQ(rw->Get(Key(599)).value(), "post-restart");
}

TEST(RwNodeRecoverTest, ReplaysOnlySuffixWithCheckpoint) {
  RestartFixture f;
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "payload-payload-payload").ok());
  }
  f.Checkpoint();
  for (int i = 800; i < 830; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "suffix").ok());
  }
  f.Crash();

  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  const RoNode::ReplayStats& p = rw->recovery();
  EXPECT_TRUE(p.resumed_from_checkpoint);
  EXPECT_GT(p.wal_bytes_replayed, 0u);
  EXPECT_LT(p.wal_bytes_replayed, p.total_wal_bytes / 4)
      << "a 30-record suffix of an 830-record WAL must not replay it all";

  // The full-replay baseline (resume disabled) pays the whole stream.
  RoNodeOptions full;
  full.wal_stream = f.opts.wal.stream;
  full.resume_from_checkpoint = false;
  RoNode baseline(f.store.get(), full);
  ASSERT_TRUE(baseline.PollWal().ok());
  EXPECT_FALSE(baseline.ResumedFromCheckpoint());
  EXPECT_GT(baseline.WalBytesReplayed(), 4 * p.wal_bytes_replayed);
  // Both agree.
  EXPECT_EQ(rw->Get(Key(7)).value(),
            baseline.Get(f.opts.tree.tree_id, Key(7)).value());
}

TEST(RwNodeRecoverTest, TimeToFirstReadBoundedAcrossWalSweep) {
  // The acceptance sweep: 1x/4x/16x WAL volume, constant post-checkpoint
  // suffix. Replayed bytes (the deterministic proxy for time-to-first-read)
  // must stay bounded while the WAL grows ~16x.
  uint64_t replayed[3] = {0, 0, 0};
  uint64_t total[3] = {0, 0, 0};
  const int scales[3] = {1, 4, 16};
  for (int s = 0; s < 3; ++s) {
    RestartFixture f;
    for (int i = 0; i < 100 * scales[s]; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(i), "wal-volume-padding-padding").ok());
    }
    f.Checkpoint();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(1'000'000 + i), "suffix").ok());
    }
    f.Crash();
    auto rw = f.Recover();
    ASSERT_NE(rw, nullptr);
    EXPECT_EQ(rw->Get(Key(0)).value(), "wal-volume-padding-padding");
    replayed[s] = rw->recovery().wal_bytes_replayed;
    total[s] = rw->recovery().total_wal_bytes;
  }
  EXPECT_GT(total[2], 8 * total[0]) << "sweep must actually grow the WAL";
  // Bounded: the 16x WAL replays about what the 1x WAL does (same suffix),
  // not 16x more. Allow 3x slack for batch-boundary straddle.
  EXPECT_LT(replayed[2], 3 * replayed[0] + 4096);
  for (int s = 0; s < 3; ++s) {
    EXPECT_LT(replayed[s], total[s]) << "scale " << scales[s];
  }
}

TEST(RwNodeRecoverTest, RecoverReadsOnlySuffixTouchedPages) {
  // bench_restart's store shape: the base volume grows 16x, the suffix of
  // new keys past the checkpoint stays the same. Recovery reads the WAL
  // suffix and the pages it touched; every other page installs
  // demand-paged, so storage reads must not grow with the tree.
  const int scales[3] = {1, 4, 16};
  uint64_t reads[3] = {0, 0, 0};
  size_t leaves[3] = {0, 0, 0};
  for (int s = 0; s < 3; ++s) {
    RestartFixture f;
    for (int i = 0; i < 100 * scales[s]; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(i), "base-volume-payload").ok());
    }
    f.Checkpoint();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(10'000'000 + i), "suffix").ok());
    }
    f.Crash();
    const uint64_t before = f.store->stats().read_ops.Get();
    auto rw = f.Recover();
    ASSERT_NE(rw, nullptr);
    reads[s] = f.store->stats().read_ops.Get() - before;
    leaves[s] = rw->tree()->LeafCount();
    EXPECT_EQ(rw->Get(Key(10'000'049)).value(), "suffix");
  }
  EXPECT_GT(leaves[2], 8 * leaves[0]) << "sweep must actually grow the tree";
  EXPECT_LE(static_cast<double>(reads[2]), 1.5 * static_cast<double>(reads[0]))
      << "recover read_ops 1x/4x/16x: " << reads[0] << "/" << reads[1] << "/"
      << reads[2] << " over " << leaves[0] << "/" << leaves[1] << "/"
      << leaves[2] << " leaves";
}

TEST(RwNodeRecoverTest, DemandPagedPagesTakeWritesSplitsAndGcRelocation) {
  // Small extents, so GC has sealed victims mixing live and dead images.
  RestartFixture f(/*extent_capacity=*/1 << 12);
  cloud::ManualTimeSource clock;
  gc::ExtentUsageTracker tracker(&clock);
  f.store->SetObserver(&tracker);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
    model[Key(i)] = "v" + std::to_string(i);
  }
  f.Checkpoint();
  // Rewrite the first quarter: its pages' first images become garbage.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "w" + std::to_string(i)).ok());
    model[Key(i)] = "w" + std::to_string(i);
  }
  f.Checkpoint();
  f.Crash();

  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  bwtree::BwTree* tree = rw->tree();
  EXPECT_EQ(tree->ResidentPageCount(), 0u)
      << "with an empty suffix, recovery fetches no page";

  // GC relocates the live images of pages that are still non-resident.
  gc::SingleTreeResolver resolver(tree);
  gc::FifoPolicy policy;
  gc::SpaceReclaimer reclaimer(f.store.get(), &resolver, &policy, &tracker,
                               gc::ReclaimOptions{});
  auto cycle = reclaimer.RunCycle(f.opts.tree.base_stream, 100);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_GT(cycle.value().bytes_moved, 0u);
  EXPECT_GT(cycle.value().extents_reclaimed, 0u);
  EXPECT_EQ(tree->ResidentPageCount(), 0u) << "relocation must not fetch";

  // Writes land on a non-resident page until it splits.
  const uint64_t splits = tree->stats().splits.Get();
  const size_t leaf_count = tree->LeafCount();
  for (int j = 0; j < 40; ++j) {
    const std::string key = Key(300) + "/" + std::to_string(j);
    ASSERT_TRUE(rw->Put(key, "split").ok());
    model[key] = "split";
  }
  EXPECT_GT(tree->stats().splits.Get(), splits);
  EXPECT_GT(tree->LeafCount(), leaf_count);
  EXPECT_LT(tree->ResidentPageCount(), tree->LeafCount());

  // Reads demand-load from the relocated images (the victim extents are
  // freed).
  for (const auto& [k, v] : model) ASSERT_EQ(rw->Get(k).value(), v) << k;

  // The relocated images and the split publish; a second restart agrees.
  ASSERT_TRUE(rw->checkpointer()->CheckpointNow().ok());
  rw.reset();
  f.store->SetObserver(nullptr);
  auto again = f.Recover();
  ASSERT_NE(again, nullptr);
  for (const auto& [k, v] : model) ASSERT_EQ(again->Get(k).value(), v) << k;
}

/// 400 puts, a checkpoint, 100 rewrites, a checkpoint, then one FIFO GC
/// cycle on the base stream of `f`'s node, its victims handed to the node's
/// reclaim horizon. Returns the extents the cycle reclaimed.
size_t CheckpointRewriteAndCollect(RestartFixture& f,
                                   gc::ExtentUsageTracker* tracker,
                                   std::map<std::string, std::string>* model) {
  for (int i = 0; i < 400; ++i) {
    EXPECT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
    (*model)[Key(i)] = "v" + std::to_string(i);
  }
  f.Checkpoint();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.rw->Put(Key(i), "w" + std::to_string(i)).ok());
    (*model)[Key(i)] = "w" + std::to_string(i);
  }
  f.Checkpoint();
  gc::SingleTreeResolver resolver(f.rw->tree(),
                                  f.rw->checkpointer()->horizon());
  gc::FifoPolicy policy;
  gc::SpaceReclaimer reclaimer(f.store.get(), &resolver, &policy, tracker,
                               gc::ReclaimOptions{});
  auto cycle = reclaimer.RunCycle(f.opts.tree.base_stream, 100);
  EXPECT_TRUE(cycle.ok()) << cycle.status().ToString();
  return cycle.ok() ? cycle.value().extents_reclaimed : 0;
}

TEST(RwNodeRecoverTest, GcVictimsOutliveACrashBeforeTheNextCheckpoint) {
  // The relocated images reach a manifest only with a later cut; until then
  // the published manifests name the victims, so they must not be freed.
  RestartFixture f(/*extent_capacity=*/1 << 12);
  cloud::ManualTimeSource clock;
  gc::ExtentUsageTracker tracker(&clock);
  f.store->SetObserver(&tracker);
  std::map<std::string, std::string> model;
  const size_t reclaimed = CheckpointRewriteAndCollect(f, &tracker, &model);
  ASSERT_GT(reclaimed, 0u);
  EXPECT_EQ(f.rw->checkpointer()->horizon()->retired_extents().Get(),
            static_cast<int64_t>(reclaimed));
  f.Crash();  // no checkpoint after the cycle

  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  for (const auto& [k, v] : model) {
    auto got = rw->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), v) << k;
  }
  f.store->SetObserver(nullptr);
}

TEST(RwNodeRecoverTest, GcVictimsAreFreedOnceBothSlotsCoverTheRelocation) {
  RestartFixture f(/*extent_capacity=*/1 << 12);
  cloud::ManualTimeSource clock;
  gc::ExtentUsageTracker tracker(&clock);
  f.store->SetObserver(&tracker);
  std::map<std::string, std::string> model;
  const size_t reclaimed = CheckpointRewriteAndCollect(f, &tracker, &model);
  ASSERT_GT(reclaimed, 0u);
  const gc::ReclaimHorizon& horizon = *f.rw->checkpointer()->horizon();
  const uint64_t freed = f.store->stats().extents_freed.Get();

  // One covering manifest: the other slot still names the victims.
  ASSERT_TRUE(f.rw->Put(Key(1000), "a").ok());
  f.Checkpoint();
  EXPECT_EQ(horizon.retired_extents().Get(), static_cast<int64_t>(reclaimed));
  EXPECT_GT(horizon.retired_bytes().Get(), 0);
  EXPECT_EQ(f.store->stats().extents_freed.Get(), freed);
  // /metrics shows what the horizon holds back (this node's checkpointer
  // is the only live one).
  int64_t exported = -1;
  for (const auto& [name, value] :
       MetricsRegistry::Default().TakeSnapshot().gauges) {
    if (name.starts_with("bg3.replication.ckpt") &&
        name.ends_with(".retired_extents")) {
      exported = value;
    }
  }
  EXPECT_EQ(exported, static_cast<int64_t>(reclaimed));
  // The second covering manifest frees them, with no cut of its own.
  const uint64_t cuts = f.rw->checkpointer()->stats().cuts_started.Get();
  ASSERT_TRUE(f.rw->Put(Key(1001), "b").ok());
  f.Checkpoint();
  EXPECT_EQ(f.rw->checkpointer()->stats().cuts_started.Get(), cuts + 1);
  EXPECT_EQ(horizon.retired_extents().Get(), 0);
  EXPECT_EQ(horizon.retired_bytes().Get(), 0);
  EXPECT_EQ(f.store->stats().extents_freed.Get(), freed + reclaimed);
  model[Key(1000)] = "a";
  model[Key(1001)] = "b";

  // Either slot now restarts without the victims: tear the newest.
  const std::string scope = f.rw->checkpointer()->scope();
  const uint64_t newest = f.rw->checkpointer()->epoch();
  f.Crash();
  f.store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, newest),
                       "torn-mid-write");
  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  EXPECT_TRUE(rw->recovery().checkpoint_fell_back);
  for (const auto& [k, v] : model) {
    auto got = rw->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), v) << k;
  }
  f.store->SetObserver(nullptr);
}

TEST(RwNodeRecoverTest, RecoveredNodeMovesImagesAVictimStillHolds) {
  // A crash between the relocation and its covering manifests leaves the
  // restarted node reading images in the victim. That node's own GC must
  // move them again before its horizon frees the victim.
  RestartFixture f(/*extent_capacity=*/1 << 12);
  cloud::ManualTimeSource clock;
  gc::ExtentUsageTracker tracker(&clock);
  f.store->SetObserver(&tracker);
  std::map<std::string, std::string> model;
  ASSERT_GT(CheckpointRewriteAndCollect(f, &tracker, &model), 0u);
  f.Crash();

  f.rw = f.Recover();
  ASSERT_NE(f.rw, nullptr);
  gc::SingleTreeResolver resolver(f.rw->tree(),
                                  f.rw->checkpointer()->horizon());
  gc::FifoPolicy policy;
  gc::ReclaimOptions always;
  always.target_dead_ratio = 0;
  gc::SpaceReclaimer reclaimer(f.store.get(), &resolver, &policy, &tracker,
                               always);
  auto cycle = reclaimer.RunCycle(f.opts.tree.base_stream, 100);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_GT(cycle.value().extents_reclaimed, 0u);
  // Two covering manifests free every victim of the restarted node.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(f.rw->Put(Key(2000 + round), "c").ok());
    model[Key(2000 + round)] = "c";
    f.Checkpoint();
  }
  EXPECT_EQ(f.rw->checkpointer()->horizon()->retired_extents().Get(), 0);
  f.Crash();

  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  for (const auto& [k, v] : model) {
    auto got = rw->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), v) << k;
  }
  f.store->SetObserver(nullptr);
}

TEST(RwNodeRecoverTest, RecoverWithoutCheckpointFallsBackToFullReplay) {
  RestartFixture f;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "x").ok());
  f.Crash();
  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  EXPECT_FALSE(rw->recovery().resumed_from_checkpoint);
  EXPECT_EQ(rw->Get(Key(42)).value(), "x");
}

// --- deterministic crash-point schedules -------------------------------------
//
// One-shot faults armed at a seeded index of every cloud-I/O operation
// class the restart path crosses (WAL tail, manifest get, page read, append)
// — recovery's retry budgets must absorb each and still reach model state.

class CrashPointScheduleTest : public ::testing::TestWithParam<cloud::FaultOp> {
};

using cloud::FaultOpName;

TEST_P(CrashPointScheduleTest, RecoveryAbsorbsFaultAtEveryBoundary) {
  const cloud::FaultOp op = GetParam();
  const uint64_t seed = test::AnnouncedSeed(
      (std::string("CrashPointSchedule/") + FaultOpName(op)).c_str(),
      0xC9A5 + static_cast<uint64_t>(op));
  // Several seeded schedules per boundary class: each arms the one-shot
  // fault at a different operation index, so successive runs crash the
  // restart path at successively later I/O boundaries.
  for (int schedule = 0; schedule < 4; ++schedule) {
    Random rng(seed + schedule * 0x9E3779B97F4A7C15ull);
    RestartFixture f;
    std::map<std::string, std::string> model;
    for (int i = 0; i < 200; ++i) {
      const std::string v = "v" + std::to_string(rng.Next() % 100);
      ASSERT_TRUE(f.rw->Put(Key(i), v).ok());
      model[Key(i)] = v;
    }
    f.Checkpoint();
    for (int i = 200; i < 240; ++i) {
      const std::string v = "s" + std::to_string(rng.Next() % 100);
      ASSERT_TRUE(f.rw->Put(Key(i), v).ok());
      model[Key(i)] = v;
    }
    f.Crash();

    cloud::FaultInjector fi(cloud::FaultInjectorOptions{.seed = seed});
    f.store->SetFaultInjector(&fi);
    const uint64_t at = rng.Next() % 8;  // early boundaries of the class
    fi.Arm(op, cloud::FaultClass::kTransientError, fi.OpCount(op) + at);

    auto recovered = RwNode::Recover(f.store.get(), f.opts);
    ASSERT_TRUE(recovered.ok())
        << FaultOpName(op) << " schedule=" << schedule << " " << fi.ToString();
    auto rw = recovered.take();
    // Demand-paged reads and the warm sweep run under the fault too.
    for (const auto& [k, v] : model) {
      ASSERT_EQ(rw->Get(k).value(), v)
          << FaultOpName(op) << " schedule=" << schedule;
    }
    WarmToCompletion(rw->tree());
    f.store->SetFaultInjector(nullptr);
    for (const auto& [k, v] : model) {
      ASSERT_EQ(rw->Get(k).value(), v) << FaultOpName(op);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBoundaries, CrashPointScheduleTest,
                         ::testing::Values(cloud::FaultOp::kAppend,
                                           cloud::FaultOp::kRead,
                                           cloud::FaultOp::kManifestGet,
                                           cloud::FaultOp::kTail),
                         [](const ::testing::TestParamInfo<cloud::FaultOp>& i) {
                           return FaultOpName(i.param);
                         });

TEST(CrashPointScheduleTest, MidCheckpointFaultKeepsCutOpenThenPublishes) {
  // Faults hit, not absorbed; two pages per round.
  RestartFixture f(1 << 16, /*max_attempts=*/1, /*max_pages_per_round=*/2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  }
  Checkpointer& ckpt = *f.rw->checkpointer();
  ASSERT_TRUE(ckpt.Step().ok());  // begin the cut
  ASSERT_TRUE(ckpt.CutInProgress());

  cloud::FaultInjector fi;
  f.store->SetFaultInjector(&fi);
  fi.ArmNext(cloud::FaultOp::kAppend, cloud::FaultClass::kTransientError);
  EXPECT_FALSE(ckpt.Step().ok()) << "un-retried flush must surface the fault";
  EXPECT_TRUE(ckpt.CutInProgress()) << "a failed step abandons the increment, "
                                       "not the cut";
  EXPECT_GT(ckpt.stats().step_errors.Get(), 0u);
  EXPECT_EQ(ckpt.epoch(), 0u) << "no manifest may publish from a torn cut";

  // Substrate heals: the same cut drains and publishes.
  f.store->SetFaultInjector(nullptr);
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  EXPECT_EQ(ckpt.epoch(), 1u);

  // And the checkpoint it eventually published is a valid recovery source.
  f.Crash();
  auto rw = f.Recover();
  ASSERT_NE(rw, nullptr);
  EXPECT_TRUE(rw->recovery().resumed_from_checkpoint);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(rw->Get(Key(i)).value(), "v") << i;
  }
}

// --- GraphDB on the WAL-backed RW node --------------------------------------

core::GraphDBOptions CheckpointedDbOptions() {
  core::GraphDBOptions opts;
  opts.checkpoint.enabled = true;
  opts.checkpoint.max_pages_per_round = 8;
  return opts;
}

TEST(GraphDbCheckpointTest, CheckpointThenRestoreServesGraph) {
  auto store = std::make_unique<cloud::CloudStore>();
  {
    core::GraphDB db(store.get(), CheckpointedDbOptions());
    for (int v = 0; v < 50; ++v) {
      ASSERT_TRUE(db.AddVertex(v, "props-" + std::to_string(v)).ok());
    }
    for (int e = 0; e < 200; ++e) {
      ASSERT_TRUE(db.AddEdge(e % 10, 1, 100 + e, "edge", e).ok());
    }
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
    EXPECT_GE(db.checkpointer()->epoch(), 1u);
    EXPECT_GT(db.checkpointer()->stats().pages_flushed.Get(), 0u);
    EXPECT_GT(db.checkpointer()->stats().manifests_written.Get(), 0u);
  }  // "crash": all volatile state gone

  core::GraphDB db(store.get(), CheckpointedDbOptions());
  EXPECT_TRUE(db.RestoredFromCheckpoint());
  EXPECT_FALSE(db.CheckpointFellBack());
  for (int v = 0; v < 50; ++v) {
    EXPECT_EQ(db.GetVertex(v).value(), "props-" + std::to_string(v)) << v;
  }
  for (int e = 0; e < 200; e += 13) {
    EXPECT_EQ(db.GetEdge(e % 10, 1, 100 + e).value(), "edge") << e;
  }
  std::vector<graph::Neighbor> nbrs;
  ASSERT_TRUE(db.GetNeighbors(3, 1, 1000, &nbrs).ok());
  EXPECT_EQ(nbrs.size(), 20u);

  // The restore queue drains; warmed pages account replay bytes.
  auto remaining = db.WarmRestoredPages(100000);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining.value(), 0u);

  // The restored instance checkpoints onward from the restored epoch.
  ASSERT_TRUE(db.AddVertex(999, "after-restore").ok());
  const uint64_t epoch = db.checkpointer()->epoch();
  ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
  EXPECT_GT(db.checkpointer()->epoch(), epoch);
}

TEST(GraphDbCheckpointTest, WritesPastCheckpointSurviveThroughTheWal) {
  // Kill after ack: everything acknowledged after the last checkpoint —
  // vertices, edges, a delete and one owner's split-out — lives only in
  // the WAL suffix when the DB is destroyed, and must all be served after
  // the reopen.
  auto store = std::make_unique<cloud::CloudStore>();
  core::GraphDBOptions opts = CheckpointedDbOptions();
  opts.forest.split_out_threshold = 20;
  {
    core::GraphDB db(store.get(), opts);
    ASSERT_TRUE(db.AddVertex(1, "checkpointed").ok());
    for (int e = 0; e < 10; ++e) {
      ASSERT_TRUE(db.AddEdge(5, 1, 100 + e, "pre", e + 1).ok());
    }
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
    const uint64_t epoch = db.checkpointer()->epoch();

    ASSERT_TRUE(db.AddVertex(2, "after").ok());
    for (int e = 10; e < 30; ++e) {  // owner 5 crosses the threshold
      ASSERT_TRUE(db.AddEdge(5, 1, 100 + e, "post", e + 1).ok());
    }
    ASSERT_EQ(db.forest()->DedicatedTreeCount(), 1u) << "owner 5 split out";
    ASSERT_TRUE(db.AddEdge(6, 1, 7, "small", 1).ok());
    ASSERT_TRUE(db.DeleteEdge(5, 1, 103).ok());
    ASSERT_TRUE(db.DeleteEdge(6, 1, 7).ok());
    ASSERT_TRUE(db.AddEdge(6, 1, 8, "kept", 2).ok());
    ASSERT_EQ(db.checkpointer()->epoch(), epoch) << "no checkpoint since";
  }  // destroyed without a checkpoint: only the WAL holds the suffix

  core::GraphDB db(store.get(), opts);
  EXPECT_TRUE(db.RestoredFromCheckpoint());
  EXPECT_EQ(db.forest()->DedicatedTreeCount(), 1u);
  EXPECT_EQ(db.GetVertex(1).value(), "checkpointed");
  EXPECT_EQ(db.GetVertex(2).value(), "after");
  for (int e = 0; e < 30; ++e) {
    auto got = db.GetEdge(5, 1, 100 + e);
    if (e == 3) {
      EXPECT_TRUE(got.status().IsNotFound()) << "deleted edge came back";
      continue;
    }
    ASSERT_TRUE(got.ok()) << e << " " << got.status().ToString();
    EXPECT_EQ(got.value(), e < 10 ? "pre" : "post") << e;
  }
  std::vector<graph::Neighbor> nbrs;
  ASSERT_TRUE(db.GetNeighbors(5, 1, 1000, &nbrs).ok());
  EXPECT_EQ(nbrs.size(), 29u);
  EXPECT_TRUE(db.GetEdge(6, 1, 7).status().IsNotFound());
  EXPECT_EQ(db.GetEdge(6, 1, 8).value(), "kept");
}

TEST(GraphDbCheckpointTest, TornNewestSlotFallsBackToPreviousEpoch) {
  auto store = std::make_unique<cloud::CloudStore>();
  uint64_t epoch2 = 0;
  std::string scope;
  {
    core::GraphDB db(store.get(), CheckpointedDbOptions());
    scope = db.checkpointer()->scope();
    ASSERT_TRUE(db.AddVertex(1, "epoch1").ok());
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
    ASSERT_TRUE(db.AddVertex(2, "epoch2").ok());
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
    epoch2 = db.checkpointer()->epoch();
  }
  // Tear the newest manifest slot: restore must fall back one epoch, and
  // the longer WAL suffix past it still holds the newer write.
  store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, epoch2), "torn-mid-write");
  core::GraphDB db(store.get(), CheckpointedDbOptions());
  EXPECT_TRUE(db.RestoredFromCheckpoint());
  EXPECT_TRUE(db.CheckpointFellBack());
  EXPECT_EQ(db.GetVertex(1).value(), "epoch1");
  EXPECT_EQ(db.GetVertex(2).value(), "epoch2");
}

TEST(GraphDbCheckpointTest, BothSlotsTornReplaysTheWholeWal) {
  auto store = std::make_unique<cloud::CloudStore>();
  std::string scope;
  {
    core::GraphDB db(store.get(), CheckpointedDbOptions());
    scope = db.checkpointer()->scope();
    ASSERT_TRUE(db.AddVertex(1, "x").ok());
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
  }
  store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, 0), "torn");
  store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, 1), "torn");
  core::GraphDB db(store.get(), CheckpointedDbOptions());
  EXPECT_FALSE(db.RestoredFromCheckpoint());
  EXPECT_EQ(db.GetVertex(1).value(), "x") << "full replay keeps every write";
  ASSERT_TRUE(db.AddVertex(7, "after").ok());
  EXPECT_EQ(db.GetVertex(7).value(), "after");
}

TEST(GraphDbCheckpointTest, BackgroundThreadCheckpointsContinuously) {
  auto store = std::make_unique<cloud::CloudStore>();
  core::GraphDBOptions opts = CheckpointedDbOptions();
  opts.checkpoint.interval_ms = 1;
  core::GraphDB db(store.get(), opts);
  db.checkpointer()->Start();
  for (int v = 0; v < 300; ++v) {
    ASSERT_TRUE(db.AddVertex(v, "bg").ok());
  }
  // The decoupled thread must reach a durable manifest on its own.
  for (int spin = 0; spin < 2000 && db.checkpointer()->epoch() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  db.checkpointer()->Stop();
  EXPECT_GT(db.checkpointer()->epoch(), 0u);
  EXPECT_GT(db.checkpointer()->stats().manifests_written.Get(), 0u);
}

TEST(GraphDbCheckpointTest, SplitOutDuringCutKeepsPreCutEdges) {
  // An owner that splits out to a dedicated tree after a cut began: INIT's
  // images lose its edges, while the new tree had no page in the cut. The
  // commit must flush that tree before the manifest routes the owner to it.
  auto store = std::make_unique<cloud::CloudStore>();
  core::GraphDBOptions opts = CheckpointedDbOptions();
  opts.forest.split_out_threshold = 64;
  {
    core::GraphDB db(store.get(), opts);
    for (int e = 0; e < 40; ++e) {
      ASSERT_TRUE(db.AddEdge(7, 1, 1000 + e, "pre", e + 1).ok());
    }
    ASSERT_TRUE(db.checkpointer()->Step().ok());  // begins the cut
    ASSERT_TRUE(db.checkpointer()->CutInProgress());
    for (int e = 40; e < 100; ++e) {
      ASSERT_TRUE(db.AddEdge(7, 1, 1000 + e, "post", e + 1).ok());
    }
    ASSERT_GT(db.forest()->TreeCount(), 1u) << "owner 7 must split out";
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
  }
  core::GraphDB db(store.get(), opts);
  ASSERT_TRUE(db.RestoredFromCheckpoint());
  for (int e = 0; e < 100; ++e) {
    auto got = db.GetEdge(7, 1, 1000 + e);
    ASSERT_TRUE(got.ok()) << e << " " << got.status().ToString();
    EXPECT_EQ(got.value(), e < 40 ? "pre" : "post") << e;
  }
}

TEST(GraphDbCheckpointTest, ConcurrentWritersKeepEveryAckedEdge) {
  // Writers race checkpoint cuts: the one the test begins and commits, and
  // the group flushes their own writes trigger. Every acknowledged edge
  // must survive the restore, whether the images or the WAL suffix carry
  // it, and no edge that was never written may appear. Small leaves and a
  // low split-out threshold put leaf splits and owner split-outs inside the
  // cuts.
  constexpr int kWriters = 4;
  constexpr int kOwnersPerWriter = 6;
  constexpr int kMaxEdgesPerWriter = 3000;
  // Writer w owns vertices [w * kOwnersPerWriter, (w + 1) * kOwnersPerWriter)
  // and its i-th edge is owner(w, i) -> 10000 + i: a distinct edge per i.
  auto owner = [](int w, int i) {
    return static_cast<graph::VertexId>(w * kOwnersPerWriter +
                                        i % kOwnersPerWriter);
  };
  auto dst = [](int i) { return static_cast<graph::VertexId>(10000 + i); };
  auto store = std::make_unique<cloud::CloudStore>();
  core::GraphDBOptions opts = CheckpointedDbOptions();
  opts.forest.split_out_threshold = 12;
  opts.forest.tree_options.max_leaf_entries = 8;
  std::array<std::atomic<int>, kWriters> issued{};
  std::array<std::atomic<int>, kWriters> acked{};
  {
    core::GraphDB db(store.get(), opts);
    std::atomic<bool> stop{false};
    std::atomic<int> write_errors{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kMaxEdgesPerWriter && !stop.load(); ++i) {
          issued[w].store(i + 1);
          if (!db.AddEdge(owner(w, i), 1, dst(i), "e", i + 1).ok()) {
            write_errors.fetch_add(1);
            return;
          }
          acked[w].store(i + 1);
        }
      });
    }
    auto wait_for_acks = [&](const std::array<int, kWriters>& floor) {
      for (int w = 0; w < kWriters; ++w) {
        while (acked[w].load() < std::min(floor[w], kMaxEdgesPerWriter) &&
               write_errors.load() == 0) {
          std::this_thread::yield();
        }
      }
    };
    wait_for_acks({100, 100, 100, 100});
    Status cut = db.checkpointer()->Step();  // begins a cut
    // Writes keep landing while the cut's pages flush and it commits.
    std::array<int, kWriters> past_cut{};
    for (int w = 0; w < kWriters; ++w) past_cut[w] = acked[w].load() + 50;
    wait_for_acks(past_cut);
    Status commit = db.checkpointer()->CheckpointNow();
    // More writes land after the commit: only the WAL suffix holds them.
    for (int w = 0; w < kWriters; ++w) past_cut[w] = acked[w].load() + 20;
    wait_for_acks(past_cut);
    stop.store(true);
    for (std::thread& t : writers) t.join();
    ASSERT_EQ(write_errors.load(), 0);
    ASSERT_TRUE(cut.ok()) << cut.ToString();
    ASSERT_TRUE(commit.ok()) << commit.ToString();
    ASSERT_GT(db.forest()->TreeCount(), 1u) << "owners must split out";
  }

  core::GraphDB db(store.get(), opts);
  ASSERT_TRUE(db.RestoredFromCheckpoint());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < acked[w].load(); ++i) {
      auto got = db.GetEdge(owner(w, i), 1, dst(i));
      ASSERT_TRUE(got.ok()) << "writer " << w << " acked edge " << i << ": "
                            << got.status().ToString();
      EXPECT_EQ(got.value(), "e");
    }
    for (int o = 0; o < kOwnersPerWriter; ++o) {
      const graph::VertexId v = owner(w, o);
      std::vector<graph::Neighbor> nbrs;
      ASSERT_TRUE(db.GetNeighbors(v, 1, 1'000'000, &nbrs).ok());
      for (const graph::Neighbor& n : nbrs) {
        const int i = static_cast<int>(n.dst) - 10000;
        EXPECT_TRUE(i >= 0 && i < issued[w].load() && owner(w, i) == v)
            << "owner " << v << " has edge to " << n.dst
            << " that was never written";
      }
    }
  }
}

/// A durable DB with FIFO GC over 4-KiB extents.
core::GraphDBOptions CollectedDbOptions() {
  core::GraphDBOptions opts = CheckpointedDbOptions();
  opts.gc_policy = core::GcPolicyKind::kFifo;
  return opts;
}

std::unique_ptr<cloud::CloudStore> SmallExtentStore() {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 12;
  return std::make_unique<cloud::CloudStore>(copts);
}

// A durable DB's GC cycle truncates the WAL before the older manifest
// slot's cursor, so a restart from that slot still finds its suffix.
TEST(GraphDbCheckpointTest, GcCycleTruncatesTheWalBehindTheOlderSlot) {
  auto store = SmallExtentStore();
  std::string scope;
  uint64_t newest = 0;
  {
    core::GraphDB db(store.get(), CheckpointedDbOptions());
    scope = db.checkpointer()->scope();
    for (int e = 0; e < 600; ++e) {
      ASSERT_TRUE(db.AddEdge(e % 10, 1, 100 + e, "v", e + 1).ok());
      if (e == 199 || e == 399) {
        ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
      }
    }
    ASSERT_TRUE(db.RunGcCycle().ok());
    EXPECT_GT(db.checkpointer()->stats().wal_extents_truncated.Get(), 0u);
    newest = db.checkpointer()->epoch();
  }
  store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, newest),
                     "torn-mid-write");
  core::GraphDB db(store.get(), CheckpointedDbOptions());
  EXPECT_TRUE(db.CheckpointFellBack());
  for (int e = 0; e < 600; ++e) {
    auto got = db.GetEdge(e % 10, 1, 100 + e);
    ASSERT_TRUE(got.ok()) << e << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v") << e;
  }
}

TEST(GraphDbCheckpointTest, GcBeforeADestroyKeepsEveryEdge) {
  auto store = SmallExtentStore();
  {
    core::GraphDB db(store.get(), CollectedDbOptions());
    for (int e = 0; e < 400; ++e) {
      ASSERT_TRUE(db.AddEdge(e % 10, 1, 100 + e, "v", e + 1).ok());
    }
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
    for (int e = 0; e < 100; ++e) {
      ASSERT_TRUE(db.AddEdge(e % 10, 1, 100 + e, "w", e + 1).ok());
    }
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
    ASSERT_TRUE(db.RunGcCycle().ok());
    ASSERT_GT(db.reclaimer()->totals().extents_reclaimed, 0u);
  }  // destroyed with no checkpoint after the cycle

  core::GraphDB db(store.get(), CollectedDbOptions());
  for (int e = 0; e < 400; ++e) {
    auto got = db.GetEdge(e % 10, 1, 100 + e);
    ASSERT_TRUE(got.ok()) << e << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), e < 100 ? "w" : "v") << e;
  }
}

TEST(GraphDbCheckpointTest, BackgroundGcUnderWritersKeepsEveryAckedEdge) {
  // The maintenance thread collects while writers' group flushes cut; the
  // DB is then destroyed with no final checkpoint.
  constexpr int kWriters = 3;
  constexpr int kEdgesPerWriter = 1500;
  auto store = SmallExtentStore();
  core::GraphDBOptions opts = CollectedDbOptions();
  opts.forest.tree_options.max_leaf_entries = 8;
  opts.gc_target_dead_ratio = 0;  // every cycle moves victims, to the end
  std::array<std::atomic<int>, kWriters> acked{};
  uint64_t reclaimed = 0;
  {
    core::GraphDB db(store.get(), opts);
    db.StartMaintenance(1);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kEdgesPerWriter; ++i) {
          // Rewrites of earlier edges leave garbage for GC to collect.
          const int e = i % 3 == 2 ? i / 2 : i;
          if (!db.AddEdge(w * 8 + e % 8, 1, 1000 + e, std::to_string(i),
                          i + 1)
                   .ok()) {
            return;
          }
          acked[w].store(i + 1);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    // Let the maintenance thread run cycles past the last cut.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    db.StopMaintenance();
    reclaimed = db.reclaimer()->totals().extents_reclaimed;
  }
  EXPECT_GT(reclaimed, 0u) << "GC must relocate under the writers";

  core::GraphDB db(store.get(), opts);
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_EQ(acked[w].load(), kEdgesPerWriter) << "writer " << w;
    // The newest write of each edge wins.
    std::map<int, int> newest;
    for (int i = 0; i < kEdgesPerWriter; ++i) {
      newest[i % 3 == 2 ? i / 2 : i] = i;
    }
    for (const auto& [e, i] : newest) {
      auto got = db.GetEdge(w * 8 + e % 8, 1, 1000 + e);
      ASSERT_TRUE(got.ok()) << "writer " << w << " edge " << e << ": "
                            << got.status().ToString();
      EXPECT_EQ(got.value(), std::to_string(i)) << "writer " << w;
    }
  }
}

TEST(GraphDbCheckpointTest, MaintenanceDrainsRestoreQueue) {
  auto store = std::make_unique<cloud::CloudStore>();
  {
    core::GraphDB db(store.get(), CheckpointedDbOptions());
    for (int e = 0; e < 300; ++e) {
      ASSERT_TRUE(db.AddEdge(e % 10, 1, 100 + e, "edge", e + 1).ok());
    }
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
  }
  core::GraphDB db(store.get(), CheckpointedDbOptions());
  ASSERT_TRUE(db.RestoredFromCheckpoint());
  ASSERT_GT(db.WarmRestoredPages(0).value(), 0u) << "restore must queue pages";
  EXPECT_EQ(db.checkpoint_replay_bytes(), 0u);
  // The maintenance thread alone drains the queue.
  db.StartMaintenance(1);
  for (int spin = 0; spin < 5000 && db.WarmRestoredPages(0).value() != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  db.StopMaintenance();
  EXPECT_EQ(db.WarmRestoredPages(0).value(), 0u);
  EXPECT_GT(db.checkpoint_replay_bytes(), 0u);
}

TEST(GraphDbCheckpointTest, AbortedSplitOutIsNeverRouted) {
  // A WAL append fails partway through a split-out's copy. The write that
  // triggered it reports the failure and the owner stays INIT-resident.
  // After a reopen the half-copied tree — its records are in the WAL, but
  // it has no directory row — is not routed, every acknowledged edge is
  // served from INIT, and a later split-out of the owner succeeds.
  cloud::CloudStoreOptions sopts;
  sopts.retry.max_attempts = 1;  // one injected fault fails one append
  auto store = std::make_unique<cloud::CloudStore>(sopts);
  core::GraphDBOptions opts = CheckpointedDbOptions();
  opts.forest.split_out_threshold = 20;
  auto expect_acked_edges = [](core::GraphDB& db, int edges) {
    for (int e = 0; e < edges; ++e) {
      auto got = db.GetEdge(9, 1, 100 + e);
      ASSERT_TRUE(got.ok()) << e << " " << got.status().ToString();
      EXPECT_EQ(got.value(), "v") << e;
    }
  };
  {
    core::GraphDB db(store.get(), opts);
    for (int e = 0; e < 20; ++e) {
      ASSERT_TRUE(db.AddEdge(9, 1, 100 + e, "v", e + 1).ok());
    }
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
    cloud::FaultInjector fi;
    store->SetFaultInjector(&fi);
    // The 21st edge's appends (0-based, one WAL record each): its own
    // record (0), the new tree's TreeInit (1), then one per copied entry
    // (2 onward). Index 6 fails the fifth of the 21 copied entries.
    fi.Arm(cloud::FaultOp::kAppend, cloud::FaultClass::kTransientError, 6);
    EXPECT_FALSE(db.AddEdge(9, 1, 120, "v", 21).ok());
    store->SetFaultInjector(nullptr);
    EXPECT_EQ(fi.stats().transient_errors.Get(), 1u);
    EXPECT_EQ(db.forest()->DedicatedTreeCount(), 0u);
    expect_acked_edges(db, 20);
  }
  {
    core::GraphDB db(store.get(), opts);
    EXPECT_EQ(db.forest()->DedicatedTreeCount(), 0u)
        << "the aborted split-out's tree must not be routed";
    expect_acked_edges(db, 20);
    // Owner counts restart from zero: 21 more writes split the owner out.
    for (int e = 20; e < 41; ++e) {
      ASSERT_TRUE(db.AddEdge(9, 1, 100 + e, "v", e + 1).ok());
    }
    EXPECT_EQ(db.forest()->DedicatedTreeCount(), 1u);
  }
  core::GraphDB db(store.get(), opts);
  EXPECT_EQ(db.forest()->DedicatedTreeCount(), 1u);
  EXPECT_EQ(db.forest()->ResolveTree(1), nullptr)
      << "the aborted tree's id is never handed out again";
  expect_acked_edges(db, 41);
  std::vector<graph::Neighbor> nbrs;
  ASSERT_TRUE(db.GetNeighbors(9, 1, 1000, &nbrs).ok());
  EXPECT_EQ(nbrs.size(), 41u);
}

TEST(GraphDbCheckpointTest, ReadsOfUnknownOwnersAfterReopenAllocateNothing) {
  // After a reopen, INIT-resident owners have entries but no owner state
  // until written. A read of an owner without state must not create one:
  // read-only traffic for absent vertices would grow the owner table
  // without bound.
  auto store = std::make_unique<cloud::CloudStore>();
  {
    core::GraphDB db(store.get(), CheckpointedDbOptions());
    for (int e = 0; e < 20; ++e) {
      ASSERT_TRUE(db.AddEdge(e % 4, 1, 100 + e, "v", e + 1).ok());
    }
  }
  core::GraphDB db(store.get(), CheckpointedDbOptions());
  std::vector<graph::Neighbor> nbrs;
  const auto read_unknown = [&db, &nbrs](int first, int count) {
    for (int v = first; v < first + count; ++v) {
      EXPECT_TRUE(db.GetEdge(v, 1, 100).status().IsNotFound()) << v;
      nbrs.clear();
      ASSERT_TRUE(db.GetNeighbors(v, 1, 10, &nbrs).ok());
      EXPECT_TRUE(nbrs.empty()) << v;
    }
  };
  read_unknown(1000, 100);  // pages in whatever the reads touch
  const size_t before = db.forest()->ApproxMemoryBytes();
  read_unknown(2000, 5000);
  EXPECT_EQ(db.forest()->ApproxMemoryBytes(), before);
  // The recovered owners are still served, from INIT, without state.
  nbrs.clear();
  ASSERT_TRUE(db.GetNeighbors(2, 1, 100, &nbrs).ok());
  EXPECT_EQ(nbrs.size(), 5u);
  EXPECT_EQ(db.GetEdge(3, 1, 103).value(), "v");
  EXPECT_EQ(db.forest()->ApproxMemoryBytes(), before);
}

TEST(GraphDbCheckpointTest, FirstGcAfterRestartKeepsUnexpiredTtlData) {
  // The reopened DB's usage tracker never saw the extents written before
  // the restart. Their TTL deadlines must not count from time zero, or the
  // first GC cycle frees every extent and loses acknowledged edges.
  constexpr uint64_t kHourUs = 3'600ull * 1'000'000;
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 4 << 10;
  auto store = std::make_unique<cloud::CloudStore>(copts);
  cloud::ManualTimeSource clock;
  clock.SetUs(10 * kHourUs);
  core::GraphDBOptions opts = CheckpointedDbOptions();
  opts.edge_ttl_us = kHourUs;
  opts.time_source = &clock;
  {
    core::GraphDB db(store.get(), opts);
    for (int e = 0; e < 400; ++e) {
      ASSERT_TRUE(db.AddEdge(e % 10, 1, 100 + e, "edge", 0).ok());
    }
    ASSERT_TRUE(db.checkpointer()->CheckpointNow().ok());
  }
  clock.AdvanceUs(1'000'000);
  core::GraphDB db(store.get(), opts);
  ASSERT_TRUE(db.RunGcCycle().ok());
  EXPECT_EQ(db.reclaimer()->totals().extents_expired, 0u);
  for (int src = 0; src < 10; ++src) {
    std::vector<graph::Neighbor> nbrs;
    ASSERT_TRUE(db.GetNeighbors(src, 1, 1000, &nbrs).ok()) << src;
    EXPECT_EQ(nbrs.size(), 40u) << src;
  }
  // Late by at most the downtime: once the hour has passed, they expire.
  clock.AdvanceUs(kHourUs);
  ASSERT_TRUE(db.RunGcCycle().ok());
  EXPECT_GT(db.reclaimer()->totals().extents_expired, 0u);
}

// --- cluster wiring ----------------------------------------------------------

TEST(ClusterCheckpointTest, LeaderRecoveryResumesFromCheckpoint) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 512;  // small extents so truncation frees some
  cloud::CloudStore store(copts);
  ClusterOptions opts;
  opts.partitions = 2;
  opts.followers_per_partition = 1;
  Bg3Cluster cluster(&store, opts);
  ASSERT_NE(cluster.checkpointer(0), nullptr);
  ASSERT_NE(cluster.checkpointer(1), nullptr);

  // Two checkpoints: the WAL before the older slot's cursor is reclaimable.
  for (int half = 0; half < 2; ++half) {
    for (int i = half * 200; i < (half + 1) * 200; ++i) {
      ASSERT_TRUE(cluster.Put(Key(i), "v" + std::to_string(i)).ok());
    }
    for (int p = 0; p < cluster.partitions(); ++p) {
      ASSERT_TRUE(cluster.checkpointer(p)->CheckpointNow().ok());
    }
  }
  for (int i = 400; i < 450; ++i) {
    ASSERT_TRUE(cluster.Put(Key(i), "suffix").ok());
  }
  // Followers consume the WAL, then the covered prefix is reclaimed.
  for (int i = 0; i < 450; i += 50) {
    ASSERT_TRUE(cluster.Get(Key(i)).ok());
  }
  size_t freed = 0;
  for (int p = 0; p < cluster.partitions(); ++p) freed += cluster.TruncateWal(p);
  EXPECT_GT(freed, 0u) << "checkpoints must unlock WAL truncation";

  // Leaders crash and recover from checkpoint + (possibly truncated) WAL.
  for (int p = 0; p < cluster.partitions(); ++p) {
    ASSERT_TRUE(cluster.CrashAndRecoverLeader(p).ok()) << p;
    EXPECT_NE(cluster.checkpointer(p), nullptr)
        << "recovered leader must get a fresh checkpointer";
  }
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(cluster.GetFromLeader(Key(i)).value(), "v" + std::to_string(i));
  }
  for (int i = 400; i < 450; ++i) {
    EXPECT_EQ(cluster.GetFromLeader(Key(i)).value(), "suffix");
  }
  // Followers (old cursors) and writes keep working after recovery.
  for (int i = 450; i < 470; ++i) {
    ASSERT_TRUE(cluster.Put(Key(i), "post").ok());
  }
  for (int i = 0; i < 470; i += 7) {
    EXPECT_TRUE(cluster.Get(Key(i)).ok()) << i;
  }
}

TEST(ClusterCheckpointTest, FlushAllLeavesNoMutationToReplay) {
  // FlushAll is a checkpoint on every leader: leader recovery and a
  // restarted follower resume from its manifest and replay no mutation.
  cloud::CloudStore store;
  ClusterOptions opts;
  opts.partitions = 2;
  opts.followers_per_partition = 2;
  Bg3Cluster cluster(&store, opts);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(cluster.Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.FlushAll().ok());
  for (int p = 0; p < cluster.partitions(); ++p) {
    // RwNode::Recover materializes its tree through an RO view built
    // exactly like this one.
    RoNodeOptions ro;
    ro.wal_stream = cluster.leader(p)->options().wal.stream;
    ro.cache_capacity_pages = ~0ull;
    RoNode view(&store, ro);
    ASSERT_TRUE(view.PollWal().ok());
    EXPECT_TRUE(view.ResumedFromCheckpoint()) << p;
    EXPECT_EQ(view.stats().wal_mutations.Get(), 0u) << p;
    ASSERT_TRUE(cluster.CrashAndRecoverLeader(p).ok()) << p;

    ASSERT_TRUE(cluster.RestartFollower(p, 1).ok()) << p;
    RoNode* follower = cluster.follower(p, 1);
    ASSERT_TRUE(follower->PollWal().ok());
    EXPECT_TRUE(follower->ResumedFromCheckpoint()) << p;
    EXPECT_EQ(follower->stats().wal_mutations.Get(), 0u) << p;
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(cluster.GetFromLeader(Key(i)).value(), "v" + std::to_string(i));
    EXPECT_EQ(cluster.Get(Key(i)).value(), "v" + std::to_string(i));
  }
}

TEST(ClusterCheckpointTest, BackgroundCheckpointersRunUnderLoad) {
  cloud::CloudStore store;
  ClusterOptions opts;
  opts.partitions = 2;
  opts.leader.checkpoint.interval_ms = 1;
  Bg3Cluster cluster(&store, opts);
  cluster.StartCheckpointers();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(cluster.Put(Key(i), "load").ok());
  }
  for (int spin = 0; spin < 2000; ++spin) {
    bool all = true;
    for (int p = 0; p < cluster.partitions(); ++p) {
      all &= cluster.checkpointer(p)->epoch() > 0;
    }
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.StopCheckpointers();
  for (int p = 0; p < cluster.partitions(); ++p) {
    EXPECT_GT(cluster.checkpointer(p)->epoch(), 0u) << p;
  }
  for (int i = 0; i < 500; i += 17) {
    EXPECT_EQ(cluster.GetFromLeader(Key(i)).value(), "load") << i;
  }
}

TEST(ClusterCheckpointTest, CheckpointerFollowsTheLeader) {
  // Every leader owns its checkpointer. Promotion stops the deposed
  // leader's thread and the new leader arrives with its own, already
  // checkpointed by its install-time cut.
  cloud::CloudStore store;
  ClusterOptions opts;
  opts.partitions = 1;
  opts.followers_per_partition = 2;
  opts.leader.checkpoint.interval_ms = 1;
  Bg3Cluster cluster(&store, opts);
  Checkpointer* first = cluster.checkpointer(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, cluster.leader(0)->checkpointer());
  cluster.StartCheckpointers();
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(cluster.Put(Key(i), "v").ok());

  ASSERT_TRUE(cluster.PromoteFollower(0, 0).ok());
  ASSERT_NE(cluster.zombie(0), nullptr);
  EXPECT_EQ(cluster.zombie(0)->checkpointer(), first);
  ASSERT_NE(cluster.checkpointer(0), first);
  EXPECT_GT(cluster.checkpointer(0)->published_lsn(), 0u);

  // The zombie's tree still moves, but no cut starts on it any more.
  const uint64_t cuts = first->stats().cuts_started.Get();
  BG3_IGNORE_STATUS(cluster.zombie(0)->Put(Key(0), "zombie"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(first->stats().cuts_started.Get(), cuts);
  cluster.StopCheckpointers();
  EXPECT_EQ(cluster.GetFromLeader(Key(0)).value(), "v");
}

}  // namespace
}  // namespace bg3::replication
