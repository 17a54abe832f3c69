#include <gtest/gtest.h>

#include <memory>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/random.h"
#include "gc/extent_usage.h"
#include "gc/policy.h"
#include "gc/space_reclaimer.h"

namespace bg3::gc {
namespace {

// --- extent usage tracking -----------------------------------------------------

TEST(ExtentUsageTest, GradientZeroWithoutInvalidations) {
  ExtentUsage u;
  EXPECT_EQ(u.UpdateGradient(1000), 0.0);
}

TEST(ExtentUsageTest, TtlDeadlineFromLastAppend) {
  ExtentUsage u;
  u.last_append_us = 500;
  EXPECT_EQ(u.TtlDeadlineUs(0), 0u);
  EXPECT_EQ(u.TtlDeadlineUs(100), 600u);
}

TEST(ExtentUsageTrackerTest, TracksAppendTimestamps) {
  cloud::ManualTimeSource clock;
  ExtentUsageTracker tracker(&clock);
  clock.SetUs(100);
  tracker.OnAppend(cloud::PagePointer{0, 5, 0, 10});
  clock.SetUs(250);
  tracker.OnAppend(cloud::PagePointer{0, 5, 10, 10});
  const ExtentUsage u = tracker.GetUsage(0, 5);
  EXPECT_EQ(u.created_us, 100u);
  EXPECT_EQ(u.last_append_us, 250u);
}

TEST(ExtentUsageTrackerTest, HotExtentHasHigherGradient) {
  cloud::ManualTimeSource clock;
  ExtentUsageTracker tracker(&clock, /*gradient_window_us=*/1'000'000);
  // Extent 1: 10 invalidations in 10ms (hot). Extent 2: 2 in 10ms (cold).
  for (int i = 0; i < 10; ++i) {
    clock.AdvanceUs(1000);
    tracker.OnInvalidate(cloud::PagePointer{0, 1, static_cast<uint32_t>(i), 1});
  }
  tracker.OnInvalidate(cloud::PagePointer{0, 2, 0, 1});
  clock.AdvanceUs(10'000);
  tracker.OnInvalidate(cloud::PagePointer{0, 2, 1, 1});
  const uint64_t now = clock.NowUs();
  EXPECT_GT(tracker.GetUsage(0, 1).UpdateGradient(now),
            tracker.GetUsage(0, 2).UpdateGradient(now));
}

TEST(ExtentUsageTrackerTest, FreedExtentForgotten) {
  cloud::ManualTimeSource clock;
  ExtentUsageTracker tracker(&clock);
  clock.SetUs(10);
  tracker.OnAppend(cloud::PagePointer{0, 3, 0, 1});
  tracker.OnExtentFreed(0, 3);
  EXPECT_EQ(tracker.GetUsage(0, 3).last_append_us, 0u);
}

// --- policies ------------------------------------------------------------------

GcCandidate MakeCandidate(cloud::ExtentId id, uint32_t total, uint32_t invalid,
                          double gradient_invalids_per_window = 0.0,
                          uint64_t last_append_us = 0) {
  GcCandidate c;
  c.stats.id = id;
  c.stats.sealed = true;
  c.stats.total_records = total;
  c.stats.invalid_records = invalid;
  c.stats.used_bytes = total * 100;
  c.stats.dead_bytes = invalid * 100;
  c.usage.stream = 0;
  c.usage.extent = id;
  c.usage.last_append_us = last_append_us;
  if (gradient_invalids_per_window > 0) {
    // Construct a window yielding the requested rate at now=2e6.
    c.usage.window_start_us = 1'000'000;
    c.usage.window_start_invalid = 0;
    c.usage.invalid_count =
        static_cast<uint32_t>(gradient_invalids_per_window);
  }
  return c;
}

TEST(FifoPolicyTest, PicksOldestExtents) {
  FifoPolicy policy;
  SelectContext ctx;
  auto victims = policy.SelectVictims(
      {MakeCandidate(9, 10, 0), MakeCandidate(3, 10, 0), MakeCandidate(7, 10, 0)},
      2, ctx);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 3u);
  EXPECT_EQ(victims[1], 7u);
}

TEST(DirtyRatioPolicyTest, PicksHighestFragmentation) {
  DirtyRatioPolicy policy(0.05);
  SelectContext ctx;
  auto victims = policy.SelectVictims(
      {MakeCandidate(1, 10, 2), MakeCandidate(2, 10, 8), MakeCandidate(3, 10, 5)},
      2, ctx);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 2u);
  EXPECT_EQ(victims[1], 3u);
}

TEST(DirtyRatioPolicyTest, SkipsCleanExtents) {
  DirtyRatioPolicy policy(0.20);
  SelectContext ctx;
  auto victims = policy.SelectVictims(
      {MakeCandidate(1, 10, 1), MakeCandidate(2, 10, 0)}, 5, ctx);
  EXPECT_TRUE(victims.empty());
}

TEST(WorkloadAwarePolicyTest, PrefersColdExtents) {
  // Algorithm 2 / Fig. 5: at the same fragmentation, pick the extent whose
  // invalid count grows slowest (its remaining valid data will stay valid).
  WorkloadAwarePolicy policy(WorkloadAwarePolicy::kUnboundedWindow, 0.05,
                             /*cold_pool_factor=*/1);
  SelectContext ctx;
  ctx.now_us = 2'000'000;
  auto hot = MakeCandidate(1, 10, 6, /*gradient=*/50.0);
  auto cold = MakeCandidate(2, 10, 6, /*gradient=*/1.0);
  auto victims = policy.SelectVictims({hot, cold}, 1, ctx);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);
}

TEST(WorkloadAwarePolicyTest, WithinColdPoolPrefersFragmentation) {
  WorkloadAwarePolicy policy(WorkloadAwarePolicy::kUnboundedWindow, 0.05,
                             /*cold_pool_factor=*/4);
  SelectContext ctx;
  ctx.now_us = 2'000'000;
  auto a = MakeCandidate(1, 10, 3);
  auto b = MakeCandidate(2, 10, 9);
  auto victims = policy.SelectVictims({a, b}, 1, ctx);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);
}

TEST(WorkloadAwarePolicyTest, BypassesTtlExtents) {
  // "We bypass those extents and allow them to expire naturally." An
  // unbounded window is §3.3's pure bypass.
  WorkloadAwarePolicy policy(WorkloadAwarePolicy::kUnboundedWindow, 0.05);
  SelectContext ctx;
  ctx.now_us = 2'000'000;
  ctx.ttl_us = 60'000'000;
  auto c = MakeCandidate(1, 10, 9, 0.0, /*last_append_us=*/1'000'000);
  EXPECT_TRUE(policy.SelectVictims({c}, 4, ctx).empty());
  ctx.ttl_us = 0;  // without TTL the same extent is a normal victim
  EXPECT_EQ(policy.SelectVictims({c}, 4, ctx).size(), 1u);
}

// --- reclaimer end-to-end ---------------------------------------------------------

struct GcFixture {
  explicit GcFixture(GcPolicy* policy, ReclaimOptions ropts = {},
                     size_t extent_capacity = 2048) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = extent_capacity;
    store = std::make_unique<cloud::CloudStore>(copts);
    tracker = std::make_unique<ExtentUsageTracker>(&clock);
    store->SetObserver(tracker.get());
    bwtree::BwTreeOptions topts;
    topts.consolidate_threshold = 4;
    topts.base_stream = store->CreateStream("base");
    topts.delta_stream = store->CreateStream("delta");
    topts.tolerate_missing_extents = ropts.ttl_us != 0;
    tree = std::make_unique<bwtree::BwTree>(store.get(), topts);
    resolver = std::make_unique<SingleTreeResolver>(tree.get());
    reclaimer = std::make_unique<SpaceReclaimer>(store.get(), resolver.get(),
                                                 policy, tracker.get(), ropts);
  }
  cloud::ManualTimeSource clock;
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<ExtentUsageTracker> tracker;
  std::unique_ptr<bwtree::BwTree> tree;
  std::unique_ptr<SingleTreeResolver> resolver;
  std::unique_ptr<SpaceReclaimer> reclaimer;
};

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

TEST(SpaceReclaimerTest, ReclaimsFragmentedExtentsAndPreservesData) {
  DirtyRatioPolicy policy(0.01);
  ReclaimOptions ropts;
  ropts.target_dead_ratio = 0.01;
  GcFixture f(&policy, ropts, 1024);
  // Churn a small key set so old base/delta records become invalid.
  for (int round = 0; round < 50; ++round) {
    f.clock.AdvanceUs(1000);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(f.tree->Upsert(Key(i), "r" + std::to_string(round)).ok());
    }
  }
  const uint64_t dead_before =
      f.store->TotalBytes(0) - f.store->LiveBytes(0);
  EXPECT_GT(dead_before, 0u);
  CycleResult total;
  for (int i = 0; i < 20; ++i) {
    auto r = f.reclaimer->RunCycle(0, 4);
    ASSERT_TRUE(r.ok());
    total.extents_reclaimed += r.value().extents_reclaimed;
  }
  EXPECT_GT(total.extents_reclaimed, 0u);
  EXPECT_GT(f.store->stats().extents_freed.Get(), 0u);
  // All data still correct after relocation.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(f.tree->Get(Key(i)).value(), "r49");
  }
}

TEST(SpaceReclaimerTest, NoReclaimBelowDeadRatioTarget) {
  DirtyRatioPolicy policy(0.01);
  ReclaimOptions ropts;
  ropts.target_dead_ratio = 0.99;  // effectively never
  GcFixture f(&policy, ropts, 512);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
    }
  }
  auto r = f.reclaimer->RunCycle(0, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().extents_reclaimed, 0u);
  EXPECT_EQ(r.value().bytes_moved, 0u);
}

TEST(SpaceReclaimerTest, TtlExpiryFreesWithoutMoving) {
  WorkloadAwarePolicy policy(WorkloadAwarePolicy::kUnboundedWindow, 0.01);
  ReclaimOptions ropts;
  ropts.ttl_us = 1'000'000;  // 1s TTL
  ropts.target_dead_ratio = 0.0;
  GcFixture f(&policy, ropts, 1024);
  for (int i = 0; i < 200; ++i) {
    f.clock.AdvanceUs(100);
    ASSERT_TRUE(f.tree->Upsert(Key(i), std::string(64, 'v')).ok());
  }
  const uint64_t bytes_before = f.store->TotalBytes();
  f.clock.AdvanceUs(10'000'000);  // everything expires
  auto r = f.reclaimer->RunCycle(0, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().extents_expired, 0u);
  EXPECT_EQ(r.value().bytes_moved, 0u);  // zero background movement
  EXPECT_LT(f.store->TotalBytes(), bytes_before);
}

TEST(SpaceReclaimerTest, WorkloadAwareMovesLessThanDirtyRatioUnderSkew) {
  // The Table 2 (workload 1) effect: with hot/cold extents, choosing cold
  // victims moves fewer bytes for the same reclamation effort.
  auto run = [](GcPolicy* policy) {
    ReclaimOptions ropts;
    ropts.target_dead_ratio = 0.01;
    GcFixture f(policy, ropts, 2048);
    Random rng(17);
    // Hot keys overwritten constantly; cold keys written once then rarely.
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(f.tree->Upsert(Key(1000 + i), std::string(32, 'c')).ok());
    }
    uint64_t moved = 0;
    for (int round = 0; round < 40; ++round) {
      f.clock.AdvanceUs(2000);
      for (int i = 0; i < 40; ++i) {
        const int hot = static_cast<int>(rng.Uniform(10));
        EXPECT_TRUE(f.tree->Upsert(Key(hot), std::string(32, 'h')).ok());
      }
      auto r = f.reclaimer->RunCycle(0, 1);
      EXPECT_TRUE(r.ok());
      moved += r.value().bytes_moved;
      auto r2 = f.reclaimer->RunCycle(1, 1);
      EXPECT_TRUE(r2.ok());
      moved += r2.value().bytes_moved;
    }
    return moved;
  };
  DirtyRatioPolicy dirty(0.01);
  WorkloadAwarePolicy aware(WorkloadAwarePolicy::kUnboundedWindow, 0.01);
  const uint64_t moved_dirty = run(&dirty);
  const uint64_t moved_aware = run(&aware);
  EXPECT_LE(moved_aware, moved_dirty);
}

TEST(SpaceReclaimerTest, TotalsAccumulateAcrossCycles) {
  DirtyRatioPolicy policy(0.01);
  ReclaimOptions ropts;
  ropts.target_dead_ratio = 0.0;
  GcFixture f(&policy, ropts, 512);
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(f.tree->Upsert(Key(i), std::string(40, 'x')).ok());
    }
  }
  BG3_IGNORE_STATUS(f.reclaimer->RunCycle(0, 2));
  BG3_IGNORE_STATUS(f.reclaimer->RunCycle(0, 2));
  EXPECT_GE(f.reclaimer->totals().extents_examined, 2u);
}

}  // namespace
}  // namespace bg3::gc

namespace bg3::gc {
namespace {

TEST(WorkloadAwarePolicyTest, BypassesOnlyNearExpiryExtents) {
  // §4.4: a 30-day-TTL workload must not strand dead space for the whole
  // retention period — only extents about to expire are skipped.
  WorkloadAwarePolicy policy(/*bypass_window_us=*/10'000'000, 0.05, 1);
  SelectContext ctx;
  ctx.now_us = 100'000'000;
  ctx.ttl_us = 50'000'000;
  // Expires at 105s: within the 10s bypass window of now=100s -> skipped.
  auto near_expiry = MakeCandidate(1, 10, 8, 0.0, /*last_append=*/55'000'000);
  // Expires at 145s: far away -> eligible despite the TTL.
  auto far_expiry = MakeCandidate(2, 10, 8, 0.0, /*last_append=*/95'000'000);
  auto victims = policy.SelectVictims({near_expiry, far_expiry}, 4, ctx);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);
}

TEST(WorkloadAwarePolicyTest, UnboundedWindowDoesNotWrap) {
  // now + window saturates: a wrapped horizon would fall before every
  // deadline and bypass nothing.
  WorkloadAwarePolicy policy(WorkloadAwarePolicy::kUnboundedWindow, 0.05, 1);
  SelectContext ctx;
  ctx.now_us = 100'000'000;
  ctx.ttl_us = 3'600'000'000;
  auto far_expiry = MakeCandidate(1, 10, 8, 0.0, /*last_append=*/99'000'000);
  EXPECT_TRUE(policy.SelectVictims({far_expiry}, 4, ctx).empty());
}

TEST(WorkloadAwarePolicyTest, FullyDeadExtentsAreFreeWins) {
  // Regression: a just-finished-dying extent has a high gradient but zero
  // valid data; it must be selected first, not deferred as "hot".
  WorkloadAwarePolicy policy(WorkloadAwarePolicy::kUnboundedWindow, 0.05, 1);
  SelectContext ctx;
  ctx.now_us = 2'000'000;
  auto dead_hot = MakeCandidate(1, 10, 10, /*gradient=*/100.0);
  auto cold_partial = MakeCandidate(2, 10, 6, /*gradient=*/0.5);
  auto victims = policy.SelectVictims({cold_partial, dead_hot}, 1, ctx);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 1u);
}

}  // namespace
}  // namespace bg3::gc
