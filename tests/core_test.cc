#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "cloud/cloud_store.h"
#include "common/metrics_registry.h"
#include "core/graph_db.h"

namespace bg3::core {
namespace {

struct DbFixture {
  explicit DbFixture(GraphDBOptions opts = {}, size_t extent_capacity = 1 << 16) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = extent_capacity;
    store = std::make_unique<cloud::CloudStore>(copts);
    if (opts.time_source == nullptr) opts.time_source = &clock;
    db = std::make_unique<GraphDB>(store.get(), opts);
  }
  /// Engine state as /metrics serves it: `name` under this DB's prefix.
  uint64_t DbMetric(const std::string& name) const {
    return Metric(db->metrics_prefix() + name);
  }
  /// `name` under the store's `bg3.cloud.store<N>.` prefix.
  uint64_t StoreMetric(const std::string& name) const {
    return Metric(store->metrics_prefix() + name);
  }
  static uint64_t Metric(const std::string& full_name) {
    return MetricsRegistry::Default().TakeSnapshot().counters.at(full_name);
  }

  cloud::ManualTimeSource clock;
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<GraphDB> db;
};

TEST(OptionsTest, ValidateCatchesBadRanges) {
  GraphDBOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.gc_min_fragmentation = 2.0;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
  opts = GraphDBOptions{};
  opts.forest.owner_shards = 0;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
}

TEST(OptionsTest, PolicyFactoryCoversAllKinds) {
  const uint64_t window = GraphDBOptions{}.gc_ttl_bypass_window_us;
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kNone, 0.1, window), nullptr);
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kFifo, 0.1, window)->name(), "fifo");
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kDirtyRatio, 0.1, window)->name(),
            "dirty-ratio");
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kWorkloadAware, 0.1, window)->name(),
            "workload-aware");
}

TEST(GraphDBTest, VertexRoundTrip) {
  DbFixture f;
  ASSERT_TRUE(f.db->AddVertex(42, "user-properties").ok());
  EXPECT_EQ(f.db->GetVertex(42).value(), "user-properties");
  EXPECT_TRUE(f.db->GetVertex(43).status().IsNotFound());
}

TEST(GraphDBTest, EdgeRoundTrip) {
  DbFixture f;
  ASSERT_TRUE(f.db->AddEdge(1, 2, 3, "liked-at-noon", 100).ok());
  EXPECT_EQ(f.db->GetEdge(1, 2, 3).value(), "liked-at-noon");
  EXPECT_TRUE(f.db->GetEdge(1, 2, 4).status().IsNotFound());
  EXPECT_TRUE(f.db->GetEdge(1, 3, 3).status().IsNotFound());  // other type
}

TEST(GraphDBTest, DeleteEdge) {
  DbFixture f;
  ASSERT_TRUE(f.db->AddEdge(1, 1, 2, "p", 1).ok());
  ASSERT_TRUE(f.db->DeleteEdge(1, 1, 2).ok());
  EXPECT_TRUE(f.db->GetEdge(1, 1, 2).status().IsNotFound());
}

TEST(GraphDBTest, NeighborsSortedByDst) {
  DbFixture f;
  for (graph::VertexId d : {30, 10, 20}) {
    ASSERT_TRUE(f.db->AddEdge(5, 1, d, "p" + std::to_string(d), 1).ok());
  }
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(5, 1, 100, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].dst, 10u);
  EXPECT_EQ(out[1].dst, 20u);
  EXPECT_EQ(out[2].dst, 30u);
  EXPECT_EQ(out[2].properties, "p30");
}

TEST(GraphDBTest, NeighborsLimitApplies) {
  DbFixture f;
  for (graph::VertexId d = 0; d < 50; ++d) {
    ASSERT_TRUE(f.db->AddEdge(5, 1, d + 100, "", 1).ok());
  }
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(5, 1, 10, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

// `limit` counts stored entries, so expired edges use up the limit before
// the TTL filter drops them.
TEST(GraphDBTest, NeighborsLimitCountsExpiredEdges) {
  GraphDBOptions opts;
  opts.edge_ttl_us = 1000;
  DbFixture f(opts);
  for (graph::VertexId d = 1; d <= 10; ++d) {
    // dst 1..5 expire at 1100; dst 6..10 live until 2500.
    ASSERT_TRUE(f.db->AddEdge(5, 1, d, "p", d <= 5 ? 100 : 1500).ok());
  }
  f.clock.SetUs(2000);
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(5, 1, 5, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(f.db->GetNeighbors(5, 1, 7, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].dst, 6u);
  EXPECT_EQ(out[1].dst, 7u);
  EXPECT_EQ(out[1].created_us, 1500u);
}

TEST(GraphDBTest, NeighborsAppendToCallersVector) {
  DbFixture f;
  for (graph::VertexId d : {3, 4}) {
    ASSERT_TRUE(f.db->AddEdge(5, 1, d, "p" + std::to_string(d), 1).ok());
  }
  std::vector<graph::Neighbor> out = {graph::Neighbor{99, 7, "mine"}};
  ASSERT_TRUE(f.db->GetNeighbors(5, 1, 100, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].dst, 99u);
  EXPECT_EQ(out[0].properties, "mine");
  EXPECT_EQ(out[1].dst, 3u);
  EXPECT_EQ(out[2].dst, 4u);
  EXPECT_EQ(out[2].properties, "p4");
}

TEST(GraphDBTest, SuperVertexSplitsOutIntoDedicatedTree) {
  GraphDBOptions opts;
  opts.forest.split_out_threshold = 64;
  DbFixture f(opts);
  for (graph::VertexId d = 0; d < 200; ++d) {
    ASSERT_TRUE(f.db->AddEdge(7, 1, d, "", 1).ok());
  }
  EXPECT_GE(f.db->forest()->DedicatedTreeCount(), 1u);
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(7, 1, 1000, &out).ok());
  EXPECT_EQ(out.size(), 200u);
}

TEST(GraphDBTest, TtlExpiresEdgesOnRead) {
  GraphDBOptions opts;
  opts.edge_ttl_us = 1000;
  DbFixture f(opts);
  f.clock.SetUs(100);
  ASSERT_TRUE(f.db->AddEdge(1, 1, 2, "old", 0).ok());  // stamped at 100
  f.clock.SetUs(500);
  EXPECT_TRUE(f.db->GetEdge(1, 1, 2).ok());  // still fresh
  f.clock.SetUs(2000);
  EXPECT_TRUE(f.db->GetEdge(1, 1, 2).status().IsNotFound());
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(GraphDBTest, GcCycleReclaimsChurnedSpace) {
  GraphDBOptions opts;
  opts.gc_policy = GcPolicyKind::kDirtyRatio;
  opts.gc_target_dead_ratio = 0.01;
  opts.gc_min_fragmentation = 0.01;
  opts.gc_extents_per_cycle = 8;
  opts.forest.tree_options.consolidate_threshold = 4;
  DbFixture f(opts, /*extent_capacity=*/2048);
  for (int round = 0; round < 40; ++round) {
    f.clock.AdvanceUs(1000);
    for (graph::VertexId d = 0; d < 20; ++d) {
      ASSERT_TRUE(
          f.db->AddEdge(1, 1, d, "r" + std::to_string(round), 0).ok());
    }
  }
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.db->RunGcCycle().ok());
  EXPECT_GT(f.StoreMetric("extents_freed"), 0u);
  // Data survives reclamation.
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 100, &out).ok());
  EXPECT_EQ(out.size(), 20u);
  for (const auto& n : out) EXPECT_EQ(n.properties, "r39");
}

TEST(GraphDBTest, TtlWorkloadExpiresWholeExtentsWithoutMovement) {
  GraphDBOptions opts;
  opts.gc_policy = GcPolicyKind::kWorkloadAware;
  opts.edge_ttl_us = 1'000'000;
  opts.gc_extents_per_cycle = 64;
  DbFixture f(opts, /*extent_capacity=*/4096);
  for (int i = 0; i < 500; ++i) {
    f.clock.AdvanceUs(100);
    ASSERT_TRUE(f.db->AddEdge(i % 50, 1, 1000 + i, std::string(32, 'x'), 0).ok());
  }
  f.clock.AdvanceUs(10'000'000);
  ASSERT_TRUE(f.db->RunGcCycle().ok());
  EXPECT_GT(f.DbMetric("gc.extents_expired"), 0u);
  // Table 2: TTL -> zero movement
  EXPECT_EQ(f.StoreMetric("gc_moved_bytes"), 0u);
}

TEST(GraphDBTest, DefaultPolicyRelocatesLongTtlExtents) {
  // A TTL far longer than the default bypass window: fragmented extents
  // whose deadline lies beyond the window are relocated, not left holding
  // their dead space for the whole hour.
  GraphDBOptions opts;
  opts.edge_ttl_us = 3'600ull * 1'000'000;
  ASSERT_LT(opts.gc_ttl_bypass_window_us, opts.edge_ttl_us);
  DbFixture f(opts, /*extent_capacity=*/16 << 10);
  // Stable edges over many owners, interleaved with churn on one owner, so
  // sealed extents mix the final images of filled leaves with dead ones.
  for (int i = 0; i < 4000; ++i) {
    f.clock.AdvanceUs(100);
    ASSERT_TRUE(f.db->AddEdge(1000 + i, 1, i, "cold", 0).ok());
    ASSERT_TRUE(f.db->AddEdge(1, 1, i % 20, "r" + std::to_string(i), 0).ok());
  }
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.db->RunGcCycle().ok());
  EXPECT_EQ(f.DbMetric("gc.extents_expired"), 0u);
  EXPECT_GT(f.StoreMetric("gc_moved_bytes"), 0u);
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 100, &out).ok());
  EXPECT_EQ(out.size(), 20u);
  for (const auto& n : out) {
    EXPECT_EQ(n.properties, "r" + std::to_string(3980 + n.dst)) << n.dst;
  }
  for (int i = 0; i < 4000; i += 7) {
    EXPECT_EQ(f.db->GetEdge(1000 + i, 1, i).value(), "cold") << i;
  }
}

TEST(GraphDBTest, StatsSnapshotIsCoherent) {
  DbFixture f;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.db->AddEdge(i % 5, 1, i, "p", 0).ok());
  }
  const auto counters = MetricsRegistry::Default().TakeSnapshot().counters;
  const std::string& db = f.db->metrics_prefix();
  const std::string& store = f.store->metrics_prefix();
  EXPECT_GT(counters.at(store + "append_ops"), 0u);
  EXPECT_GT(counters.at(store + "total_bytes"), 0u);
  EXPECT_GE(counters.at(store + "total_bytes"),
            counters.at(store + "live_bytes"));
  EXPECT_GE(counters.at(db + "forest.tree_count"), 1u);
  EXPECT_GT(counters.at(db + "approx_memory_bytes"), 0u);
  EXPECT_GT(counters.at(db + "bwtree.latch.exclusive_acquires"), 0u);
  EXPECT_GT(counters.at(db + "bwtree.resident_bytes"), 0u);
}

TEST(GraphDBTest, ConcurrentMixedWorkload) {
  GraphDBOptions opts;
  opts.forest.split_out_threshold = 32;
  DbFixture f(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<graph::Neighbor> out;
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(f.db->AddEdge(t, 1, i, "v", 0).ok());
        if (i % 10 == 0) {
          out.clear();
          ASSERT_TRUE(f.db->GetNeighbors(t, 1, 16, &out).ok());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    std::vector<graph::Neighbor> out;
    ASSERT_TRUE(f.db->GetNeighbors(t, 1, 1000, &out).ok());
    EXPECT_EQ(out.size(), 300u);
  }
}

// GetNeighbors races split-outs (the GraphDB side of ForestStressTest's
// ReadsRacingSplitOutsSeeEveryAckedEntry): each acknowledged destination
// comes back exactly once, in ascending order, even when a split-out makes
// a read's INIT pass stale mid-scan.
TEST(GraphDBTest, NeighborsRacingSplitOutsSeeEachAckedEdgeOnce) {
  GraphDBOptions opts;
  opts.forest.split_out_threshold = 40;
  DbFixture f(opts);
  constexpr int kSources = 32;
  constexpr int kEdges = 120;
  std::atomic<int> acked{0};  // edges acknowledged, source by source
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&f, &acked, &stop, &failures] {
      std::vector<graph::Neighbor> out;
      while (!stop.load(std::memory_order_acquire)) {
        const int a = acked.load(std::memory_order_acquire);
        if (a == 0) continue;
        const graph::VertexId src = 1 + (a - 1) / kEdges;
        const size_t n = (a - 1) % kEdges + 1;  // of this source's edges
        out.clear();
        if (!f.db->GetNeighbors(src, 1, kEdges, &out).ok() || out.size() < n) {
          failures.fetch_add(1);
        }
        for (size_t k = 0; k < out.size(); ++k) {
          if (out[k].dst != k) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (int s = 0; s < kSources; ++s) {
    for (int d = 0; d < kEdges; ++d) {
      ASSERT_TRUE(f.db->AddEdge(1 + s, 1, d, "v", 1).ok());
      acked.store(s * kEdges + d + 1, std::memory_order_release);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(f.db->forest()->DedicatedTreeCount(),
            static_cast<size_t>(kSources));
}

}  // namespace
}  // namespace bg3::core

namespace bg3::core {
namespace {

TEST(GraphDBTest, BackgroundMaintenanceRunsAndStops) {
  GraphDBOptions opts;
  opts.gc_policy = GcPolicyKind::kDirtyRatio;
  opts.gc_target_dead_ratio = 0.01;
  opts.gc_min_fragmentation = 0.01;
  opts.forest.tree_options.consolidate_threshold = 4;
  DbFixture f(opts, /*extent_capacity=*/2048);
  f.db->StartMaintenance(/*interval_ms=*/5);
  f.db->StartMaintenance(5);  // idempotent
  for (int round = 0; round < 30; ++round) {
    for (graph::VertexId d = 0; d < 20; ++d) {
      ASSERT_TRUE(f.db->AddEdge(1, 1, d, "r" + std::to_string(round), 0).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  f.db->StopMaintenance();
  f.db->StopMaintenance();  // idempotent
  // Data intact; GC actually ran.
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 100, &out).ok());
  EXPECT_EQ(out.size(), 20u);
  EXPECT_GT(f.StoreMetric("extents_freed"), 0u);
}

// The gc.* metrics read the reclaimer's totals, which the maintenance
// thread's cycles add to while a /metrics render or snapshot reads them.
TEST(GraphDBTest, MetricsSnapshotsReadGcTotalsWhileMaintenanceRelocates) {
  GraphDBOptions opts;
  opts.gc_policy = GcPolicyKind::kDirtyRatio;
  opts.gc_target_dead_ratio = 0.01;
  opts.gc_min_fragmentation = 0.01;
  opts.forest.tree_options.consolidate_threshold = 4;
  DbFixture f(opts, /*extent_capacity=*/2048);
  std::atomic<bool> stop{false};
  std::thread scraper([&stop] {
    while (!stop.load()) (void)MetricsRegistry::Default().TakeSnapshot();
  });
  f.db->StartMaintenance(/*interval_ms=*/1);
  for (int round = 0; round < 30; ++round) {
    for (graph::VertexId d = 0; d < 20; ++d) {
      ASSERT_TRUE(f.db->AddEdge(1, 1, d, "r" + std::to_string(round), 0).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int i = 0; i < 1000 && f.DbMetric("gc.extents_reclaimed") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  f.db->StopMaintenance();
  stop.store(true);
  scraper.join();
  EXPECT_GT(f.DbMetric("gc.extents_reclaimed"), 0u);
}

}  // namespace
}  // namespace bg3::core

namespace bg3::core {
namespace {

TEST(GraphDBTest, MemoryBudgetEvictsDuringMaintenance) {
  GraphDBOptions opts;
  opts.memory_budget_bytes = 1;  // everything is over budget
  opts.gc_policy = GcPolicyKind::kNone;
  DbFixture f(opts);
  for (graph::VertexId d = 0; d < 2000; ++d) {
    ASSERT_TRUE(f.db->AddEdge(1, 1, d, std::string(64, 'x'), 0).ok());
  }
  const uint64_t before = f.DbMetric("approx_memory_bytes");
  ASSERT_TRUE(f.db->RunGcCycle().ok());  // maintenance = eviction here
  EXPECT_LT(f.DbMetric("approx_memory_bytes"), before / 2);
  // Data remains fully readable (reloaded from flushed images).
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 5000, &out).ok());
  EXPECT_EQ(out.size(), 2000u);
}

}  // namespace
}  // namespace bg3::core
