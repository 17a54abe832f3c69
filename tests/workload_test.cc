#include <gtest/gtest.h>

#include <memory>

#include "cloud/cloud_store.h"
#include "common/metrics_registry.h"
#include "core/graph_db.h"
#include "workload/driver.h"
#include "workload/graph_gen.h"
#include "workload/workloads.h"

namespace bg3::workload {
namespace {

TEST(GraphGenTest, LoadsRequestedEdgeCount) {
  cloud::CloudStore store;
  core::GraphDBOptions db_opts;
  core::GraphDB db(&store, db_opts);
  GraphGenOptions opts;
  opts.num_sources = 100;
  opts.num_dests = 100;
  opts.num_edges = 2000;
  auto loaded = LoadGraph(&db, opts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), 2000u);
}

TEST(GraphGenTest, DegreesAreSkewed) {
  cloud::CloudStore store;
  core::GraphDBOptions db_opts;
  core::GraphDB db(&store, db_opts);
  GraphGenOptions opts;
  opts.num_sources = 1000;
  opts.num_dests = 1000;
  opts.num_edges = 5000;
  opts.zipf_theta = 0.9;
  ASSERT_TRUE(LoadGraph(&db, opts).ok());
  // Vertex 0 (the hottest Zipf item) must have far more out-edges than a
  // mid-range vertex.
  std::vector<graph::Neighbor> hot, cold;
  ASSERT_TRUE(db.GetNeighbors(0, opts.edge_type, 100000, &hot).ok());
  ASSERT_TRUE(db.GetNeighbors(500, opts.edge_type, 100000, &cold).ok());
  EXPECT_GT(hot.size(), cold.size() + 10);
}

TEST(GraphGenTest, MakePropertiesDeterministic) {
  EXPECT_EQ(MakeProperties(1, 32), MakeProperties(1, 32));
  EXPECT_NE(MakeProperties(1, 32), MakeProperties(2, 32));
  EXPECT_EQ(MakeProperties(1, 32).size(), 32u);
}

TEST(FollowWorkloadTest, MixMatchesConfiguration) {
  FollowWorkload::Options opts;
  opts.write_fraction = 0.01;
  FollowWorkload gen(opts, 7);
  int writes = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const Op op = gen.Next();
    if (op.type == Op::Type::kInsertEdge) {
      ++writes;
      EXPECT_NE(op.src, op.dst);
    } else {
      EXPECT_EQ(op.type, Op::Type::kOneHop);
    }
  }
  EXPECT_NEAR(writes / static_cast<double>(n), 0.01, 0.003);
}

TEST(RiskControlWorkloadTest, StrictOneToOneReadWrite) {
  RiskControlWorkload::Options opts;
  RiskControlWorkload gen(opts, 3);
  int writes = 0, reads = 0;
  for (int i = 0; i < 1000; ++i) {
    const Op op = gen.Next();
    if (op.type == Op::Type::kInsertEdge) {
      ++writes;
    } else {
      ASSERT_EQ(op.type, Op::Type::kReachCheck);
      EXPECT_GE(op.hops, opts.min_hops);
      EXPECT_LE(op.hops, opts.max_hops);
      ++reads;
    }
  }
  EXPECT_EQ(writes, 500);
  EXPECT_EQ(reads, 500);
}

TEST(RecommendWorkloadTest, HopDistributionMatchesTable1) {
  RecommendWorkload::Options opts;
  RecommendWorkload gen(opts, 5);
  int hops[4] = {0, 0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const Op op = gen.Next();
    ASSERT_TRUE(op.type == Op::Type::kOneHop || op.type == Op::Type::kMultiHop);
    ASSERT_GE(op.hops, 1);
    ASSERT_LE(op.hops, 3);
    ++hops[op.hops];
  }
  EXPECT_NEAR(hops[1] / static_cast<double>(n), 0.70, 0.01);
  EXPECT_NEAR(hops[2] / static_cast<double>(n), 0.20, 0.01);
  EXPECT_NEAR(hops[3] / static_cast<double>(n), 0.10, 0.01);
}

TEST(DriverTest, RunsAllOpsAcrossThreads) {
  cloud::CloudStore store;
  core::GraphDBOptions db_opts;
  core::GraphDB db(&store, db_opts);
  DriverOptions opts;
  opts.threads = 4;
  opts.ops_per_thread = 500;
  DriverResult result;
  RunWorkload(
      &db,
      [](int thread) {
        FollowWorkload::Options w;
        w.num_users = 1000;
        return std::make_unique<FollowWorkload>(w, 100 + thread);
      },
      opts, &result);
  EXPECT_EQ(result.ops, 2000u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.qps, 0.0);
}

TEST(DriverTest, LatencyHistogramWhenRequested) {
  cloud::CloudStore store;
  core::GraphDBOptions db_opts;
  core::GraphDB db(&store, db_opts);
  DriverOptions opts;
  opts.threads = 2;
  opts.ops_per_thread = 100;
  opts.record_latency = true;
  DriverResult result;
  RunWorkload(
      &db,
      [](int thread) {
        RecommendWorkload::Options w;
        w.num_users = 100;
        return std::make_unique<RecommendWorkload>(w, thread);
      },
      opts, &result);
  EXPECT_EQ(result.latency_us.Count(), 200u);
}

TEST(PartitionedEngineTest, RoutesBySourceVertex) {
  cloud::CloudStore s1, s2;
  core::GraphDBOptions db_opts;
  core::GraphDB db1(&s1, db_opts);
  core::GraphDB db2(&s2, db_opts);
  PartitionedEngine part({&db1, &db2});
  for (graph::VertexId v = 0; v < 100; ++v) {
    ASSERT_TRUE(part.AddEdge(v, 1, v + 1000, "p", 1).ok());
  }
  // Every edge is retrievable through the partitioned view.
  for (graph::VertexId v = 0; v < 100; ++v) {
    EXPECT_TRUE(part.GetEdge(v, 1, v + 1000).ok());
  }
  // And both partitions hold some share of the data.
  const auto counters = MetricsRegistry::Default().TakeSnapshot().counters;
  EXPECT_GT(counters.at(s1.metrics_prefix() + "append_ops"), 0u);
  EXPECT_GT(counters.at(s2.metrics_prefix() + "append_ops"), 0u);
}

}  // namespace
}  // namespace bg3::workload
