// The "Douyin Recommendation" scenario of Table 1: read-only multi-hop
// neighbor queries (70% 1-hop, 20% 2-hop, 10% 3-hop) generating candidate
// subgraphs for a downstream recommendation model.
//
//   $ ./recommendation
#include <cstdio>
#include <memory>

#include "cloud/cloud_store.h"
#include "common/metrics_registry.h"
#include "core/graph_db.h"
#include "graph/algorithms.h"
#include "graph/traversal.h"
#include "query/query.h"
#include "workload/driver.h"
#include "workload/graph_gen.h"
#include "workload/workloads.h"

int main() {
  using namespace bg3;

  cloud::CloudStore store;
  core::GraphDBOptions options;
  core::GraphDB db(&store, options);

  // User->video interaction graph ("likes").
  workload::GraphGenOptions gen;
  gen.num_sources = 20'000;
  gen.num_dests = 100'000;
  gen.num_edges = 200'000;
  gen.zipf_theta = 0.85;
  printf("loading %llu user-video interactions...\n",
         (unsigned long long)gen.num_edges);
  if (!workload::LoadGraph(&db, gen).ok()) return 1;

  // One explicit candidate generation: expand a user's 2-hop neighborhood
  // (videos liked by users who like the same videos).
  graph::TraversalOptions expand;
  expand.hops = 2;
  expand.fanout_per_vertex = 16;
  auto candidates = graph::KHopNeighbors(&db, /*start=*/0, gen.edge_type, expand);
  if (candidates.ok()) {
    printf("user 0: %zu candidate items from a 2-hop expansion\n",
           candidates.value().size());
  }

  // The same candidate generation written as a Gremlin-style query
  // (the BGE execution-layer surface): videos liked by users who like what
  // user 0 likes, deduped and sampled for the ranking model.
  auto sampled = query::Query(&db)
                     .V(0)
                     .Out(gen.edge_type, 16)
                     .Out(gen.edge_type, 16)
                     .Dedup()
                     .Sample(10, /*seed=*/7)
                     .Execute();
  if (sampled.ok()) {
    printf("query-layer sample: %zu candidates (e.g.", sampled.value().size());
    for (size_t i = 0; i < sampled.value().size() && i < 3; ++i) {
      printf(" %llu", (unsigned long long)sampled.value()[i]);
    }
    printf(" ...)\n");
  }

  // Personalized-PageRank ranking over the interaction graph.
  graph::PersonalizedPageRankOptions ppr;
  ppr.type = gen.edge_type;
  ppr.epsilon = 1e-5;
  auto ranked = graph::RecommendByPageRank(&db, /*source=*/0, /*k=*/5, ppr);
  if (ranked.ok()) {
    printf("PPR top-5 for user 0:");
    for (const auto& [v, score] : ranked.value()) {
      printf(" %llu(%.4f)", (unsigned long long)v, score);
    }
    printf("\n");
  }

  // Sustained read-only serving at the Table-1 hop mix.
  workload::DriverOptions drv;
  drv.threads = 4;
  drv.ops_per_thread = 25'000;
  drv.multi_hop_fanout = 8;
  workload::DriverResult result;
  workload::RunWorkload(
      &db,
      [&](int thread) {
        workload::RecommendWorkload::Options w;
        w.num_users = gen.num_sources;
        w.zipf_theta = gen.zipf_theta;
        return std::make_unique<workload::RecommendWorkload>(w, 7 + thread);
      },
      drv, &result);
  printf("douyin-recommendation: %llu queries in %.2fs -> %.0f QPS\n",
         (unsigned long long)result.ops, result.seconds, result.qps);

  const uint64_t approx_memory = MetricsRegistry::Default()
                                     .TakeSnapshot()
                                     .counters.at(db.metrics_prefix() +
                                                  "approx_memory_bytes");
  printf("bw-trees=%zu, approx memory=%.1f MB\n", db.forest()->TreeCount(),
         approx_memory / 1e6);
  return 0;
}
