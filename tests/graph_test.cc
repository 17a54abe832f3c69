#include <gtest/gtest.h>

#include <memory>

#include "cloud/cloud_store.h"
#include "core/graph_db.h"
#include "graph/edge.h"
#include "graph/pattern.h"
#include "graph/traversal.h"

namespace bg3::graph {
namespace {

// --- codecs -----------------------------------------------------------------

TEST(EdgeCodecTest, DstKeyOrdersNumerically) {
  EXPECT_LT(EncodeDstKey(1), EncodeDstKey(2));
  EXPECT_LT(EncodeDstKey(255), EncodeDstKey(256));
  EXPECT_LT(EncodeDstKey(0xFFFF), EncodeDstKey(0x10000));
  VertexId dst;
  ASSERT_TRUE(DecodeDstKey(EncodeDstKey(0xDEADBEEF), &dst));
  EXPECT_EQ(dst, 0xDEADBEEFu);
  EXPECT_FALSE(DecodeDstKey("short", &dst));
}

TEST(EdgeCodecTest, EdgeValueRoundTrip) {
  const std::string v = EncodeEdgeValue(123456, "props");
  TimestampUs ts;
  Slice props;
  ASSERT_TRUE(DecodeEdgeValue(v, &ts, &props));
  EXPECT_EQ(ts, 123456u);
  EXPECT_EQ(props.ToString(), "props");
}

TEST(EdgeCodecTest, OwnerIdPacksSrcAndType) {
  EXPECT_NE(MakeOwnerId(1, 0), MakeOwnerId(1, 1));
  EXPECT_NE(MakeOwnerId(1, 0), MakeOwnerId(2, 0));
  EXPECT_EQ(MakeOwnerId(5, 3), MakeOwnerId(5, 3));
}

TEST(EdgeCodecTest, FlatEdgeKeyRoundTripAndOrder) {
  const std::string k = EncodeFlatEdgeKey(10, 2, 30);
  VertexId src, dst;
  EdgeType type;
  ASSERT_TRUE(DecodeFlatEdgeKey(k, &src, &type, &dst));
  EXPECT_EQ(src, 10u);
  EXPECT_EQ(type, 2u);
  EXPECT_EQ(dst, 30u);
  EXPECT_LT(EncodeFlatEdgeKey(1, 1, 99), EncodeFlatEdgeKey(2, 0, 0));
  EXPECT_LT(EncodeFlatEdgeKey(1, 1, 5), EncodeFlatEdgeKey(1, 2, 0));
}

TEST(EdgeCodecTest, FlatPrefixCoversExactlyOneAdjacency) {
  const std::string lo = EncodeFlatEdgePrefix(7, 1);
  const std::string hi = EncodeFlatEdgePrefixEnd(7, 1);
  EXPECT_LE(lo, EncodeFlatEdgeKey(7, 1, 0));
  EXPECT_LT(EncodeFlatEdgeKey(7, 1, ~0ull).substr(0, 12), hi);
  EXPECT_GE(EncodeFlatEdgeKey(7, 2, 0).substr(0, 12), hi);
}

// --- traversal over a real engine --------------------------------------------

struct EngineFixture {
  EngineFixture() {
    store = std::make_unique<cloud::CloudStore>();
    core::GraphDBOptions opts;
    db = std::make_unique<core::GraphDB>(store.get(), opts);
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<core::GraphDB> db;
};

TEST(TraversalTest, OneHop) {
  EngineFixture f;
  for (VertexId d : {2, 3, 4}) {
    ASSERT_TRUE(f.db->AddEdge(1, 1, d, "p", 1).ok());
  }
  TraversalOptions opts;
  opts.hops = 1;
  auto result = KHopNeighbors(f.db.get(), 1, 1, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 3u);
}

TEST(TraversalTest, TwoHopsExcludeStartAndDedup) {
  EngineFixture f;
  // 1 -> {2,3}; 2 -> {3,4}; 3 -> {1}.
  ASSERT_TRUE(f.db->AddEdge(1, 1, 2, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(1, 1, 3, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(2, 1, 3, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(2, 1, 4, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(3, 1, 1, "", 1).ok());
  TraversalOptions opts;
  opts.hops = 2;
  auto result = KHopNeighbors(f.db.get(), 1, 1, opts);
  ASSERT_TRUE(result.ok());
  // {2,3} at hop 1, {4} new at hop 2 (3 deduped, 1 excluded as start).
  EXPECT_EQ(result.value().size(), 3u);
}

TEST(TraversalTest, FanoutLimitBoundsExpansion) {
  EngineFixture f;
  for (VertexId d = 10; d < 60; ++d) {
    ASSERT_TRUE(f.db->AddEdge(1, 1, d, "", 1).ok());
  }
  TraversalOptions opts;
  opts.hops = 1;
  opts.fanout_per_vertex = 5;
  auto result = KHopNeighbors(f.db.get(), 1, 1, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 5u);
}

TEST(TraversalTest, IsReachableWithinHops) {
  EngineFixture f;
  // Chain 1 -> 2 -> 3 -> 4.
  for (VertexId v = 1; v < 4; ++v) {
    ASSERT_TRUE(f.db->AddEdge(v, 1, v + 1, "", 1).ok());
  }
  TraversalOptions opts;
  opts.hops = 3;
  EXPECT_TRUE(IsReachable(f.db.get(), 1, 4, 1, opts).value());
  opts.hops = 2;
  EXPECT_FALSE(IsReachable(f.db.get(), 1, 4, 1, opts).value());
  EXPECT_TRUE(IsReachable(f.db.get(), 1, 1, 1, opts).value());  // trivially
}

// --- pattern matching -----------------------------------------------------------

TEST(PatternTest, MatchPathFollowsEdgeTypes) {
  EngineFixture f;
  // user -(1)-> video -(2)-> author
  ASSERT_TRUE(f.db->AddEdge(100, 1, 200, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(200, 2, 300, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(200, 2, 301, "", 1).ok());
  PathPattern pattern;
  pattern.edge_types = {1, 2};
  auto matches = MatchPath(f.db.get(), 100, pattern);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches.value().size(), 2u);
  EXPECT_EQ(matches.value()[0][0], 200u);
  EXPECT_EQ(matches.value()[0][1], 300u);
}

TEST(PatternTest, MatchPathHonorsMaxMatches) {
  EngineFixture f;
  for (VertexId d = 0; d < 50; ++d) {
    ASSERT_TRUE(f.db->AddEdge(1, 1, 100 + d, "", 1).ok());
  }
  PathPattern pattern;
  pattern.edge_types = {1};
  pattern.fanout_per_step = 64;
  pattern.max_matches = 10;
  auto matches = MatchPath(f.db.get(), 1, pattern);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches.value().size(), 10u);
}

TEST(PatternTest, DetectCycleFindsLoop) {
  EngineFixture f;
  // Money loop: 1 -> 2 -> 3 -> 1, plus a distractor branch.
  ASSERT_TRUE(f.db->AddEdge(1, 1, 2, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(2, 1, 3, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(3, 1, 1, "", 1).ok());
  ASSERT_TRUE(f.db->AddEdge(2, 1, 9, "", 1).ok());
  CycleOptions opts;
  opts.type = 1;
  opts.max_length = 4;
  EXPECT_TRUE(DetectCycle(f.db.get(), 1, opts).value());
  EXPECT_FALSE(DetectCycle(f.db.get(), 9, opts).value());
}

TEST(PatternTest, CycleLengthBoundRespected) {
  EngineFixture f;
  // 5-cycle.
  for (VertexId v = 0; v < 5; ++v) {
    ASSERT_TRUE(f.db->AddEdge(v, 1, (v + 1) % 5, "", 1).ok());
  }
  CycleOptions opts;
  opts.type = 1;
  opts.max_length = 4;
  EXPECT_FALSE(DetectCycle(f.db.get(), 0, opts).value());
  opts.max_length = 5;
  EXPECT_TRUE(DetectCycle(f.db.get(), 0, opts).value());
}

}  // namespace
}  // namespace bg3::graph

#include "graph/algorithms.h"

namespace bg3::graph {
namespace {

struct AlgoFixture {
  AlgoFixture() {
    store = std::make_unique<cloud::CloudStore>();
    core::GraphDBOptions opts;
    db = std::make_unique<core::GraphDB>(store.get(), opts);
  }
  void Edge(VertexId s, VertexId d) {
    ASSERT_TRUE(db->AddEdge(s, 1, d, "", 1).ok());
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<core::GraphDB> db;
};

TEST(AlgorithmsTest, CommonNeighborsAndJaccard) {
  AlgoFixture f;
  // N(1)={10,11,12}, N(2)={11,12,13,14} -> common 2, union 5.
  for (VertexId d : {10, 11, 12}) f.Edge(1, d);
  for (VertexId d : {11, 12, 13, 14}) f.Edge(2, d);
  SimilarityOptions opts;
  opts.type = 1;
  EXPECT_EQ(CommonNeighbors(f.db.get(), 1, 2, opts).value(), 2u);
  EXPECT_NEAR(JaccardSimilarity(f.db.get(), 1, 2, opts).value(), 2.0 / 5.0,
              1e-9);
}

TEST(AlgorithmsTest, JaccardOfDisconnectedVerticesIsZero) {
  AlgoFixture f;
  f.Edge(1, 10);
  SimilarityOptions opts;
  opts.type = 1;
  EXPECT_EQ(JaccardSimilarity(f.db.get(), 1, 2, opts).value(), 0.0);
  EXPECT_EQ(JaccardSimilarity(f.db.get(), 5, 6, opts).value(), 0.0);
}

TEST(AlgorithmsTest, PersonalizedPageRankMassAndLocality) {
  AlgoFixture f;
  // Two communities bridged by one edge; PPR from 1 should concentrate in
  // community A.
  for (VertexId a : {1, 2, 3}) {
    for (VertexId b : {1, 2, 3}) {
      if (a != b) f.Edge(a, b);
    }
  }
  for (VertexId a : {10, 11, 12}) {
    for (VertexId b : {10, 11, 12}) {
      if (a != b) f.Edge(a, b);
    }
  }
  f.Edge(3, 10);  // bridge
  PersonalizedPageRankOptions opts;
  opts.type = 1;
  opts.epsilon = 1e-6;
  auto scores = PersonalizedPageRank(f.db.get(), 1, opts);
  ASSERT_TRUE(scores.ok());
  double total = 0;
  for (const auto& [v, s] : scores.value()) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_LE(total, 1.0 + 1e-6);      // push never creates mass
  EXPECT_GT(total, 0.8);             // and converges close to 1
  EXPECT_GT(scores.value()[2], scores.value()[11]);  // locality
}

TEST(AlgorithmsTest, PageRankValidatesParameters) {
  AlgoFixture f;
  PersonalizedPageRankOptions opts;
  opts.alpha = 1.5;
  EXPECT_TRUE(PersonalizedPageRank(f.db.get(), 1, opts).status()
                  .IsInvalidArgument());
  opts.alpha = 0.15;
  opts.epsilon = 0;
  EXPECT_TRUE(PersonalizedPageRank(f.db.get(), 1, opts).status()
                  .IsInvalidArgument());
}

TEST(AlgorithmsTest, RecommendExcludesSelfAndDirectNeighbors) {
  AlgoFixture f;
  // 1 -> 2 -> {3,4}; 3,4 are second-order candidates.
  f.Edge(1, 2);
  f.Edge(2, 3);
  f.Edge(2, 4);
  f.Edge(3, 1);
  PersonalizedPageRankOptions opts;
  opts.type = 1;
  opts.epsilon = 1e-6;
  auto recs = RecommendByPageRank(f.db.get(), 1, 10, opts);
  ASSERT_TRUE(recs.ok());
  for (const auto& [v, score] : recs.value()) {
    EXPECT_NE(v, 1u);  // not self
    EXPECT_NE(v, 2u);  // not a direct neighbor
    EXPECT_GT(score, 0.0);
  }
  ASSERT_FALSE(recs.value().empty());
  EXPECT_TRUE(recs.value()[0].first == 3 || recs.value()[0].first == 4);
}

TEST(AlgorithmsTest, LocalTriangleCount) {
  AlgoFixture f;
  // Directed triangles through 1: 1->2->3 with 1->3 (and 1->3->2 missing
  // the 3->2 edge unless added).
  f.Edge(1, 2);
  f.Edge(2, 3);
  f.Edge(1, 3);
  TriangleOptions opts;
  opts.type = 1;
  EXPECT_EQ(LocalTriangleCount(f.db.get(), 1, opts).value(), 1u);
  f.Edge(3, 2);  // now 1->3->2 closes too
  EXPECT_EQ(LocalTriangleCount(f.db.get(), 1, opts).value(), 2u);
  EXPECT_EQ(LocalTriangleCount(f.db.get(), 9, opts).value(), 0u);
}

}  // namespace
}  // namespace bg3::graph

#include "graph/subgraph.h"

namespace bg3::graph {
namespace {

struct SubgraphFixture {
  SubgraphFixture() {
    store = std::make_unique<cloud::CloudStore>();
    core::GraphDBOptions opts;
    db = std::make_unique<core::GraphDB>(store.get(), opts);
  }
  void Edge(VertexId s, VertexId d) {
    ASSERT_TRUE(db->AddEdge(s, 1, d, "", 1).ok());
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<core::GraphDB> db;
};

TEST(SubgraphTest, ValidateRejectsBadPatterns) {
  SubgraphPattern empty;
  EXPECT_TRUE(ValidatePattern(empty).IsInvalidArgument());

  SubgraphPattern out_of_range;
  out_of_range.vertex_count = 2;
  out_of_range.edges = {PatternEdge{0, 5, 1}};
  EXPECT_TRUE(ValidatePattern(out_of_range).IsInvalidArgument());

  SubgraphPattern reverse_only;  // 1 -> 0 needs an in-neighbor index
  reverse_only.vertex_count = 2;
  reverse_only.edges = {PatternEdge{1, 0, 1}};
  EXPECT_TRUE(ValidatePattern(reverse_only).IsInvalidArgument());

  EXPECT_TRUE(ValidatePattern(CyclePattern(3, 1)).ok());
  EXPECT_TRUE(ValidatePattern(DiamondPattern(1)).ok());
}

TEST(SubgraphTest, TrianglePatternMatchesCycle) {
  SubgraphFixture f;
  f.Edge(1, 2);
  f.Edge(2, 3);
  f.Edge(3, 1);
  f.Edge(2, 9);  // distractor
  auto matches = MatchSubgraph(f.db.get(), 1, CyclePattern(3, 1));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches.value().size(), 1u);
  EXPECT_EQ(matches.value()[0], (SubgraphMatch{1, 2, 3}));
  // No triangle through 9.
  EXPECT_TRUE(MatchSubgraph(f.db.get(), 9, CyclePattern(3, 1)).value().empty());
}

TEST(SubgraphTest, DiamondPatternMatchesSplitRejoin) {
  SubgraphFixture f;
  // 10 splits to {11, 12}, both pay into 13; decoy path via 14 only half.
  f.Edge(10, 11);
  f.Edge(10, 12);
  f.Edge(11, 13);
  f.Edge(12, 13);
  f.Edge(10, 14);
  auto matches = MatchSubgraph(f.db.get(), 10, DiamondPattern(1));
  ASSERT_TRUE(matches.ok());
  // Two matches: (11,12) and (12,11) as the two intermediaries.
  ASSERT_EQ(matches.value().size(), 2u);
  for (const auto& m : matches.value()) {
    EXPECT_EQ(m[0], 10u);
    EXPECT_EQ(m[3], 13u);
    EXPECT_NE(m[1], m[2]);
  }
}

TEST(SubgraphTest, InjectivityDistinguishesHomomorphism) {
  SubgraphFixture f;
  // 1 -> 2 -> 1: the 4-cycle 1,2,1,2 exists only homomorphically.
  f.Edge(1, 2);
  f.Edge(2, 1);
  SubgraphPattern iso = CyclePattern(4, 1);
  EXPECT_TRUE(MatchSubgraph(f.db.get(), 1, iso).value().empty());
  SubgraphPattern homo = CyclePattern(4, 1);
  homo.injective = false;
  EXPECT_FALSE(MatchSubgraph(f.db.get(), 1, homo).value().empty());
}

TEST(SubgraphTest, MaxMatchesBoundsWork) {
  SubgraphFixture f;
  for (VertexId a = 100; a < 110; ++a) {
    f.Edge(1, a);
    f.Edge(a, 1);  // many 2-cycles through 1
  }
  SubgraphPattern p = CyclePattern(2, 1);
  p.max_matches = 4;
  auto matches = MatchSubgraph(f.db.get(), 1, p);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches.value().size(), 4u);
}

TEST(SubgraphTest, PathPatternViaGenericMatcher) {
  SubgraphFixture f;
  f.Edge(1, 2);
  f.Edge(2, 3);
  f.Edge(3, 4);
  SubgraphPattern path;
  path.vertex_count = 4;
  path.edges = {PatternEdge{0, 1, 1}, PatternEdge{1, 2, 1},
                PatternEdge{2, 3, 1}};
  auto matches = MatchSubgraph(f.db.get(), 1, path);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches.value().size(), 1u);
  EXPECT_EQ(matches.value()[0], (SubgraphMatch{1, 2, 3, 4}));
}

}  // namespace
}  // namespace bg3::graph
