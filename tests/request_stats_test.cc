// Per-request causal observability end to end (DESIGN.md §5.8): a traced
// k-hop query produces a `/tracez` span tree crossing query -> api ->
// forest -> bwtree -> cloud, its OpStats cloud counters reconcile exactly
// with the store's IoStats delta, the finished request folds nonzero
// bg3.cost.* attribution by layer and class, each traced boundary yields
// one span and a slow traced op one slow-op count, and the satellite
// OpContext fixes (WithTimeout saturation, trace-tagged deadline errors)
// hold.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/cost_model.h"
#include "common/metrics_registry.h"
#include "common/op_context.h"
#include "common/trace.h"
#include "core/graph_db.h"
#include "forest/buffer_pool.h"
#include "query/query.h"
#include "wal/writer.h"

namespace bg3 {
namespace {

constexpr graph::EdgeType kFollows = 1;

// Second dot-component of a span name ("bg3.forest.lookup" -> "forest").
std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t first = s.find('.');
  if (first == std::string::npos) return s;
  const size_t second = s.find('.', first + 1);
  return s.substr(first + 1, second == std::string::npos
                                 ? std::string::npos
                                 : second - first - 1);
}

uint64_t CounterOrZero(const MetricsRegistry::Snapshot& snap,
                       const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

uint64_t HistCountOrZero(const MetricsRegistry::Snapshot& snap,
                         const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.count;
}

constexpr const char* kNbrHist = "bg3.api.get_neighbors_ns";

class RequestStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Trace::Reset();
    trace::Trace::SetSlowOpThresholdNs(0);  // retain every traced request
  }
  void TearDown() override {
    trace::Trace::SetSlowOpThresholdNs(0);
    trace::Trace::Reset();
    CostAccounting::Default().SetModel(CostModelOptions{});
  }
};

// Builds a 2-hop fan-out graph, evicts every page so the traced query must
// fault them back from the cloud store, and runs the query under a traced
// context with an OpStats sink.
TEST_F(RequestStatsTest, TracedKHopQueryEndToEnd) {
  cloud::CloudStore store;
  core::GraphDBOptions opts;
  opts.forest.tree_options.max_leaf_entries = 8;
  core::GraphDB db(&store, opts);

  // 1 -> {2..17} -> {100+i*4 .. 103+i*4}: enough edges for multi-leaf pages.
  for (graph::VertexId mid = 2; mid <= 17; ++mid) {
    ASSERT_TRUE(db.AddEdge(1, kFollows, mid, "props", 1).ok());
    for (graph::VertexId j = 0; j < 4; ++j) {
      ASSERT_TRUE(
          db.AddEdge(mid, kFollows, 100 + mid * 4 + j, "props", 1).ok());
    }
  }
  // Evict everything resident so the query's reads hit the cloud store.
  std::vector<bwtree::BwTree*> trees;
  db.forest()->AppendTrees(&trees);
  trees.push_back(db.vertex_tree());
  BG3_IGNORE_STATUS(forest::EvictTreesToBudget(trees, /*budget_bytes=*/0));

  // Nonzero per-GB read pricing so the (read-only) request costs dollars.
  CostModelOptions pricing;
  pricing.usd_per_read_op = 1e-3;
  CostAccounting::Default().SetModel(pricing);

  OpStats stats;
  OpContext ctx = OpContext::Traced("khop_test", &stats);

  const auto cost_before = MetricsRegistry::Default().TakeSnapshot();
  const uint64_t nbr_calls_before = HistCountOrZero(cost_before, kNbrHist);
  const uint64_t reads_before = store.stats().read_ops.Get();
  const uint64_t read_bytes_before = store.stats().read_bytes.Get();

  auto result = query::Query(&db)
                    .V(1)
                    .Out(kFollows)
                    .Out(kFollows)
                    .Dedup()
                    .Context(&ctx)
                    .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().empty());

  // --- OpStats vs IoStats reconciliation (single-threaded: exact) ---------
  const uint64_t reads_delta = store.stats().read_ops.Get() - reads_before;
  const uint64_t read_bytes_delta =
      store.stats().read_bytes.Get() - read_bytes_before;
  ASSERT_GT(reads_delta, 0u) << "eviction did not force cloud reads";
  EXPECT_EQ(stats.CloudReadOps(), reads_delta);
  EXPECT_EQ(stats.CloudReadBytes(), read_bytes_delta);
  // Reads fault leaves back in; the bwtree layer must own them.
  EXPECT_GT(
      stats.layers[static_cast<size_t>(OpLayer::kBwtree)].cloud_read_ops.load(
          std::memory_order_relaxed),
      0u);
  EXPECT_GT(stats.cache_misses.load(std::memory_order_relaxed), 0u);

  // --- span tree: >= 4 layers, single root, closed parent links -----------
  const std::vector<trace::SlowTrace> retained =
      trace::Trace::RetainedTraces();
  const trace::SlowTrace* mine = nullptr;
  for (const trace::SlowTrace& t : retained) {
    if (t.trace_id == ctx.trace_id) mine = &t;
  }
  ASSERT_NE(mine, nullptr) << "traced request not retained (threshold 0)";
  EXPECT_EQ(mine->root_name, "bg3.query.execute");
  EXPECT_EQ(mine->workload_class, "khop_test");

  std::set<std::string> layers;
  std::set<uint64_t> span_ids;
  size_t roots = 0;
  for (const trace::SpanRecord& s : mine->spans) {
    layers.insert(LayerOf(s.name));
    span_ids.insert(s.span_id);
    if (s.parent_id == 0) ++roots;
  }
  EXPECT_EQ(roots, 1u) << "exactly one root span per trace";
  for (const trace::SpanRecord& s : mine->spans) {
    if (s.parent_id != 0) {
      EXPECT_TRUE(span_ids.count(s.parent_id))
          << s.name << " has dangling parent " << s.parent_id;
    }
  }
  // One span per layer boundary: spans are named by operation, never by
  // the histogram unit, and each GetNeighbors call the query made shows up
  // exactly once.
  const uint64_t nbr_calls =
      HistCountOrZero(MetricsRegistry::Default().TakeSnapshot(), kNbrHist) -
      nbr_calls_before;
  EXPECT_GT(nbr_calls, 1u);
  EXPECT_EQ(mine->dropped_spans, 0u);
  size_t nbr_spans = 0;
  for (const trace::SpanRecord& s : mine->spans) {
    const std::string name(s.name);
    EXPECT_FALSE(name.size() > 3 && name.substr(name.size() - 3) == "_ns")
        << "span named like a histogram: " << name;
    if (name == "bg3.api.get_neighbors") ++nbr_spans;
  }
  EXPECT_EQ(nbr_spans, nbr_calls);

  EXPECT_GE(layers.size(), 4u) << "layers: "
                               << ::testing::PrintToString(layers);
  EXPECT_TRUE(layers.count("query"));
  EXPECT_TRUE(layers.count("forest"));
  EXPECT_TRUE(layers.count("bwtree"));
  EXPECT_TRUE(layers.count("cloud"));

  // --- cost attribution folded at root end --------------------------------
  const auto cost_after = MetricsRegistry::Default().TakeSnapshot();
  EXPECT_GT(CounterOrZero(cost_after, "bg3.cost.layer.bwtree.nanousd"),
            CounterOrZero(cost_before, "bg3.cost.layer.bwtree.nanousd"));
  EXPECT_GT(CounterOrZero(cost_after, "bg3.cost.class.khop_test.nanousd"),
            CounterOrZero(cost_before, "bg3.cost.class.khop_test.nanousd"));
  EXPECT_GT(CounterOrZero(cost_after, "bg3.cost.total_nanousd"),
            CounterOrZero(cost_before, "bg3.cost.total_nanousd"));
  EXPECT_GE(CounterOrZero(cost_after, "bg3.cost.requests"),
            CounterOrZero(cost_before, "bg3.cost.requests") + 1);

  // The retained trace also renders into /tracez.
  const std::string tracez = trace::Trace::RenderTracez();
  EXPECT_NE(tracez.find("bg3.query.execute"), std::string::npos);
  EXPECT_NE(tracez.find("khop_test"), std::string::npos);
}

// WAL appends are billed to the appending request at enqueue, under the wal
// layer, even though the group flush may happen later.
TEST_F(RequestStatsTest, WalAppendsBilledToRequest) {
  cloud::CloudStore store;
  wal::WalWriterOptions wopts;
  wopts.stream = store.CreateStream("wal-test");
  wopts.group_size = 4;
  wal::WalWriter writer(&store, wopts);

  OpStats stats;
  OpContext ctx = OpContext::Traced("wal_test", &stats);
  for (int i = 0; i < 3; ++i) {
    wal::WalRecord rec;
    rec.tree_id = 1;
    rec.page_id = 1;
    rec.lsn = static_cast<uint64_t>(i + 1);
    rec.entry.key = "k" + std::to_string(i);
    rec.entry.value = "payload";
    ASSERT_TRUE(writer.Append(std::move(rec), &ctx).ok());
  }
  EXPECT_EQ(stats.wal_appends.load(std::memory_order_relaxed), 3u);
  EXPECT_GT(stats.wal_append_bytes.load(std::memory_order_relaxed), 0u);
  // group_size 4 not reached: no flush yet, so no cloud append was billed.
  EXPECT_EQ(stats.CloudAppendOps(), 0u);

  ASSERT_TRUE(writer.Flush(&ctx).ok());
  // The flush's batch append lands under the wal layer.
  EXPECT_EQ(stats.CloudAppendOps(), 1u);
  EXPECT_GT(
      stats.layers[static_cast<size_t>(OpLayer::kWal)].cloud_append_ops.load(
          std::memory_order_relaxed),
      0u);
}

// Satellite (a): WithTimeout must saturate, not wrap, on huge timeouts.
TEST(OpContextTimeoutTest, WithTimeoutSaturatesInsteadOfWrapping) {
  ManualTimeSource clock;
  clock.SetUs(1'000'000);
  const OpContext forever =
      OpContext::WithTimeout(&clock, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(forever.deadline_us, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(forever.Expired());
  EXPECT_TRUE(ValidateOpContext(&forever).ok());

  // One microsecond under the wrap point still saturates.
  const OpContext nearly = OpContext::WithTimeout(
      &clock, std::numeric_limits<uint64_t>::max() - clock.NowUs() + 1);
  EXPECT_EQ(nearly.deadline_us, std::numeric_limits<uint64_t>::max());

  // Normal timeouts are unaffected.
  const OpContext normal = OpContext::WithTimeout(&clock, 500);
  EXPECT_EQ(normal.deadline_us, clock.NowUs() + 500);
}

// Satellite (b): deadline errors from traced requests carry the trace id
// and workload class, joinable against /tracez.
TEST(OpContextTimeoutTest, DeadlineErrorsCarryTraceIdentity) {
  ManualTimeSource clock;
  clock.SetUs(100);
  OpContext ctx = OpContext::Traced("deadline_class", nullptr);
  ctx.clock = &clock;
  ctx.deadline_us = 50;  // already past

  const Status s = CheckDeadline(&ctx, "unit test");
  ASSERT_TRUE(s.IsDeadlineExceeded());
  EXPECT_NE(s.ToString().find("trace="), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("class=deadline_class"), std::string::npos);

  char expect[64];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(ctx.trace_id));
  EXPECT_NE(s.ToString().find(expect), std::string::npos)
      << "message must carry the exact trace id";

  // Untraced contexts keep the old message shape (no identity suffix).
  OpContext plain;
  plain.clock = &clock;
  plain.deadline_us = 50;
  const Status s2 = CheckDeadline(&plain, "unit test");
  ASSERT_TRUE(s2.IsDeadlineExceeded());
  EXPECT_EQ(s2.ToString().find("trace="), std::string::npos);
}

// Traced writes attribute admission queueing and API-layer work; the
// request counter moves exactly once per root op.
TEST_F(RequestStatsTest, TracedWriteFoldsOneRequest) {
  cloud::CloudStore store;
  core::GraphDBOptions opts;
  core::GraphDB db(&store, opts);

  OpStats stats;
  OpContext ctx = OpContext::Traced("write_test", &stats);
  const auto before = MetricsRegistry::Default().TakeSnapshot();
  ASSERT_TRUE(db.AddEdge(1, kFollows, 2, "p", 1, &ctx).ok());
  const auto after = MetricsRegistry::Default().TakeSnapshot();
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.requests") -
                CounterOrZero(before, "bg3.cost.requests"),
            1u);

  const std::vector<trace::SlowTrace> retained =
      trace::Trace::RetainedTraces();
  bool found = false;
  for (const trace::SlowTrace& t : retained) {
    if (t.trace_id == ctx.trace_id) {
      found = true;
      EXPECT_EQ(t.root_name, "bg3.api.add_edge");
    }
  }
  EXPECT_TRUE(found);
}

// A traced slow op is one top-level operation: the API scope is both the
// trace root and the outermost scope on the thread, so it is counted and
// logged once.
TEST_F(RequestStatsTest, TracedSlowOpCountedOnce) {
  cloud::CloudStore store;
  core::GraphDB db(&store, core::GraphDBOptions{});
  OpContext ctx = OpContext::Traced("slow_test", nullptr);

  const uint64_t count_before = trace::Trace::SlowOpCount();
  const uint64_t counter_before = CounterOrZero(
      MetricsRegistry::Default().TakeSnapshot(), "bg3.trace.slow_ops");
  trace::Trace::SetSlowOpThresholdNs(1);  // every op is slow
  ASSERT_TRUE(db.AddEdge(1, kFollows, 2, "p", 1, &ctx).ok());
  trace::Trace::SetSlowOpThresholdNs(0);

  EXPECT_EQ(trace::Trace::SlowOpCount() - count_before, 1u);
  EXPECT_EQ(CounterOrZero(MetricsRegistry::Default().TakeSnapshot(),
                          "bg3.trace.slow_ops") -
                counter_before,
            1u);
}

}  // namespace
}  // namespace bg3
