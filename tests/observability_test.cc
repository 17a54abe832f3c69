// Tests for the observability stack: sharded Histogram percentiles and
// merge, the process-wide MetricsRegistry (ownership, collisions, snapshot
// determinism), the one span path (the slow-op log, trace roots, tail
// retention, the per-thread span cap), JsonWriter, and BG3_TIMED_SCOPE — its
// histogram, its layer, and its disabled-path cost (see DESIGN.md §5.3 for
// the budget).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/json_writer.h"
#include "common/metrics_registry.h"
#include "common/op_context.h"
#include "common/timed_scope.h"
#include "common/trace.h"
#include "gtest/gtest.h"

namespace bg3 {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, ExactStatsOnKnownDistribution) {
  Histogram h;
  // 1..1000 once each: count/sum/min/max are exact regardless of bucketing.
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
    sum += v;
  }
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), sum / 1000.0);
}

TEST(HistogramTest, PercentilesWithinBucketResolution) {
  Histogram h;
  for (uint64_t v = 1; v <= 10'000; ++v) h.Record(v);
  // 4 sub-buckets per power of two + linear interpolation: relative error
  // is bounded by one sub-bucket width (25% of the value's power of two),
  // in practice much less. Assert a 15% envelope at three quantiles.
  for (double q : {0.50, 0.95, 0.99}) {
    const double expected = q * 10'000;
    const double got = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(got, expected, expected * 0.15) << "q=" << q;
  }
  // p100 is the exact max.
  EXPECT_EQ(h.Percentile(1.0), 10'000u);
}

TEST(HistogramTest, PercentileOfPointMassIsExactish) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(42);
  // All mass in one bucket: every quantile lands inside it.
  EXPECT_GE(h.Percentile(0.5), 40u);
  EXPECT_LE(h.Percentile(0.5), 48u);
  EXPECT_EQ(h.Min(), 42u);
  EXPECT_EQ(h.Max(), 42u);
}

TEST(HistogramTest, MergeFoldsCountsAndExtremes) {
  Histogram a, b;
  for (uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (uint64_t v = 1'000; v <= 1'100; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 201u);
  EXPECT_EQ(a.Min(), 1u);
  EXPECT_EQ(a.Max(), 1'100u);
  // Upper quantiles now come from b's range.
  EXPECT_GE(a.Percentile(0.99), 900u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(7);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(HistogramTest, SnapshotIsInternallyConsistent) {
  Histogram h;
  for (uint64_t v = 1; v <= 500; ++v) h.Record(v);
  const Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 500u);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.Percentile(1.0), 500u);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record(t * 1'000 + 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  EXPECT_EQ(h.Min(), 1u);
  // Concurrent snapshot during writes is exercised by the stress test in
  // concurrency_stress_test.cc; here writers are joined, so exact.
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, OwnedMetricsAreGetOrCreate) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Counter* c1 = reg.GetCounter("obs_test.owned.counter");
  Counter* c2 = reg.GetCounter("obs_test.owned.counter");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  const auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("obs_test.owned.counter"), 3u);
  reg.GetHistogram("obs_test.owned.hist")->Record(9);
  EXPECT_EQ(reg.TakeSnapshot().histograms.at("obs_test.owned.hist").count, 1u);
}

TEST(MetricsRegistryTest, CrossKindReuseAborts) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("obs_test.crosskind");
  EXPECT_DEATH(reg.GetHistogram("obs_test.crosskind"),
               "already registered with a different kind");
}

TEST(MetricsRegistryTest, DuplicateExternalRegistrationCountsCollision) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  const uint64_t before = reg.collisions();
  Counter a, b;
  EXPECT_TRUE(reg.RegisterCounter("obs_test.dup", &a));
  EXPECT_FALSE(reg.RegisterCounter("obs_test.dup", &b));  // first wins
  EXPECT_EQ(reg.collisions(), before + 1);
  a.Add(5);
  b.Add(7);
  const auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("obs_test.dup"), 5u);
  EXPECT_GE(snap.counters.at("bg3.registry.collisions"), before + 1);
  reg.Deregister("obs_test.dup");
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicAtQuiescence) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("obs_test.det.a")->Add(1);
  reg.GetGauge("obs_test.det.b")->Add(2);
  reg.GetHistogram("obs_test.det.c")->Record(3);
  const std::string json1 = reg.RenderJson();
  const std::string json2 = reg.RenderJson();
  EXPECT_EQ(json1, json2);
  const std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("obs_test_det_a 1"), std::string::npos) << prom;
}

TEST(MetricsRegistryTest, DeregisterPrefixRemovesExternalsOnly) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Counter ext;
  reg.RegisterCounter("obs_test.prefix.ext", &ext);
  reg.RegisterCallback("obs_test.prefix.cb", [] { return uint64_t{4}; });
  reg.GetCounter("obs_test.prefix.owned");
  reg.DeregisterPrefix("obs_test.prefix.");
  const auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.count("obs_test.prefix.ext"), 0u);
  EXPECT_EQ(snap.counters.count("obs_test.prefix.cb"), 0u);
  // Owned metrics survive: scope-static histogram pointers must stay valid.
  EXPECT_EQ(snap.counters.count("obs_test.prefix.owned"), 1u);
}

TEST(MetricsRegistryTest, CallbackMayReenterRegistry) {
  // Snapshot evaluates callbacks after releasing the registry mutex, so a
  // callback that itself creates metrics (as engine code under
  // BG3_TIMED_SCOPE does) must not deadlock.
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.RegisterCallback("obs_test.reenter", [&reg] {
    return reg.GetCounter("obs_test.reenter.inner")->Get();
  });
  const auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("obs_test.reenter"), 0u);
  reg.Deregister("obs_test.reenter");
}

TEST(MetricsRegistryTest, InstanceIdsAreSequencedPerKind) {
  const uint64_t a = MetricsRegistry::NextInstanceId("obs_test_kind");
  const uint64_t b = MetricsRegistry::NextInstanceId("obs_test_kind");
  const uint64_t other = MetricsRegistry::NextInstanceId("obs_test_kind2");
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(other, 0u);
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, CompactObjectWithEscapes) {
  JsonWriter w;
  w.BeginObject();
  w.KV("s", std::string("a\"b\\c\nd"));
  w.KV("i", uint64_t{7});
  w.KV("d", 1.5);
  w.KV("b", true);
  w.Key("null");
  w.Null();
  w.Key("arr");
  w.BeginArray();
  w.Value(1);
  w.Value("two");
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":7,\"d\":1.5,\"b\":true,"
            "\"null\":null,\"arr\":[1,\"two\"]}");
}

TEST(JsonWriterTest, IndentedNesting) {
  JsonWriter w(2);
  w.BeginObject();
  w.Key("o");
  w.BeginObject();
  w.KV("x", 1);
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n  \"o\": {\n    \"x\": 1\n  }\n}");
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::Trace::Reset(); }
  void TearDown() override {
    trace::Trace::SetSlowOpThresholdNs(0);
    trace::Trace::Reset();
  }
};

TEST_F(TraceTest, SlowOpThresholdCountsOnlySlowRoots) {
  trace::Trace::SetSlowOpThresholdNs(1);  // everything is slow
  const uint64_t before = trace::Trace::SlowOpCount();
  {
    BG3_TIMED_SCOPE("bg3.test.slow_root");
    BG3_TIMED_SCOPE("bg3.test.fast_child");  // depth>0: not counted
  }
  EXPECT_EQ(trace::Trace::SlowOpCount(), before + 1);

  trace::Trace::SetSlowOpThresholdNs(60ull * 1'000'000'000);  // 1 min
  {
    BG3_TIMED_SCOPE("bg3.test.fast_root");
  }
  EXPECT_EQ(trace::Trace::SlowOpCount(), before + 1);
}

// A traced request nested in an untraced op is part of that one op: only the
// thread's outermost scope counts it and dumps it, and the dump holds every
// span, the traced subtree included, in start order.
TEST_F(TraceTest, NestedTracedRootCountsOnceAndDumpsInStartOrder) {
  trace::Trace::SetSlowOpThresholdNs(1);  // everything is slow
  const uint64_t before = trace::Trace::SlowOpCount();
  OpContext ctx = OpContext::Traced("nested_root", nullptr);
  ::testing::internal::CaptureStderr();
  {
    BG3_TIMED_SCOPE("bg3.test.untraced_outer");
    {
      BG3_TIMED_SCOPE("bg3.test.child_a");
    }
    {
      BG3_TIMED_SCOPE("bg3.test.child_b");
    }
    {
      BG3_TIMED_SCOPE("bg3.test.traced_inner", OpLayer::kOther, &ctx);
      BG3_TIMED_SCOPE("bg3.test.traced_leaf");
    }
  }
  const std::string dump = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(trace::Trace::SlowOpCount(), before + 1) << dump;

  const size_t outer = dump.find("bg3.test.untraced_outer took");
  const size_t a = dump.find("bg3.test.child_a");
  const size_t b = dump.find("bg3.test.child_b");
  const size_t inner = dump.find("bg3.test.traced_inner");
  const size_t leaf = dump.find("bg3.test.traced_leaf");
  ASSERT_NE(outer, std::string::npos) << dump;
  ASSERT_NE(a, std::string::npos) << dump;
  ASSERT_NE(b, std::string::npos) << dump;
  ASSERT_NE(inner, std::string::npos) << dump;
  ASSERT_NE(leaf, std::string::npos) << dump;
  EXPECT_LT(outer, a) << dump;
  EXPECT_LT(a, b) << dump;
  EXPECT_LT(b, inner) << dump;
  EXPECT_LT(inner, leaf) << dump;
  EXPECT_EQ(dump.find("[bg3 slow-op] bg3.test.traced_inner took"),
            std::string::npos)
      << "a nested root is not an op of its own: " << dump;
}

// ---------------------------------------------------------------------------
// Per-request tracing: trace roots and tail-based retention
// ---------------------------------------------------------------------------

class RequestTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Trace::Reset();
    trace::Trace::SetSlowOpThresholdNs(0);
  }
  void TearDown() override {
    trace::Trace::SetSlowOpThresholdNs(0);
    trace::Trace::Reset();
  }
};

const trace::SlowTrace* FindTrace(const std::vector<trace::SlowTrace>& all,
                                  uint64_t trace_id) {
  for (const auto& t : all) {
    if (t.trace_id == trace_id) return &t;
  }
  return nullptr;
}

TEST_F(RequestTraceTest, NestedTracedRootRetainsOnlyItsSubtree) {
  trace::Trace::SetSlowOpThresholdNs(1);  // every op and root is slow
  OpContext ctx = OpContext::Traced("subtree", nullptr);
  ::testing::internal::CaptureStderr();
  {
    BG3_TIMED_SCOPE("bg3.test.plain_outer");
    {
      BG3_TIMED_SCOPE("bg3.test.plain_child");
    }
    BG3_TIMED_SCOPE("bg3.test.subtree_root", OpLayer::kOther, &ctx);
    BG3_TIMED_SCOPE("bg3.test.subtree_leaf");
  }
  (void)::testing::internal::GetCapturedStderr();
  const auto retained = trace::Trace::RetainedTraces();
  const trace::SlowTrace* mine = FindTrace(retained, ctx.trace_id);
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->root_name, "bg3.test.subtree_root");
  EXPECT_EQ(mine->workload_class, "subtree");
  ASSERT_EQ(mine->spans.size(), 2u);
  EXPECT_STREQ(mine->spans[0].name, "bg3.test.subtree_root");
  EXPECT_EQ(mine->spans[0].parent_id, 0u);
  EXPECT_STREQ(mine->spans[1].name, "bg3.test.subtree_leaf");
  EXPECT_EQ(mine->spans[1].parent_id, mine->spans[0].span_id);
}

// A trace records only on its root's thread: a scope on another thread
// while the root is open writes nothing into it.
TEST_F(RequestTraceTest, OtherThreadsDoNotJoinTheTrace) {
  OpContext ctx = OpContext::Traced("one_thread", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.thread_root", OpLayer::kOther, &ctx);
    std::thread worker([] { BG3_TIMED_SCOPE("bg3.test.other_thread"); });
    worker.join();
  }
  const auto retained = trace::Trace::RetainedTraces();
  const trace::SlowTrace* mine = FindTrace(retained, ctx.trace_id);
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->spans.size(), 1u);
  EXPECT_STREQ(mine->spans[0].name, "bg3.test.thread_root");
}

// One cap per thread: spans past it are dropped and counted, and the next
// op starts with an empty buffer.
TEST_F(RequestTraceTest, SpanCapDropsAndCountsPerOp) {
  constexpr size_t kCap = obs::internal::ThreadState::kMaxSpans;
  constexpr size_t kChildren = kCap + 88;
  OpContext big = OpContext::Traced("big", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.big_root", OpLayer::kOther, &big);
    for (size_t i = 0; i < kChildren; ++i) {
      BG3_TIMED_SCOPE("bg3.test.many");
    }
  }
  OpContext small = OpContext::Traced("small", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.small_root", OpLayer::kOther, &small);
    BG3_TIMED_SCOPE("bg3.test.one");
  }
  const auto retained = trace::Trace::RetainedTraces();
  const trace::SlowTrace* b = FindTrace(retained, big.trace_id);
  const trace::SlowTrace* s = FindTrace(retained, small.trace_id);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(b->spans.size(), kCap);
  EXPECT_EQ(b->dropped_spans, kChildren + 1 - kCap);
  EXPECT_EQ(s->spans.size(), 2u);
  EXPECT_EQ(s->dropped_spans, 0u);
}

TEST_F(RequestTraceTest, TracezRendersRetainedSpanTree) {
  OpContext ctx = OpContext::Traced("tracez_class", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.tracez_root", OpLayer::kOther, &ctx);
    BG3_TIMED_SCOPE("bg3.test.tracez_child");
  }
  const std::string json = trace::Trace::RenderTracez();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("bg3.test.tracez_root"), std::string::npos);
  EXPECT_NE(json.find("bg3.test.tracez_child"), std::string::npos);
  EXPECT_NE(json.find("tracez_class"), std::string::npos);
  // cat is the second dot-component of the name.
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos) << json;

  trace::Trace::Reset();
  EXPECT_EQ(trace::Trace::RenderTracez().find("bg3.test.tracez_root"),
            std::string::npos);
}

TEST_F(RequestTraceTest, TailSamplingKeepsSlowDropsFast) {
  trace::Trace::SetSlowOpThresholdNs(5'000'000);  // 5 ms

  OpContext fast = OpContext::Traced("fast", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.fast_op", OpLayer::kOther, &fast);
  }
  OpContext slow = OpContext::Traced("slow", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.slow_op", OpLayer::kOther, &slow);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const auto retained = trace::Trace::RetainedTraces();
  bool fast_kept = false, slow_kept = false;
  for (const auto& t : retained) {
    if (t.trace_id == fast.trace_id) fast_kept = true;
    if (t.trace_id == slow.trace_id) slow_kept = true;
  }
  EXPECT_FALSE(fast_kept) << "sub-threshold trace must be dropped";
  EXPECT_TRUE(slow_kept) << "over-threshold trace must be retained";
}

TEST_F(RequestTraceTest, ThresholdZeroRetainsEveryTracedRequest) {
  OpContext ctx = OpContext::Traced("always", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.instant_op", OpLayer::kOther, &ctx);
  }
  bool kept = false;
  for (const auto& t : trace::Trace::RetainedTraces()) {
    if (t.trace_id == ctx.trace_id) kept = true;
  }
  EXPECT_TRUE(kept);
}

TEST_F(RequestTraceTest, NestedScopesShareOneRoot) {
  OpContext ctx = OpContext::Traced("nested", nullptr);
  {
    BG3_TIMED_SCOPE("bg3.test.outer_op", OpLayer::kOther, &ctx);
    BG3_TIMED_SCOPE("bg3.test.inner_op", OpLayer::kOther, &ctx);  // child
  }
  const auto retained = trace::Trace::RetainedTraces();
  const trace::SlowTrace* mine = FindTrace(retained, ctx.trace_id);
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->root_name, "bg3.test.outer_op");
  size_t roots = 0;
  for (const auto& s : mine->spans) {
    if (s.parent_id == 0) ++roots;
  }
  EXPECT_EQ(roots, 1u);
}

TEST_F(RequestTraceTest, UntracedContextRecordsNothing) {
  OpContext plain;  // trace_id 0
  const size_t before = trace::Trace::RetainedTraces().size();
  {
    BG3_TIMED_SCOPE("bg3.test.untraced_op", OpLayer::kOther, &plain);
    BG3_TIMED_SCOPE("bg3.test.null_op", OpLayer::kOther, nullptr);
  }
  EXPECT_EQ(trace::Trace::RetainedTraces().size(), before);
}

// ---------------------------------------------------------------------------
// BG3_TIMED_SCOPE: histogram, layer, and the disabled fast path
// ---------------------------------------------------------------------------

TEST(ObsScopeTest, RecordsIntoRegistryHistogram) {
  obs::SetTimingEnabled(true);
  for (int i = 0; i < 10; ++i) {
    BG3_TIMED_SCOPE("obs_test.timed.scope");
  }
  const auto snap = MetricsRegistry::Default().TakeSnapshot();
  EXPECT_EQ(snap.histograms.at("obs_test.timed.scope_ns").count, 10u);
}

TEST(ObsScopeTest, DisabledTimingRecordsNothing) {
  obs::SetTimingEnabled(false);
  for (int i = 0; i < 10; ++i) {
    BG3_TIMED_SCOPE("obs_test.timed.disabled");
  }
  obs::SetTimingEnabled(true);
  const auto snap = MetricsRegistry::Default().TakeSnapshot();
  EXPECT_EQ(snap.histograms.at("obs_test.timed.disabled_ns").count, 0u);
}

TEST(ObsScopeTest, LayerIsScopedAndInnermostWins) {
  EXPECT_EQ(CurrentOpLayer(), OpLayer::kOther);
  {
    BG3_TIMED_SCOPE("obs_test.timed.layer_outer", OpLayer::kForest);
    EXPECT_EQ(CurrentOpLayer(), OpLayer::kForest);
    {
      obs::Scope layer(OpLayer::kBwtree);
      EXPECT_EQ(CurrentOpLayer(), OpLayer::kBwtree);
      BG3_TIMED_SCOPE("obs_test.timed.layer_inherit");  // keeps kBwtree
      EXPECT_EQ(CurrentOpLayer(), OpLayer::kBwtree);
    }
    EXPECT_EQ(CurrentOpLayer(), OpLayer::kForest);
  }
  EXPECT_EQ(CurrentOpLayer(), OpLayer::kOther);
}

// Acceptance bar: with timing off, no slow-op log and an untraced context —
// the state of an API entry in a process with timing disabled — a scope
// that names a layer and a context must stay in single-digit nanoseconds:
// one relaxed atomic load and a branch, a context check, and the layer
// save/restore. The assertion budget is enforced only in plain optimized
// builds: sanitizers multiply the cost of atomics by an order of magnitude,
// and debug builds don't inline the scope, so there the test only
// sanity-checks an upper bound.
TEST(ObsScopeTest, DisabledUntracedOverheadUnderBudget) {
  obs::SetTimingEnabled(false);
  trace::Trace::SetSlowOpThresholdNs(0);
  OpContext plain;  // trace_id 0

  // Short chunks, many reps: a ~0.6 ms chunk fits inside one scheduler
  // quantum even on a single-core host running parallel test binaries, so
  // the min over reps measures the fast path itself, not preemption.
  constexpr int kIters = 200'000;
  constexpr int kReps = 20;
  // Warm the static histogram-pointer initialization out of the timing.
  {
    BG3_TIMED_SCOPE("obs_test.timed.overhead", OpLayer::kApi, &plain);
  }
  double ns_per_op = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t start = NowNanos();
    for (int i = 0; i < kIters; ++i) {
      BG3_TIMED_SCOPE("obs_test.timed.overhead", OpLayer::kApi, &plain);
    }
    const uint64_t elapsed = NowNanos() - start;
    ns_per_op = std::min(ns_per_op, static_cast<double>(elapsed) / kIters);
  }
  obs::SetTimingEnabled(true);

  printf("disabled, untraced BG3_TIMED_SCOPE: %.2f ns/op\n", ns_per_op);
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BG3_OBS_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BG3_OBS_TEST_SANITIZED 1
#endif
#if !defined(BG3_OBS_TEST_SANITIZED) && defined(NDEBUG)
  const char* budget_env = getenv("BG3_OVERHEAD_BUDGET_NS");
  const double budget =
      budget_env != nullptr ? strtod(budget_env, nullptr) : 10.0;
  EXPECT_LT(ns_per_op, budget)
      << "disabled timed-scope fast path regressed past " << budget
      << " ns/op";
#else
  EXPECT_LT(ns_per_op, 1'000.0);  // debug/sanitizer: sanity bound only
#endif
}

}  // namespace
}  // namespace bg3
