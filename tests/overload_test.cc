// Overload-protection tests (DESIGN.md §5.5): per-class admission control
// with bounded queues, write-throttle watermarks, the cloud-store circuit
// breaker, WAL-backlog write shedding, RO stale-degrade reporting, and the
// deadline edge cases at every API boundary (zero/past = caller bug =
// InvalidArgument; mid-op expiry = DeadlineExceeded preserving the first
// root-cause error; null context = the exact historical fast path).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "common/circuit_breaker.h"
#include "common/metrics_registry.h"
#include "common/op_context.h"
#include "common/time_source.h"
#include "core/admission.h"
#include "core/graph_db.h"
#include "query/query.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"

namespace bg3::core {
namespace {

// ---------------------------------------------------------------------------
// AdmissionController

TEST(AdmissionTest, DisabledAdmitsEverythingAndOnlyCounts) {
  AdmissionController ctrl(AdmissionOptions{});  // enabled = false
  AdmissionController::Permit p;
  for (OpClass cls : {OpClass::kRead, OpClass::kWrite, OpClass::kBackground}) {
    EXPECT_TRUE(ctrl.Admit(cls, nullptr, &p).ok());
  }
  EXPECT_EQ(ctrl.admitted().Get(), 3u);
  EXPECT_EQ(ctrl.shed().Get(), 0u);
  EXPECT_EQ(ctrl.InFlight(OpClass::kRead), 0u) << "disabled = no slot taken";
}

TEST(AdmissionTest, BoundedQueueShedsWhenFull) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.write_slots = 2;
  opts.write_queue = 0;  // no waiting: the third arrival is shed outright.
  AdmissionController ctrl(opts);

  AdmissionController::Permit a, b, c;
  ASSERT_TRUE(ctrl.Admit(OpClass::kWrite, nullptr, &a).ok());
  ASSERT_TRUE(ctrl.Admit(OpClass::kWrite, nullptr, &b).ok());
  EXPECT_EQ(ctrl.InFlight(OpClass::kWrite), 2u);

  const Status s = ctrl.Admit(OpClass::kWrite, nullptr, &c);
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_NE(s.ToString().find("admission queue full (write)"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(ctrl.shed().Get(), 1u);

  a.Release();
  EXPECT_TRUE(ctrl.Admit(OpClass::kWrite, nullptr, &c).ok())
      << "released slot must be reusable";
}

TEST(AdmissionTest, ClassesAreIsolated) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.write_slots = 1;
  opts.write_queue = 0;
  opts.read_slots = 1;
  opts.read_queue = 0;
  AdmissionController ctrl(opts);

  AdmissionController::Permit w, w2, r;
  ASSERT_TRUE(ctrl.Admit(OpClass::kWrite, nullptr, &w).ok());
  EXPECT_TRUE(ctrl.Admit(OpClass::kWrite, nullptr, &w2).IsOverloaded());
  // A saturated write class must not shed reads.
  EXPECT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &r).ok());
}

TEST(AdmissionTest, QueuedWaiterAdmitsWhenSlotFrees) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.read_slots = 1;
  opts.read_queue = 4;
  opts.poll_granularity_us = 200;
  AdmissionController ctrl(opts);

  AdmissionController::Permit held;
  ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &held).ok());

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    AdmissionController::Permit p;
    ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &p).ok());
    admitted.store(true);
  });
  // The waiter must actually queue (not shed) before the slot frees.
  while (ctrl.Queued(OpClass::kRead) == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(ctrl.queue_depth().Get(), 1);

  held.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ctrl.queue_depth().Get(), 0);
  EXPECT_EQ(ctrl.admitted().Get(), 2u);
}

TEST(AdmissionTest, WriteThrottleShedsOnlyWrites) {
  AdmissionOptions opts;
  opts.enabled = true;
  AdmissionController ctrl(opts);

  ctrl.SetWriteThrottle(ThrottleReason::kMemoryPressure);
  AdmissionController::Permit p;
  const Status s = ctrl.Admit(OpClass::kWrite, nullptr, &p);
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_NE(s.ToString().find("memory-pressure"), std::string::npos)
      << s.ToString();

  // Reads and background catch-up work drain pressure; they pass.
  AdmissionController::Permit r, b;
  EXPECT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &r).ok());
  EXPECT_TRUE(ctrl.Admit(OpClass::kBackground, nullptr, &b).ok());

  ctrl.SetWriteThrottle(0);
  AdmissionController::Permit w;
  EXPECT_TRUE(ctrl.Admit(OpClass::kWrite, nullptr, &w).ok())
      << "clearing the watermark must restore writes";
}

TEST(AdmissionTest, ExpiredDeadlineDiesInQueueNotInFlight) {
  ManualTimeSource clock;
  clock.SetUs(1'000'000);
  AdmissionOptions opts;
  opts.enabled = true;
  opts.read_slots = 1;
  opts.read_queue = 4;
  opts.poll_granularity_us = 100;
  opts.time_source = &clock;
  AdmissionController ctrl(opts);

  AdmissionController::Permit held;
  ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &held).ok());

  // Already expired on its own clock: the op queues, notices on the first
  // poll slice, and leaves with DeadlineExceeded (the boundary
  // InvalidArgument check is the owning DB's job, not the controller's).
  OpContext ctx;
  ctx.clock = &clock;
  ctx.deadline_us = 999'999;
  AdmissionController::Permit p;
  const Status s = ctrl.Admit(OpClass::kRead, &ctx, &p);
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_NE(s.ToString().find("admission queue (read)"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(ctrl.deadline_exceeded().Get(), 1u);
  EXPECT_EQ(ctrl.Queued(OpClass::kRead), 0u) << "waiter must be unwound";
  EXPECT_EQ(ctrl.queue_depth().Get(), 0);
}

TEST(AdmissionTest, PredictedServiceTimeShedsDoomedArrivalsAtTheDoor) {
  ManualTimeSource clock;
  AdmissionOptions opts;
  opts.enabled = true;
  opts.read_slots = 2;
  opts.read_queue = 8;
  opts.time_source = &clock;
  AdmissionController ctrl(opts);

  // Seed the service-time estimate: one permit held for 10 ms.
  {
    AdmissionController::Permit p;
    ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &p).ok());
    clock.AdvanceUs(10'000);
  }

  // One op in flight, one slot still free.
  AdmissionController::Permit busy;
  ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &busy).ok());

  // The free slot is not enough: 1 ms of budget cannot survive a ~10 ms
  // expected service (default margin 2.0), so the op is shed instead of
  // wasting a full service time and finishing late.
  const OpContext tight = OpContext::WithTimeout(&clock, 1'000);
  AdmissionController::Permit p;
  const Status s = ctrl.Admit(OpClass::kRead, &tight, &p);
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_NE(s.ToString().find("predicted service time"), std::string::npos)
      << s.ToString();

  // A roomy deadline takes the free slot normally.
  const OpContext roomy = OpContext::WithTimeout(&clock, 60'000'000);
  EXPECT_TRUE(ctrl.Admit(OpClass::kRead, &roomy, &p).ok());
  p.Release();
}

TEST(AdmissionTest, PoisonedEstimateRecoversThroughProbes) {
  ManualTimeSource clock;
  AdmissionOptions opts;
  opts.enabled = true;
  opts.read_slots = 2;
  opts.read_queue = 8;
  opts.time_source = &clock;
  AdmissionController ctrl(opts);

  // Poison the estimate: the very first sample (no prior to clamp
  // against) is a 10 s "service".
  {
    AdmissionController::Permit p;
    ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &p).ok());
    clock.AdvanceUs(10'000'000);
  }

  // Immediately after, a tight op is shed — the estimate says it cannot
  // finish in time.
  {
    const OpContext tight = OpContext::WithTimeout(&clock, 1'000);
    AdmissionController::Permit p;
    EXPECT_TRUE(ctrl.Admit(OpClass::kRead, &tight, &p).IsOverloaded());
  }

  // But the shed must not latch: once no sample has refreshed the
  // estimate for service_probe_interval_us, one op is admitted as a
  // probe, and its fast real sample pulls the EWMA back down.
  for (int i = 0; i < 100; ++i) {
    clock.AdvanceUs(opts.service_probe_interval_us + 1);
    const OpContext tight = OpContext::WithTimeout(&clock, 1'000);
    AdmissionController::Permit p;
    ASSERT_TRUE(ctrl.Admit(OpClass::kRead, &tight, &p).ok()) << "probe " << i;
    clock.AdvanceUs(10);  // real service is fast
    p.Release();
  }

  // Estimate has recovered: a moderate deadline now clears the
  // service-time check on its own merits, no probe interval needed.
  AdmissionController::Permit busy;
  ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &busy).ok());
  const OpContext moderate = OpContext::WithTimeout(&clock, 1'000);
  AdmissionController::Permit p;
  EXPECT_TRUE(ctrl.Admit(OpClass::kRead, &moderate, &p).ok());
}

TEST(AdmissionTest, SampleClampKeepsOneOutlierFromPoisoning) {
  ManualTimeSource clock;
  AdmissionOptions opts;
  opts.enabled = true;
  opts.read_slots = 2;
  opts.read_queue = 8;
  opts.time_source = &clock;
  AdmissionController ctrl(opts);

  // Establish a healthy ~100 us estimate.
  for (int i = 0; i < 20; ++i) {
    AdmissionController::Permit p;
    ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &p).ok());
    clock.AdvanceUs(100);
    p.Release();
  }

  // One wild outlier: a 10 s "service" (scheduler preemption mid-op).
  {
    AdmissionController::Permit p;
    ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &p).ok());
    clock.AdvanceUs(10'000'000);
    p.Release();
  }

  // The clamp (8x current estimate) bounds the damage: a 1 ms budget
  // still clears margin x EWMA, so normal traffic keeps flowing.
  const OpContext moderate = OpContext::WithTimeout(&clock, 1'000);
  AdmissionController::Permit p;
  EXPECT_TRUE(ctrl.Admit(OpClass::kRead, &moderate, &p).ok());
}

TEST(AdmissionTest, PredictedQueueWaitShedsBeforeQueueing) {
  ManualTimeSource clock;
  AdmissionOptions opts;
  opts.enabled = true;
  opts.read_slots = 1;
  opts.read_queue = 8;
  opts.service_time_margin = 0.5;  // isolate the queue-wait predictor.
  opts.time_source = &clock;
  AdmissionController ctrl(opts);

  {
    AdmissionController::Permit p;
    ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &p).ok());
    clock.AdvanceUs(10'000);  // EWMA service estimate: 10 ms.
  }

  AdmissionController::Permit held;
  ASSERT_TRUE(ctrl.Admit(OpClass::kRead, nullptr, &held).ok());

  // 8 ms of budget clears the service check (margin 0.5 -> 5 ms) but not
  // the predicted queue wait (~10 ms for one position): shed, never queue.
  const OpContext ctx = OpContext::WithTimeout(&clock, 8'000);
  AdmissionController::Permit p;
  const Status s = ctrl.Admit(OpClass::kRead, &ctx, &p);
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_NE(s.ToString().find("predicted admission wait"), std::string::npos)
      << s.ToString();

  // The same arrival with a comfortable deadline queues instead (and is
  // admitted once the slot frees).
  const OpContext roomy = OpContext::WithTimeout(&clock, 60'000'000);
  std::thread waiter([&] {
    AdmissionController::Permit q;
    EXPECT_TRUE(ctrl.Admit(OpClass::kRead, &roomy, &q).ok());
  });
  while (ctrl.Queued(OpClass::kRead) == 0) std::this_thread::yield();
  held.Release();
  waiter.join();
}

// ---------------------------------------------------------------------------
// Circuit breaker

CircuitBreakerOptions BreakerOpts() {
  CircuitBreakerOptions o;
  o.enabled = true;
  o.failure_threshold = 3;
  o.failure_window_us = 1'000'000;
  o.open_cooldown_us = 200'000;
  o.half_open_probes = 1;
  o.close_after_successes = 2;
  return o;
}

TEST(CircuitBreakerTest, TripsAfterThresholdWithinWindow) {
  ManualTimeSource clock;
  CircuitBreaker br(BreakerOpts(), &clock);
  EXPECT_TRUE(br.Allow());
  br.RecordFailure();
  br.RecordFailure();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  br.RecordFailure();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.trips(), 1u);
  EXPECT_FALSE(br.Allow());
  EXPECT_GT(br.rejected(), 0u);
  EXPECT_EQ(br.state_gauge().Get(), 1);
}

TEST(CircuitBreakerTest, FailuresOutsideWindowDoNotTrip) {
  ManualTimeSource clock;
  CircuitBreaker br(BreakerOpts(), &clock);
  br.RecordFailure();
  br.RecordFailure();
  clock.AdvanceUs(2'000'000);  // window expires; the count restarts.
  br.RecordFailure();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseOnSuccess) {
  ManualTimeSource clock;
  CircuitBreaker br(BreakerOpts(), &clock);
  for (int i = 0; i < 3; ++i) br.RecordFailure();
  ASSERT_EQ(br.state(), CircuitBreaker::State::kOpen);

  clock.AdvanceUs(300'000);  // past the cooldown.
  EXPECT_TRUE(br.Allow()) << "first probe after cooldown must pass";
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(br.Allow()) << "half_open_probes=1 admits a single probe";
  br.RecordSuccess();
  EXPECT_TRUE(br.Allow());
  br.RecordSuccess();  // close_after_successes = 2.
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(br.state_gauge().Get(), 0);
}

TEST(CircuitBreakerTest, ProbeErrorReopensAndFreesTheProbeSlot) {
  ManualTimeSource clock;
  CircuitBreaker br(BreakerOpts(), &clock);
  for (int i = 0; i < 3; ++i) br.RecordFailure();
  clock.AdvanceUs(300'000);
  ASSERT_TRUE(br.Allow());
  br.RecordError();  // the probe op itself failed: back to open.
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);

  // The reopened breaker must half-open again after another cooldown —
  // i.e. the failed probe's slot did not leak.
  clock.AdvanceUs(300'000);
  EXPECT_TRUE(br.Allow());
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, OpenStoreFailsFastWithOverloaded) {
  cloud::ManualTimeSource clock;
  cloud::CloudStoreOptions opts;
  opts.breaker = BreakerOpts();
  opts.time_source = &clock;
  cloud::CloudStore store(opts);
  const auto stream = store.CreateStream("s");
  ASSERT_TRUE(store.Append(stream, "payload").ok());

  for (int i = 0; i < 3; ++i) store.breaker().RecordFailure();
  ASSERT_EQ(store.breaker().state(), CircuitBreaker::State::kOpen);

  const auto append = store.Append(stream, "more");
  EXPECT_TRUE(append.status().IsOverloaded()) << append.status().ToString();

  // Recovery: cooldown, then successful probes close the breaker and the
  // store serves normally again.
  clock.AdvanceUs(300'000);
  while (store.breaker().state() != CircuitBreaker::State::kClosed) {
    ASSERT_TRUE(store.Append(stream, "probe").ok());
  }
  EXPECT_TRUE(store.Append(stream, "after").ok());
}

// ---------------------------------------------------------------------------
// Deadline edge cases at the API boundary (satellite d)

struct DbFixture {
  explicit DbFixture(GraphDBOptions opts = {}) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = 1 << 16;
    store = std::make_unique<cloud::CloudStore>(copts);
    if (opts.time_source == nullptr) opts.time_source = &clock;
    db = std::make_unique<GraphDB>(store.get(), opts);
  }
  cloud::ManualTimeSource clock;
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<GraphDB> db;
};

TEST(DeadlineBoundaryTest, PastDeadlineIsInvalidArgumentNotDeadlineExceeded) {
  DbFixture f;
  f.clock.SetUs(1'000'000);
  OpContext past;
  past.clock = &f.clock;
  past.deadline_us = 500'000;
  const Status s = f.db->AddVertex(1, "v", &past);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("already past at the API boundary"),
            std::string::npos)
      << s.ToString();
  // A rejected context must not have touched the tree.
  EXPECT_TRUE(f.db->GetVertex(1).status().IsNotFound());
}

TEST(DeadlineBoundaryTest, DeadlineWithoutClockIsInvalidArgument) {
  DbFixture f;
  OpContext no_clock;
  no_clock.deadline_us = 123;
  const Status s = f.db->GetVertex(1, &no_clock).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("without a clock"), std::string::npos);
}

TEST(DeadlineBoundaryTest, NullAndDeadlinelessContextsTakeTheOldPath) {
  DbFixture f;
  ASSERT_TRUE(f.db->AddVertex(7, "props").ok());  // null ctx (default arg)
  OpContext empty;                                // non-null, no deadline
  EXPECT_EQ(f.db->GetVertex(7, &empty).value(), "props");
  ASSERT_TRUE(f.db->AddEdge(7, 1, 8, "e", 1, &empty).ok());
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(7, 1, 10, &out, nullptr).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(DeadlineBoundaryTest, ValidDeadlineWithRoomSucceeds) {
  DbFixture f;
  const OpContext ctx = OpContext::WithTimeout(&f.clock, 10'000'000);
  ASSERT_TRUE(f.db->AddVertex(1, "v", &ctx).ok());
  EXPECT_EQ(f.db->GetVertex(1, &ctx).value(), "v");
}

// The store's retry loop under a request deadline, driven through
// ManifestGet (no latency-model admission check, so every attempt reaches
// the injector).
TEST(DeadlineRetryTest, MidRetryExpiryPreservesFirstRootCause) {
  ManualTimeSource clock;
  const OpContext ctx = OpContext::WithTimeout(&clock, 5'000);
  cloud::CloudStoreOptions sopts;
  sopts.retry.max_attempts = 10;
  sopts.retry.jitter = false;
  sopts.retry.initial_backoff_us = 4'000;
  sopts.retry.sleep = [&clock](uint64_t us) { clock.AdvanceUs(us); };
  cloud::CloudStore store(sopts);
  cloud::FaultInjectorOptions fopts;
  fopts.transient_error_p = 1.0;
  cloud::FaultInjector fi(fopts);
  store.SetFaultInjector(&fi);

  const Status s = store.ManifestGet("route", nullptr, &ctx).status();
  const uint64_t attempts = fi.OpCount(cloud::FaultOp::kManifestGet);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_NE(s.ToString().find("deadline expired during retry"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("injected transient manifest-get failure"),
            std::string::npos)
      << "the first error of the sequence must survive: " << s.ToString();
  EXPECT_LT(attempts, 10u) << "the deadline, not the budget, must end the loop";
}

TEST(DeadlineRetryTest, ExpiryBeforeFirstAttemptSaysSo) {
  ManualTimeSource clock;
  clock.SetUs(100);
  OpContext ctx;
  ctx.clock = &clock;
  ctx.deadline_us = 50;  // already past
  cloud::CloudStore store;
  store.ManifestPut("route", "v1");
  cloud::FaultInjector fi;  // inert: only counts attempts.
  store.SetFaultInjector(&fi);
  const Status s = store.ManifestGet("route", nullptr, &ctx).status();
  const uint64_t attempts = fi.OpCount(cloud::FaultOp::kManifestGet);
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_NE(s.ToString().find("before I/O attempt"), std::string::npos);
  EXPECT_EQ(attempts, 0u) << "no work may start past the deadline";
}

TEST(DeadlineQueryTest, TraversalStopsBetweenHops) {
  DbFixture f;
  for (graph::VertexId v = 0; v < 4; ++v) {
    ASSERT_TRUE(f.db->AddEdge(v, 1, v + 1, "e", 1).ok());
  }
  const OpContext ctx = OpContext::WithTimeout(&f.clock, 1'000);
  // The Where step burns the budget; the following Out must not run.
  auto result = query::Query(f.db.get())
                    .Context(&ctx)
                    .V(0)
                    .Out(1)
                    .Where([&](graph::VertexId) {
                      f.clock.AdvanceUs(10'000);
                      return true;
                    })
                    .Out(1)
                    .Execute();
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("query step"), std::string::npos);
}

// ---------------------------------------------------------------------------
// GraphDB integration: admission + watermarks + metrics

TEST(GraphDbOverloadTest, OverloadMetricsAreRegistered) {
  DbFixture f;
  const std::string& p = f.db->metrics_prefix();
  const auto snap = MetricsRegistry::Default().TakeSnapshot();
  EXPECT_TRUE(snap.counters.count(p + "overload.admitted"));
  EXPECT_TRUE(snap.counters.count(p + "overload.shed"));
  EXPECT_TRUE(snap.counters.count(p + "overload.deadline_exceeded"));
  EXPECT_TRUE(snap.counters.count(p + "overload.write_throttle"));
  EXPECT_TRUE(snap.gauges.count(p + "overload.queue_depth"));
  EXPECT_TRUE(snap.gauges.count(p + "overload.breaker_state"));
}

TEST(GraphDbOverloadTest, MemoryWatermarkShedsWritesButServesReads) {
  GraphDBOptions opts;
  opts.admission.enabled = true;
  opts.admission.memory_throttle_ratio = 0.5;
  opts.memory_budget_bytes = 1;  // any resident page exceeds the watermark.
  DbFixture f(std::move(opts));

  ASSERT_TRUE(f.db->AddVertex(1, "resident").ok());
  f.db->RefreshOverloadState();
  EXPECT_EQ(f.db->admission().write_throttle_reasons(),
            ThrottleReason::kMemoryPressure);

  const Status w = f.db->AddVertex(2, "refused");
  EXPECT_TRUE(w.IsOverloaded()) << w.ToString();
  EXPECT_NE(w.ToString().find("memory-pressure"), std::string::npos);
  EXPECT_TRUE(f.db->GetVertex(2).status().IsNotFound())
      << "a shed write must leave no trace";

  // Graceful degradation: reads keep serving under the same pressure.
  EXPECT_EQ(f.db->GetVertex(1).value(), "resident");
  EXPECT_GT(f.db->admission().shed().Get(), 0u);

  // The throttle bit is the gate: clearing it restores writes.
  f.db->admission().SetWriteThrottle(0);
  EXPECT_TRUE(f.db->AddVertex(2, "accepted").ok());
}

TEST(GraphDbOverloadTest, WatermarkRefreshesOnWriteCadenceWithoutHelp) {
  GraphDBOptions opts;
  opts.admission.enabled = true;
  opts.admission.memory_throttle_ratio = 0.5;
  opts.memory_budget_bytes = 1;
  DbFixture f(std::move(opts));

  // No manual RefreshOverloadState: the periodic in-band refresh (every
  // 256 admitted writes) must notice the pressure by itself.
  Status s = Status::OK();
  for (int i = 0; i < 600 && s.ok(); ++i) {
    s = f.db->AddVertex(100 + i, "filler");
  }
  EXPECT_TRUE(s.IsOverloaded())
      << "write cadence never tripped the memory watermark: " << s.ToString();
}

TEST(GraphDbOverloadTest, AdmissionDisabledByDefaultCostsNothing) {
  DbFixture f;
  EXPECT_FALSE(f.db->admission().enabled());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.db->AddVertex(i, "v").ok());
  }
  EXPECT_EQ(f.db->admission().shed().Get(), 0u);
  EXPECT_EQ(f.db->admission().write_throttle_reasons(), 0u)
      << "no watermark evaluation without opt-in";
}

// ---------------------------------------------------------------------------
// WAL-backlog watermark (RW node) and RO stale-degrade gauge

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST(WalBacklogTest, WatermarkShedsWritesAndKeepsReads) {
  auto store = std::make_unique<cloud::CloudStore>();
  replication::RwNodeOptions opts;
  opts.tree.tree_id = 1;
  opts.tree.base_stream = store->CreateStream("base");
  opts.tree.delta_stream = store->CreateStream("delta");
  opts.wal.stream = store->CreateStream("wal");
  opts.wal.group_size = 1'000;  // records accumulate in the group buffer.
  opts.wal_backlog_watermark = 8;
  replication::RwNode rw(store.get(), opts);

  Status s = Status::OK();
  int accepted = 0;
  for (int i = 0; i < 64; ++i) {
    s = rw.Put(Key(i), "v");
    if (!s.ok()) break;
    ++accepted;
  }
  EXPECT_TRUE(s.IsOverloaded()) << s.ToString();
  EXPECT_NE(s.ToString().find("WAL"), std::string::npos) << s.ToString();
  EXPECT_GE(accepted, 8) << "nothing may shed below the watermark";
  EXPECT_GT(rw.writes_shed(), 0u);

  // Reads never shed here: every accepted key is still served from memory.
  for (int i = 0; i < accepted; ++i) {
    EXPECT_EQ(rw.Get(Key(i)).value(), "v");
  }
}

TEST(WalBacklogTest, ZeroWatermarkKeepsHistoricalBehavior) {
  auto store = std::make_unique<cloud::CloudStore>();
  replication::RwNodeOptions opts;
  opts.tree.tree_id = 1;
  opts.tree.base_stream = store->CreateStream("base");
  opts.tree.delta_stream = store->CreateStream("delta");
  opts.wal.stream = store->CreateStream("wal");
  opts.wal.group_size = 1'000;
  replication::RwNode rw(store.get(), opts);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(rw.Put(Key(i), "v").ok());
  }
  EXPECT_EQ(rw.writes_shed(), 0u);
}

TEST(RoDegradeTest, GaugeTracksStaleServingAndCatchUp) {
  cloud::CloudStoreOptions sopts;
  sopts.retry.max_attempts = 2;
  auto store = std::make_unique<cloud::CloudStore>(sopts);
  replication::RwNodeOptions rw_opts;
  rw_opts.tree.tree_id = 1;
  rw_opts.tree.base_stream = store->CreateStream("base");
  rw_opts.tree.delta_stream = store->CreateStream("delta");
  rw_opts.wal.stream = store->CreateStream("wal");
  rw_opts.flush_group_pages = 4;
  replication::RwNode rw(store.get(), rw_opts);

  replication::RoNodeOptions ro_opts;
  ro_opts.wal_stream = rw_opts.wal.stream;
  replication::RoNode ro(store.get(), ro_opts);

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(rw.Put(Key(i), "v0").ok());
  ASSERT_TRUE(ro.Get(1, Key(0)).ok());
  EXPECT_EQ(ro.stats().degraded.Get(), 0);

  // New writes land first, then the substrate breaks: WAL tailing exhausts
  // its retry budget, the node degrades to the last consistent state it
  // replicated and raises the gauge.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(rw.Put(Key(100 + i), "v1").ok());
  cloud::FaultInjectorOptions fi_opts;
  fi_opts.transient_error_p = 1.0;
  cloud::FaultInjector fi(fi_opts);
  store->SetFaultInjector(&fi);

  EXPECT_TRUE(ro.Get(1, Key(0)).ok()) << "degraded node still serves reads";
  EXPECT_EQ(ro.stats().degraded.Get(), 1);
  EXPECT_GT(ro.stats().poll_degraded.Get(), 0u);

  // Heal the substrate: the next successful tail that fully drains the WAL
  // clears the gauge.
  store->SetFaultInjector(nullptr);
  ASSERT_TRUE(ro.PollWal().ok());
  EXPECT_EQ(ro.stats().degraded.Get(), 0);
  EXPECT_EQ(ro.Get(1, Key(100)).value(), "v1");
}

}  // namespace
}  // namespace bg3::core
