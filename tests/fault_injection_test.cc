// Deterministic fault injection for the simulated cloud substrate: every
// fault class (transient error, latency spike, torn append, corrupt read)
// is exercised against the hardened callers — and shown to hurt when the
// retry/degradation paths are disabled (ISSUE 2 acceptance matrix).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "cloud/types.h"
#include "common/circuit_breaker.h"
#include "common/logging.h"
#include "common/retry.h"
#include "gc/extent_usage.h"
#include "gc/policy.h"
#include "gc/space_reclaimer.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"
#include "wal/reader.h"
#include "wal/record.h"
#include "wal/writer.h"

namespace bg3 {
namespace {

using cloud::CloudStore;
using cloud::FaultClass;
using cloud::FaultDecision;
using cloud::FaultInjector;
using cloud::FaultInjectorOptions;
using cloud::FaultOp;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

// --- injector determinism -----------------------------------------------------

std::vector<std::string> DriveSchedule(uint64_t seed) {
  FaultInjectorOptions opts;
  opts.seed = seed;
  opts.transient_error_p = 0.10;
  opts.latency_spike_p = 0.10;
  opts.torn_append_p = 0.05;
  opts.corrupt_read_p = 0.05;
  FaultInjector fi(opts);
  std::vector<std::string> trace;
  for (int i = 0; i < 400; ++i) {
    const FaultOp op = (i % 2 == 0) ? FaultOp::kAppend : FaultOp::kRead;
    const FaultDecision d = fi.Decide(op);
    char buf[64];
    snprintf(buf, sizeof(buf), "%d:%d%d%d:%llu", i, d.fail, d.torn, d.corrupt,
             static_cast<unsigned long long>(d.extra_latency_us));
    trace.push_back(buf);
  }
  return trace;
}

TEST(FaultInjectorTest, SameSeedReplaysIdenticalSchedule) {
  const auto a = DriveSchedule(0xDECADE);
  const auto b = DriveSchedule(0xDECADE);
  EXPECT_EQ(a, b) << "fault schedule must be a pure function of (seed, opts)";
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  EXPECT_NE(DriveSchedule(1), DriveSchedule(2));
}

TEST(FaultInjectorTest, ProbabilitiesActuallyFire) {
  FaultInjectorOptions opts;
  opts.transient_error_p = 0.5;
  FaultInjector fi(opts);
  for (int i = 0; i < 200; ++i) fi.Decide(FaultOp::kAppend);
  EXPECT_GT(fi.stats().transient_errors.Get(), 0u) << fi.ToString();
  EXPECT_EQ(fi.stats().torn_appends.Get(), 0u);
}

TEST(FaultInjectorTest, ArmedFaultFiresExactlyOnceAtIndex) {
  FaultInjector fi;  // all probabilities zero: only the armed fault fires.
  fi.Arm(FaultOp::kRead, FaultClass::kTransientError, /*at_index=*/2);
  EXPECT_FALSE(fi.Decide(FaultOp::kRead).Any());
  EXPECT_FALSE(fi.Decide(FaultOp::kRead).Any());
  EXPECT_TRUE(fi.Decide(FaultOp::kRead).fail);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(fi.Decide(FaultOp::kRead).Any()) << "must disarm after firing";
  }
  EXPECT_EQ(fi.stats().Total(), 1u);
}

TEST(FaultInjectorTest, ArmNextTargetsOnlyItsOpType) {
  FaultInjector fi;
  fi.ArmNext(FaultOp::kFreeExtent, FaultClass::kTransientError);
  EXPECT_FALSE(fi.Decide(FaultOp::kAppend).Any());
  EXPECT_FALSE(fi.Decide(FaultOp::kRead).Any());
  EXPECT_TRUE(fi.Decide(FaultOp::kFreeExtent).fail);
  EXPECT_EQ(fi.OpCount(FaultOp::kFreeExtent), 1u);
}

// --- store-level semantics per fault class ------------------------------------

// `max_attempts` is the store's retry budget; 1 gives a bare store whose
// injected faults surface on the first attempt.
struct StoreFixture {
  explicit StoreFixture(int max_attempts = RetryOptions{}.max_attempts) {
    cloud::CloudStoreOptions opts;
    opts.retry.max_attempts = max_attempts;
    store = std::make_unique<CloudStore>(opts);
    stream = store->CreateStream("data");
    store->SetFaultInjector(&fi);
  }
  std::unique_ptr<CloudStore> store;
  cloud::StreamId stream = 0;
  FaultInjector fi;
};

TEST(CloudFaultTest, DefaultStoreReportsZeroInjectedFaults) {
  CloudStore store;  // no injector attached: the bench configuration.
  const auto s = store.CreateStream("s");
  ASSERT_TRUE(store.Append(s, "hello").ok());
  ASSERT_TRUE(store.Append(s, "world").ok());
  EXPECT_EQ(store.stats().injected_faults.Get(), 0u);
  EXPECT_EQ(store.stats().retries.Get(), 0u);
}

TEST(CloudFaultTest, TransientAppendFailsBareSucceedsUnderRetry) {
  // Bare store (retries disabled): the injected fault surfaces.
  StoreFixture bare(/*max_attempts=*/1);
  bare.fi.ArmNext(FaultOp::kAppend, FaultClass::kTransientError);
  EXPECT_TRUE(bare.store->Append(bare.stream, "rec").status().IsIOError());
  EXPECT_EQ(bare.store->stats().injected_faults.Get(), 1u);

  // Same fault under the store's default retry policy: absorbed.
  StoreFixture f;
  f.fi.ArmNext(FaultOp::kAppend, FaultClass::kTransientError);
  auto res = f.store->Append(f.stream, "rec");
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(f.store->stats().retries.Get(), 0u);
}

TEST(CloudFaultTest, LatencySpikeInflatesReportedLatency) {
  StoreFixture f;
  uint64_t base_us = 0;
  ASSERT_TRUE(f.store->Append(f.stream, "baseline", &base_us).ok());

  f.fi.ArmNext(FaultOp::kAppend, FaultClass::kLatencySpike);
  uint64_t spiked_us = 0;
  ASSERT_TRUE(f.store->Append(f.stream, "baseline", &spiked_us).ok());
  // The model's own latency may jitter between calls; the spike dominates.
  EXPECT_GE(spiked_us, f.fi.options().latency_spike_us);
  EXPECT_GT(spiked_us, base_us);
  EXPECT_EQ(f.fi.stats().latency_spikes.Get(), 1u);
}

TEST(CloudFaultTest, TornAppendIsInvisibleToTailReaders) {
  StoreFixture f(/*max_attempts=*/1);
  ASSERT_TRUE(f.store->Append(f.stream, "first").ok());
  f.fi.ArmNext(FaultOp::kAppend, FaultClass::kTornAppend);
  EXPECT_TRUE(f.store->Append(f.stream, "torn-victim").status().IsIOError());
  ASSERT_TRUE(f.store->Append(f.stream, "third").ok());

  // The torn record physically landed but fails its CRC: tailing skips it,
  // exactly as if it had never been durably written.
  auto tail = f.store->TailRecords(f.stream, cloud::PagePointer(), 100);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.value().size(), 2u);
  EXPECT_EQ(tail.value()[0].second, "first");
  EXPECT_EQ(tail.value()[1].second, "third");
}

TEST(CloudFaultTest, CorruptReadKeepsDataIntactAndRetriesHeal) {
  // Bare read sees the injected checksum mismatch.
  StoreFixture bare(/*max_attempts=*/1);
  auto bare_ptr = bare.store->Append(bare.stream, "payload");
  ASSERT_TRUE(bare_ptr.ok());
  bare.fi.ArmNext(FaultOp::kRead, FaultClass::kCorruptRead);
  EXPECT_TRUE(bare.store->Read(bare_ptr.value()).status().IsCorruption());

  // Read retries Corruption (the flip happened on the wire): the re-read
  // returns the intact record.
  StoreFixture f;
  auto ptr = f.store->Append(f.stream, "payload");
  ASSERT_TRUE(ptr.ok());
  f.fi.ArmNext(FaultOp::kRead, FaultClass::kCorruptRead);
  auto res = f.store->Read(ptr.value());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value(), "payload");
}

TEST(CloudFaultTest, ManifestGetFaultSurfacesAsIOError) {
  StoreFixture f(/*max_attempts=*/1);
  f.store->ManifestPut("route", "v1");
  f.fi.ArmNext(FaultOp::kManifestGet, FaultClass::kTransientError);
  EXPECT_TRUE(f.store->ManifestGet("route").status().IsIOError());
  EXPECT_EQ(f.store->ManifestGet("route").value(), "v1");
}

// --- the store's retry loop, one entry point per FaultOp ----------------------

// A store with one record, one manifest key and sealed extents on a second
// stream, so every fault-capable entry point has something to act on.
struct RetryHarness {
  explicit RetryHarness(cloud::CloudStoreOptions opts = {}) {
    opts.extent_capacity = 256;  // a few records seal an extent.
    store = std::make_unique<CloudStore>(opts);
    stream = store->CreateStream("data");
    ptr = store->Append(stream, "payload").value();
    store->ManifestPut("route", "v1");
    gc_stream = store->CreateStream("gc");
    const std::string filler(100, 'x');
    for (int i = 0; i < 8; ++i) BG3_CHECK(store->Append(gc_stream, filler).ok());
    BG3_CHECK(!store->SealedExtentStats(gc_stream).empty());
    store->SetFaultInjector(&fi);
  }

  // One call to the entry point `op` faults on.
  Status Call(FaultOp op, const OpContext* ctx = nullptr) {
    switch (op) {
      case FaultOp::kAppend:
        return store->Append(stream, "rec", nullptr, ctx).status();
      case FaultOp::kRead:
        return store->Read(ptr, nullptr, ctx).status();
      case FaultOp::kFreeExtent:
        return store->FreeExtent(gc_stream,
                                 store->SealedExtentStats(gc_stream)[0].id);
      case FaultOp::kManifestGet:
        return store->ManifestGet("route", nullptr, ctx).status();
      case FaultOp::kTail:
        return store->TailRecords(stream, cloud::PagePointer(), 100, ctx)
            .status();
    }
    return Status::InvalidArgument("unknown fault op");
  }

  FaultInjector fi;
  std::unique_ptr<CloudStore> store;
  cloud::StreamId stream = 0;
  cloud::StreamId gc_stream = 0;
  cloud::PagePointer ptr;
};

class CloudStoreRetryTest : public ::testing::TestWithParam<FaultOp> {};

TEST_P(CloudStoreRetryTest, OneTransientFaultIsAbsorbedAndCounted) {
  RetryHarness h;
  h.fi.ArmNext(GetParam(), FaultClass::kTransientError);
  const Status s = h.Call(GetParam());
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(h.store->stats().injected_faults.Get(), 1u);
  EXPECT_EQ(h.store->stats().retries.Get(), 1u);
  EXPECT_EQ(h.store->stats().retry_exhausted.Get(), 0u);
}

TEST_P(CloudStoreRetryTest, ExhaustedBudgetIsCountedAndTripsTheBreaker) {
  cloud::CloudStoreOptions opts;
  opts.retry.max_attempts = 3;
  opts.breaker.enabled = true;
  opts.breaker.failure_threshold = 1;
  FaultInjectorOptions fopts;
  fopts.transient_error_p = 1.0;
  FaultInjector always(fopts);
  RetryHarness h(opts);
  h.store->SetFaultInjector(&always);

  const Status s = h.Call(GetParam());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(always.OpCount(GetParam()), 3u);
  EXPECT_EQ(h.store->stats().retries.Get(), 2u);
  EXPECT_EQ(h.store->stats().retry_exhausted.Get(), 1u);
  EXPECT_EQ(h.store->breaker().trips(), 1u);
  EXPECT_EQ(h.store->breaker().state(), CircuitBreaker::State::kOpen);
}

TEST_P(CloudStoreRetryTest, DeadlineExpiringMidRetryCarriesTheFirstError) {
  if (GetParam() == FaultOp::kFreeExtent) {
    GTEST_SKIP() << "FreeExtent is background GC I/O and takes no deadline";
  }
  cloud::ManualTimeSource clock;
  cloud::CloudStoreOptions opts;
  opts.time_source = &clock;
  opts.retry.max_attempts = 10;
  opts.retry.jitter = false;
  opts.retry.initial_backoff_us = 600'000;
  opts.retry.max_backoff_us = 600'000;
  opts.retry.sleep = [&clock](uint64_t us) { clock.AdvanceUs(us); };
  FaultInjectorOptions fopts;
  fopts.transient_error_p = 1.0;
  FaultInjector always(fopts);
  RetryHarness h(opts);
  h.store->SetFaultInjector(&always);

  // Attempts at t=0 and t=0.6s fail; the third would start past the 1s
  // deadline.
  const OpContext ctx = OpContext::WithTimeout(&clock, 1'000'000);
  const Status s = h.Call(GetParam(), &ctx);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_NE(s.ToString().find("deadline expired during retry"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("first error: IOError: injected"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(always.OpCount(GetParam()), 2u);
  EXPECT_EQ(h.store->stats().retry_exhausted.Get(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEntryPoints, CloudStoreRetryTest,
                         ::testing::Values(FaultOp::kAppend, FaultOp::kRead,
                                           FaultOp::kFreeExtent,
                                           FaultOp::kManifestGet,
                                           FaultOp::kTail),
                         [](const ::testing::TestParamInfo<FaultOp>& i) {
                           return cloud::FaultOpName(i.param);
                         });

TEST(CloudStoreRetryTest, WireCorruptionHealsOnReadOnly) {
  // An injected corrupt read is a flip on the wire: Read re-reads the
  // intact record.
  RetryHarness h;
  h.fi.ArmNext(FaultOp::kRead, FaultClass::kCorruptRead);
  auto res = h.store->Read(h.ptr);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value(), "payload");
  EXPECT_EQ(h.store->stats().retries.Get(), 1u);

  // Damaged media is Corruption on every path. Read spends its budget on
  // it; the extent scan GC relocates from is not retried at all.
  ASSERT_TRUE(h.store->CorruptRecordForTesting(h.ptr, 0));
  EXPECT_TRUE(h.store->Read(h.ptr).status().IsCorruption());
  EXPECT_EQ(h.store->stats().retries.Get(), 4u);
  EXPECT_EQ(h.store->stats().retry_exhausted.Get(), 1u);
  auto scan = h.store->ReadValidRecords(h.stream, h.ptr.extent_id);
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
  EXPECT_EQ(h.store->stats().retries.Get(), 4u);
}

// --- WAL writer hardening -----------------------------------------------------

wal::WalRecord Mutation(bwtree::Lsn lsn, const std::string& key,
                        const std::string& value) {
  wal::WalRecord r;
  r.type = wal::WalRecord::Type::kMutation;
  r.tree_id = 1;
  r.page_id = 7;
  r.lsn = lsn;
  r.entry = {bwtree::DeltaOp::kUpsert, key, value};
  return r;
}

TEST(WalFaultTest, TransientFaultFailsWriterWithoutRetries) {
  StoreFixture f(/*max_attempts=*/1);  // retries disabled.
  wal::WalWriterOptions w;
  w.stream = f.stream;
  wal::WalWriter writer(f.store.get(), w);

  f.fi.ArmNext(FaultOp::kAppend, FaultClass::kTransientError);
  EXPECT_TRUE(writer.Append(Mutation(1, "a", "1")).IsIOError());

  // Nothing acked was dropped: the record stayed buffered and the next
  // flush (fault-free) publishes exactly one copy.
  ASSERT_TRUE(writer.Flush().ok());
  wal::WalReader reader(f.store.get(), f.stream);
  auto records = reader.Poll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].entry.key, "a");
}

TEST(WalFaultTest, TransientFaultAbsorbedWithRetries) {
  StoreFixture f;
  wal::WalWriterOptions w;
  w.stream = f.stream;
  wal::WalWriter writer(f.store.get(), w);

  f.fi.ArmNext(FaultOp::kAppend, FaultClass::kTransientError);
  EXPECT_TRUE(writer.Append(Mutation(1, "a", "1")).ok());
  EXPECT_GT(f.store->stats().retries.Get(), 0u);
  EXPECT_EQ(f.store->stats().retry_exhausted.Get(), 0u);
}

TEST(WalFaultTest, TornAppendRepairedByRetryWithoutDuplicates) {
  StoreFixture f;
  wal::WalWriterOptions w;
  w.stream = f.stream;
  wal::WalWriter writer(f.store.get(), w);

  ASSERT_TRUE(writer.Append(Mutation(1, "a", "1")).ok());
  f.fi.ArmNext(FaultOp::kAppend, FaultClass::kTornAppend);
  ASSERT_TRUE(writer.Append(Mutation(2, "b", "2")).ok());
  ASSERT_TRUE(writer.Append(Mutation(3, "c", "3")).ok());
  EXPECT_EQ(f.fi.stats().torn_appends.Get(), 1u);

  // The damaged batch copy fails its CRC and is skipped; the retried copy
  // is the only one a reader sees — no loss, no duplication.
  wal::WalReader reader(f.store.get(), f.stream);
  auto records = reader.Poll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[0].lsn, 1u);
  EXPECT_EQ(records.value()[1].lsn, 2u);
  EXPECT_EQ(records.value()[2].lsn, 3u);
}

TEST(WalFaultTest, TornAppendLosesBatchWithoutRetries) {
  StoreFixture f(/*max_attempts=*/1);
  wal::WalWriterOptions w;
  w.stream = f.stream;
  wal::WalWriter writer(f.store.get(), w);

  f.fi.ArmNext(FaultOp::kAppend, FaultClass::kTornAppend);
  // The append surfaces the tear instead of silently publishing garbage…
  EXPECT_TRUE(writer.Append(Mutation(1, "a", "1")).IsIOError());
  // …and until the writer flushes again, readers see nothing at all: a
  // crash in this window is the data-loss scenario the recovery matrix
  // pins down (RecoveryFaultMatrixTest).
  wal::WalReader reader(f.store.get(), f.stream);
  auto records = reader.Poll();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records.value().empty());
}

// --- Bw-tree read path --------------------------------------------------------

struct TreeFixture {
  explicit TreeFixture(int max_attempts) {
    cloud::CloudStoreOptions store_opts;
    store_opts.retry.max_attempts = max_attempts;
    store = std::make_unique<CloudStore>(store_opts);
    store->SetFaultInjector(&fi);
    bwtree::BwTreeOptions opts;
    opts.tree_id = 1;
    opts.base_stream = store->CreateStream("base");
    opts.delta_stream = store->CreateStream("delta");
    opts.read_cache = bwtree::ReadCacheMode::kNone;  // every Get hits storage.
    tree = std::make_unique<bwtree::BwTree>(store.get(), opts);
  }
  std::unique_ptr<CloudStore> store;
  FaultInjector fi;
  std::unique_ptr<bwtree::BwTree> tree;
};

TEST(BwTreeFaultTest, CorruptReadFailsGetWithoutRetries) {
  TreeFixture f(/*max_attempts=*/1);
  ASSERT_TRUE(f.tree->Upsert("k", "v").ok());
  f.fi.ArmNext(FaultOp::kRead, FaultClass::kCorruptRead);
  EXPECT_TRUE(f.tree->Get("k").status().IsCorruption());
}

TEST(BwTreeFaultTest, CorruptReadHealedByReadRetry) {
  TreeFixture f(/*max_attempts=*/4);
  ASSERT_TRUE(f.tree->Upsert("k", "v").ok());
  f.fi.ArmNext(FaultOp::kRead, FaultClass::kCorruptRead);
  auto got = f.tree->Get("k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), "v");
  EXPECT_GT(f.store->stats().retries.Get(), 0u);
}

TEST(BwTreeFaultTest, TransientReadFaultHealedByRetry) {
  TreeFixture f(/*max_attempts=*/4);
  ASSERT_TRUE(f.tree->Upsert("k", "v").ok());
  f.fi.ArmNext(FaultOp::kRead, FaultClass::kTransientError);
  auto got = f.tree->Get("k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), "v");
}

// --- RO node degradation ------------------------------------------------------

struct RoFixture {
  explicit RoFixture(int max_attempts) {
    cloud::CloudStoreOptions store_opts;
    store_opts.retry.max_attempts = max_attempts;
    store = std::make_unique<CloudStore>(store_opts);
    store->SetFaultInjector(&fi);
    rw_opts.tree.tree_id = 1;
    rw_opts.tree.base_stream = store->CreateStream("base");
    rw_opts.tree.delta_stream = store->CreateStream("delta");
    rw_opts.wal.stream = store->CreateStream("wal");
    rw = std::make_unique<replication::RwNode>(store.get(), rw_opts);
    ro_opts.wal_stream = rw_opts.wal.stream;
    ro = std::make_unique<replication::RoNode>(store.get(), ro_opts);
  }
  std::unique_ptr<CloudStore> store;
  FaultInjector fi;
  replication::RwNodeOptions rw_opts;
  replication::RoNodeOptions ro_opts;
  std::unique_ptr<replication::RwNode> rw;
  std::unique_ptr<replication::RoNode> ro;
};

TEST(RoFaultTest, TailFaultDegradesToStaleReadThenCatchesUp) {
  RoFixture f(/*max_attempts=*/1);  // degradation path, no retries.
  ASSERT_TRUE(f.rw->Put("k", "v1").ok());
  EXPECT_EQ(f.ro->Get(1, "k").value(), "v1");

  ASSERT_TRUE(f.rw->Put("k", "v2").ok());
  f.fi.ArmNext(FaultOp::kTail, FaultClass::kTransientError);
  // The poll budget runs dry: the node serves its last consistent state
  // instead of failing the read, and records the degradation.
  EXPECT_EQ(f.ro->Get(1, "k").value(), "v1");
  EXPECT_EQ(f.ro->stats().poll_degraded.Get(), 1u);

  // Substrate healthy again: the node catches up on the next poll.
  EXPECT_EQ(f.ro->Get(1, "k").value(), "v2");
}

TEST(RoFaultTest, TailFaultAbsorbedByRetryStaysConsistent) {
  RoFixture f(/*max_attempts=*/4);
  ASSERT_TRUE(f.rw->Put("k", "v1").ok());
  EXPECT_EQ(f.ro->Get(1, "k").value(), "v1");

  ASSERT_TRUE(f.rw->Put("k", "v2").ok());
  f.fi.ArmNext(FaultOp::kTail, FaultClass::kTransientError);
  EXPECT_EQ(f.ro->Get(1, "k").value(), "v2");
  EXPECT_EQ(f.ro->stats().poll_degraded.Get(), 0u);
  EXPECT_GT(f.store->stats().retries.Get(), 0u);
}

// --- GC deferral --------------------------------------------------------------

struct GcFixture {
  explicit GcFixture(int max_attempts, CircuitBreakerOptions breaker = {}) {
    cloud::CloudStoreOptions store_opts;
    store_opts.extent_capacity = 256;  // a few records seal an extent.
    store_opts.retry.max_attempts = max_attempts;
    store_opts.breaker = breaker;
    store = std::make_unique<CloudStore>(store_opts);
    store->SetFaultInjector(&fi);
    stream = store->CreateStream("ttl-data");
    tracker = std::make_unique<gc::ExtentUsageTracker>(&clock);
    store->SetObserver(tracker.get());

    // The resolver is never consulted: TTL expiry frees extents in place.
    tree_opts.tree_id = 99;
    tree_opts.base_stream = store->CreateStream("unused-base");
    tree_opts.delta_stream = store->CreateStream("unused-delta");
    tree = std::make_unique<bwtree::BwTree>(store.get(), tree_opts);
    resolver = std::make_unique<gc::SingleTreeResolver>(tree.get());

    gc::ReclaimOptions opts;
    opts.ttl_us = 1'000;
    reclaimer = std::make_unique<gc::SpaceReclaimer>(
        store.get(), resolver.get(), &policy, tracker.get(), opts);
  }

  void FillAndExpire() {
    const std::string payload(100, 'x');
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store->Append(stream, payload).ok());
    }
    ASSERT_GE(store->SealedExtentStats(stream).size(), 2u);
    clock.AdvanceUs(10'000'000);  // every sealed extent is past its TTL.
  }

  cloud::ManualTimeSource clock;
  std::unique_ptr<CloudStore> store;
  FaultInjector fi;
  cloud::StreamId stream = 0;
  std::unique_ptr<gc::ExtentUsageTracker> tracker;
  bwtree::BwTreeOptions tree_opts;
  std::unique_ptr<bwtree::BwTree> tree;
  std::unique_ptr<gc::SingleTreeResolver> resolver;
  gc::FifoPolicy policy;
  std::unique_ptr<gc::SpaceReclaimer> reclaimer;
};

TEST(GcFaultTest, FreeExtentFaultDefersVictimToNextCycle) {
  GcFixture f(/*max_attempts=*/1);
  f.FillAndExpire();
  const size_t sealed = f.store->SealedExtentStats(f.stream).size();

  f.fi.ArmNext(FaultOp::kFreeExtent, FaultClass::kTransientError);
  auto cycle = f.reclaimer->RunCycle(f.stream, 100);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_EQ(cycle.value().extents_deferred, 1u);
  EXPECT_EQ(cycle.value().extents_expired, sealed - 1);
  // The deferred extent survived this cycle…
  EXPECT_EQ(f.store->SealedExtentStats(f.stream).size(), 1u);

  // …and the next (fault-free) cycle reclaims it.
  auto next = f.reclaimer->RunCycle(f.stream, 100);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().extents_expired, 1u);
  EXPECT_EQ(next.value().extents_deferred, 0u);
  EXPECT_TRUE(f.store->SealedExtentStats(f.stream).empty());
}

TEST(GcFaultTest, FreeExtentFaultAbsorbedByRetry) {
  GcFixture f(/*max_attempts=*/4);
  f.FillAndExpire();
  const size_t sealed = f.store->SealedExtentStats(f.stream).size();

  f.fi.ArmNext(FaultOp::kFreeExtent, FaultClass::kTransientError);
  auto cycle = f.reclaimer->RunCycle(f.stream, 100);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_EQ(cycle.value().extents_deferred, 0u);
  EXPECT_EQ(cycle.value().extents_expired, sealed);
  EXPECT_GT(f.store->stats().retries.Get(), 0u);
  EXPECT_TRUE(f.store->SealedExtentStats(f.stream).empty());
}

TEST(GcFaultTest, ExhaustedFreeExtentTripsTheBreaker) {
  // GC's extent frees run through the same store retry loop as every other
  // caller, so an exhausted budget reaches the breaker like any other.
  CircuitBreakerOptions breaker;
  breaker.enabled = true;
  breaker.failure_threshold = 1;
  GcFixture f(/*max_attempts=*/1, breaker);
  f.FillAndExpire();

  f.fi.ArmNext(FaultOp::kFreeExtent, FaultClass::kTransientError);
  auto cycle = f.reclaimer->RunCycle(f.stream, 100);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_EQ(cycle.value().extents_deferred, 1u);
  EXPECT_EQ(f.store->stats().retry_exhausted.Get(), 1u);
  EXPECT_EQ(f.store->breaker().trips(), 1u)
      << "GC retry exhaustion must feed the circuit breaker";
}

// --- probability-driven soak: the whole stack rides out a noisy substrate ----

TEST(FaultSoakTest, RwRoPipelineSurvivesProbabilisticFaults) {
  FaultInjectorOptions fopts;
  fopts.seed = 0xB63B63;
  fopts.transient_error_p = 0.02;
  fopts.corrupt_read_p = 0.02;
  fopts.torn_append_p = 0.01;
  FaultInjector fi(fopts);

  auto store = std::make_unique<CloudStore>();
  store->SetFaultInjector(&fi);
  replication::RwNodeOptions rw_opts;
  rw_opts.tree.tree_id = 1;
  rw_opts.tree.base_stream = store->CreateStream("base");
  rw_opts.tree.delta_stream = store->CreateStream("delta");
  rw_opts.wal.stream = store->CreateStream("wal");
  rw_opts.flush_group_pages = 8;
  replication::RwNode rw(store.get(), rw_opts);
  replication::RoNodeOptions ro_opts;
  ro_opts.wal_stream = rw_opts.wal.stream;
  replication::RoNode ro(store.get(), ro_opts);

  // Default 4-attempt budgets make exhaustion (0.02^4) vanishingly rare;
  // the run must stay strongly consistent end to end.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(rw.Put(Key(i), "v" + std::to_string(i)).ok())
        << "i=" << i << " " << fi.ToString();
    ASSERT_EQ(ro.Get(1, Key(i)).value(), "v" + std::to_string(i))
        << "i=" << i << " " << fi.ToString();
  }
  EXPECT_GT(store->stats().injected_faults.Get(), 0u) << fi.ToString();
  EXPECT_EQ(store->stats().retry_exhausted.Get(), 0u) << fi.ToString();
  EXPECT_EQ(ro.stats().poll_degraded.Get(), 0u) << fi.ToString();
}

// --- combined fault + overload matrix (ISSUE 5 satellite) ---------------------

// A dead substrate under concurrent write pressure must *shed*, not
// deadlock or retry-spin: the WAL backlog watermark turns Puts into
// Overloaded at the door, the circuit breaker turns retry exhaustion into
// fail-fast, reads keep serving from memory, and once the substrate heals
// the breaker closes and writes resume. Runs multithreaded so the asan/
// tsan presets police the whole shed path.
TEST(FaultOverloadMatrixTest, SaturatedWritesShedFailFastAndRecover) {
  cloud::ManualTimeSource clock;
  cloud::CloudStoreOptions sopts;
  sopts.breaker.enabled = true;
  sopts.breaker.failure_threshold = 4;
  sopts.breaker.open_cooldown_us = 200'000;
  sopts.time_source = &clock;
  auto store = std::make_unique<CloudStore>(sopts);

  replication::RwNodeOptions rw_opts;
  rw_opts.tree.tree_id = 1;
  rw_opts.tree.base_stream = store->CreateStream("base");
  rw_opts.tree.delta_stream = store->CreateStream("delta");
  rw_opts.wal.stream = store->CreateStream("wal");
  rw_opts.wal_backlog_watermark = 16;
  replication::RwNode rw(store.get(), rw_opts);

  // Warm keys the readers will hold onto through the outage.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(rw.Put(Key(i), "warm").ok());
  }

  FaultInjectorOptions fopts;
  fopts.transient_error_p = 1.0;  // substrate fully down.
  FaultInjector fi(fopts);
  store->SetFaultInjector(&fi);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::atomic<uint64_t> ok{0}, overloaded{0}, io_error{0}, other{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Status s = rw.Put(Key(1000 + t * kOpsPerThread + i), "storm");
        if (s.ok()) {
          ok.fetch_add(1);
        } else if (s.IsOverloaded()) {
          overloaded.fetch_add(1);
        } else if (s.IsIOError()) {
          io_error.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
        // Reads are never shed: warm keys stay served from memory.
        EXPECT_EQ(rw.Get(Key(i % 32)).value(), "warm");
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(other.load(), 0u)
      << "saturation may only produce OK/Overloaded/IOError";
  EXPECT_GT(overloaded.load(), 0u) << "the watermark must shed, not queue";
  EXPECT_GT(rw.writes_shed(), 0u);
  EXPECT_GE(store->breaker().trips(), 1u)
      << "repeated retry exhaustion must trip the breaker";
  EXPECT_GT(store->breaker().rejected(), 0u)
      << "an open breaker must fail fast instead of burning retry budgets";

  // Heal: faults stop, the cooldown passes, probes close the breaker, the
  // backlog drains, and writes are accepted again.
  store->SetFaultInjector(nullptr);
  clock.AdvanceUs(300'000);
  // The first successful batch append is a half-open probe success and
  // clears the backlog (and with it the watermark).
  ASSERT_TRUE(rw.wal_writer()->Flush().ok());
  EXPECT_EQ(rw.wal_writer()->BufferedRecords(), 0u);
  for (int i = 0; store->breaker().state() != CircuitBreaker::State::kClosed;
       ++i) {
    ASSERT_LT(i, 100) << "breaker failed to close against a healthy store";
    BG3_IGNORE_STATUS(rw.Put(Key(5000 + i), "probe"));
  }
  EXPECT_TRUE(rw.Put(Key(9000), "after-recovery").ok());
  EXPECT_EQ(rw.Get(Key(9000)).value(), "after-recovery");
}

}  // namespace
}  // namespace bg3
