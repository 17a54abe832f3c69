#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cloud/types.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "test_seed.h"

namespace bg3 {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::IOError("disk gone"); };
  auto outer = [&]() -> Status {
    BG3_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsIOError());
}

TEST(StatusTest, ReturnIfErrorPassesOk) {
  auto outer = []() -> Status {
    BG3_RETURN_IF_ERROR(Status::OK());
    return Status::NotFound("reached end");
  };
  EXPECT_TRUE(outer().IsNotFound());
}

// --- Result ------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  // Held on the heap: GCC 12 at -O2 reports a -Wmaybe-uninitialized false
  // positive on the variant's Status alternative of a stack Result<int>.
  const auto r = std::make_unique<Result<int>>(42);
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(**r, 42);
  EXPECT_TRUE(r->status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = r.take();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto fetch = [](bool fail) -> Result<int> {
    if (fail) return Status::IOError("x");
    return 7;
  };
  auto use = [&](bool fail) -> Status {
    BG3_ASSIGN_OR_RETURN(int v, fetch(fail));
    EXPECT_EQ(v, 7);
    return Status::OK();
  };
  EXPECT_TRUE(use(false).ok());
  EXPECT_TRUE(use(true).IsIOError());
}

// --- Slice -------------------------------------------------------------------

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(Slice().empty());
}

TEST(SliceTest, CompareIsMemcmpOrder) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
}

TEST(SliceTest, EmbeddedNulBytesCompare) {
  const std::string a("a\0b", 3);
  const std::string b("a\0c", 3);
  EXPECT_LT(Slice(a).compare(Slice(b)), 0);
  EXPECT_EQ(Slice(a).size(), 3u);
}

TEST(SliceTest, StartsWithAndRemovePrefix) {
  Slice s("prefix-body");
  EXPECT_TRUE(s.starts_with("prefix"));
  EXPECT_FALSE(s.starts_with("body"));
  s.remove_prefix(7);
  EXPECT_EQ(s.ToString(), "body");
}

// --- coding ------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEF);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, FixedTruncatedFails) {
  std::string buf;
  PutFixed32(&buf, 7);
  buf.resize(3);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetFixed32(&in, &v));
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,       1,          127,        128,
                             16383,   16384,      (1u << 21), (1ull << 35),
                             ~0ull,   0xCAFEBABEull};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
    Slice in(buf);
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&in, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Varint32RoundTrip) {
  for (uint32_t v : {0u, 1u, 300u, 70000u, ~0u}) {
    std::string buf;
    PutVarint32(&buf, v);
    Slice in(buf);
    uint32_t out;
    ASSERT_TRUE(GetVarint32(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  Slice in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "alpha");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(300, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 300u);
}

TEST(CodingTest, LengthPrefixedTruncatedBodyFails) {
  std::string buf;
  PutVarint32(&buf, 10);
  buf += "short";
  Slice in(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixedSlice(&in, &out));
}

// --- random / zipf -----------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, UniformStaysInRange) {
  Random r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Uniform(17), 17u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliApproximatesProbability) {
  Random r(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator z(1000, 0.8, 42);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(), 1000u);
}

TEST(ZipfTest, IsSkewedTowardSmallIds) {
  ZipfGenerator z(100000, 0.9, 42);
  uint64_t top10 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (z.Next() < 10) ++top10;
  }
  // With theta=0.9 over 100k items, the top-10 items absorb a large
  // fraction of all draws — far beyond the uniform 0.01%.
  EXPECT_GT(top10, n / 10);
}

TEST(ZipfTest, LargeDomainConstructionIsFast) {
  // Uses the integral extrapolation beyond 2^20 items.
  ZipfGenerator z(50'000'000, 0.8, 1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.Next(), 50'000'000u);
}

// --- hash --------------------------------------------------------------------

TEST(HashTest, Fnv1aStableAndSeeded) {
  const uint64_t h1 = Fnv1a64("abc", 3);
  EXPECT_EQ(h1, Fnv1a64("abc", 3));
  EXPECT_NE(h1, Fnv1a64("abd", 3));
  EXPECT_NE(h1, Fnv1a64("abc", 3, 1));
}

TEST(HashTest, Mix64SpreadsSequentialIds) {
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 64; ++i) buckets.insert(Mix64(i) % 1024);
  EXPECT_GT(buckets.size(), 55u);  // nearly collision-free spread
}

// --- clock -------------------------------------------------------------------

TEST(ClockTest, WallClockMonotonic) {
  const uint64_t a = NowMicros();
  const uint64_t b = NowMicros();
  EXPECT_LE(a, b);
}

// --- metrics -----------------------------------------------------------------

TEST(CounterTest, SingleThreaded) {
  Counter c;
  c.Inc();
  c.Add(10);
  EXPECT_EQ(c.Get(), 11u);
  c.Reset();
  EXPECT_EQ(c.Get(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Get(), 80000u);
}

TEST(MetricsRegistryTest, NamedCountersPersist) {
  MetricsRegistry reg;
  reg.GetCounter("reads")->Add(3);
  reg.GetCounter("reads")->Add(4);
  reg.GetCounter("writes")->Inc();
  auto snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters["reads"], 7u);
  EXPECT_EQ(snap.counters["writes"], 1u);
}

// --- histogram ---------------------------------------------------------------

TEST(HistogramTest, EmptyIsZeroes) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(HistogramTest, TracksMinMeanMax) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Min(), 10u);
  EXPECT_EQ(h.Max(), 30u);
  EXPECT_NEAR(h.Mean(), 20.0, 0.001);
}

TEST(HistogramTest, PercentilesRoughlyCorrect) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  // Log-bucketed: accept ~25% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 500.0, 130.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 990.0, 250.0);
}

TEST(HistogramTest, ConcurrentRecords) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= 1000; ++i) h.Record(i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), 4000u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 1000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(HistogramTest, HugeValuesDoNotOverflow) {
  Histogram h;
  h.Record(~0ull);
  h.Record(1);
  EXPECT_EQ(h.Max(), ~0ull);
  EXPECT_GE(h.Percentile(0.99), 1u);
}

}  // namespace
}  // namespace bg3

namespace bg3 {
namespace {

TEST(LightCounterTest, BasicAndConcurrent) {
  LightCounter c;
  c.Inc();
  c.Add(4);
  EXPECT_EQ(c.Get(), 5u);
  c.Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 5000; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Get(), 20000u);
}

TEST(LightCounterTest, IsCompact) {
  // The reason it exists: millions of per-tree stats instances.
  EXPECT_LE(sizeof(LightCounter), 8u);
}

// --- retry/backoff ------------------------------------------------------------

TEST(BackoffTest, ScheduleIsDeterministicAndCapped) {
  RetryOptions opts;
  opts.jitter = false;  // assert the exact un-jittered schedule
  opts.initial_backoff_us = 1'000;
  opts.backoff_multiplier = 2.0;
  opts.max_backoff_us = 8'000;
  Backoff b(opts);
  EXPECT_EQ(b.NextDelayUs(), 1'000u);
  EXPECT_EQ(b.NextDelayUs(), 2'000u);
  EXPECT_EQ(b.NextDelayUs(), 4'000u);
  EXPECT_EQ(b.NextDelayUs(), 8'000u);
  EXPECT_EQ(b.NextDelayUs(), 8'000u) << "stays at the cap";
}

TEST(BackoffTest, FullJitterStaysWithinTheScheduleEnvelope) {
  const uint64_t seed =
      test::AnnouncedSeed("BackoffTest.FullJitterStaysWithinTheScheduleEnvelope",
                          0x7e57);
  RetryOptions opts;
  opts.initial_backoff_us = 1'000;
  opts.backoff_multiplier = 2.0;
  opts.max_backoff_us = 8'000;
  opts.jitter_seed = seed;
  Backoff jittered(opts);
  // Envelope = the un-jittered schedule; full jitter draws from [0, env].
  const uint64_t envelope[] = {1'000, 2'000, 4'000, 8'000, 8'000, 8'000};
  for (uint64_t env : envelope) {
    EXPECT_LE(jittered.NextDelayUs(), env);
  }
}

TEST(BackoffTest, JitterSeedPinsTheDelaySequence) {
  RetryOptions opts;
  opts.jitter_seed = 0xfeed;
  Backoff a(opts);
  Backoff b(opts);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.NextDelayUs(), b.NextDelayUs()) << "draw " << i;
  }
}

TEST(BackoffTest, AutoSeededInstancesDrawDistinctStreams) {
  // jitter_seed == 0: each Backoff gets its own stream, so concurrent
  // retriers woken by the same blip cannot re-synchronize into a storm.
  RetryOptions opts;
  opts.initial_backoff_us = 1'000'000;  // wide range: collisions unlikely
  opts.max_backoff_us = 1'000'000;
  Backoff a(opts);
  Backoff b(opts);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextDelayUs() != b.NextDelayUs()) ++differing;
  }
  EXPECT_GT(differing, 0) << "independent streams should diverge";
}

// The loop as CloudStore drives it, minus the store: IOError and Busy are
// retried, and the hooks count re-attempts and exhausted budgets.
template <typename Op>
auto Retry(const RetryOptions& opts, Op&& op, Counter* retries = nullptr,
           Counter* exhausted = nullptr) {
  return RetryWithBackoff(
      opts, /*ctx=*/nullptr,
      [](const Status& s) { return s.IsIOError() || s.IsBusy(); },
      [&] {
        if (retries != nullptr) retries->Inc();
      },
      [&] {
        if (exhausted != nullptr) exhausted->Inc();
      },
      op);
}

TEST(RetryTest, SucceedsAfterTransientFailures) {
  Counter retries, exhausted;
  RetryOptions opts;
  int calls = 0;
  const Status s = Retry(
      opts,
      [&] { return ++calls < 3 ? Status::IOError("blip") : Status::OK(); },
      &retries, &exhausted);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.Get(), 2u);
  EXPECT_EQ(exhausted.Get(), 0u);
}

TEST(RetryTest, ExhaustionSurfacesTheFirstError) {
  Counter retries, exhausted;
  RetryOptions opts;
  opts.max_attempts = 3;
  int calls = 0;
  const Status s = Retry(
      opts,
      [&] { return Status::IOError("attempt " + std::to_string(++calls)); },
      &retries, &exhausted);
  EXPECT_TRUE(s.IsIOError());
  // The first failure is the root cause; later ones are often derived.
  EXPECT_NE(s.ToString().find("attempt 1"), std::string::npos) << s.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.Get(), 2u);
  EXPECT_EQ(exhausted.Get(), 1u);
}

TEST(RetryTest, SingleAttemptBudgetDisablesRetries) {
  RetryOptions opts;
  opts.max_attempts = 1;
  int calls = 0;
  const Status s = Retry(opts, [&] {
    ++calls;
    return Status::IOError("down");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  RetryOptions opts;
  int calls = 0;
  const Status s = Retry(opts, [&] {
    ++calls;
    return Status::InvalidArgument("caller bug");
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(calls, 1) << "logic errors must not be retried";
}

TEST(RetryTest, SleepHookDrivesManualClockThroughTheSchedule) {
  cloud::ManualTimeSource clock;
  RetryOptions opts;
  opts.jitter = false;  // the clock assertion needs the exact schedule
  opts.max_attempts = 4;
  opts.initial_backoff_us = 1'000;
  opts.max_backoff_us = 64'000;
  opts.sleep = [&clock](uint64_t us) { clock.AdvanceUs(us); };
  int calls = 0;
  const Status s = Retry(opts, [&] {
    ++calls;
    return Status::IOError("down");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 4);
  // Three waits: 1ms + 2ms + 4ms of virtual time, nothing real elapsed.
  EXPECT_EQ(clock.NowUs(), 7'000u);
}

TEST(RetryTest, ResultVariantPassesValueThrough) {
  RetryOptions opts;
  int calls = 0;
  auto res = Retry(opts, [&]() -> Result<int> {
    return ++calls < 2 ? Result<int>(Status::Busy("throttled"))
                       : Result<int>(42);
  });
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), 42);
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, ResultVariantSurfacesFirstErrorOnExhaustion) {
  RetryOptions opts;
  opts.max_attempts = 2;
  int calls = 0;
  auto res = Retry(opts, [&]() -> Result<int> {
    return Status::IOError("err " + std::to_string(++calls));
  });
  EXPECT_TRUE(res.status().IsIOError());
  EXPECT_NE(res.status().ToString().find("err 1"), std::string::npos);
}

// --- Lock rank ---------------------------------------------------------------
//
// Runtime half of the bg3-lint lock-rank pass (DESIGN.md §5.6): ranked
// mutexes push onto a thread-local held stack and out-of-order acquisition
// aborts in debug builds. Release builds compile all of it away, so every
// assertion on HeldDepth/TopRank is gated on BG3_DCHECK_IS_ON().

TEST(LockRankTest, IncreasingAcquisitionOrderIsAccepted) {
  Mutex low, high;
  low.SetRank(10, "test::low");
  high.SetRank(20, "test::high");
  low.Lock();
  high.Lock();
  if (BG3_DCHECK_IS_ON()) {
    EXPECT_EQ(lock_rank::HeldDepth(), 2);
    EXPECT_EQ(lock_rank::TopRank(), 20);
  }
  high.Unlock();
  low.Unlock();
  EXPECT_EQ(lock_rank::HeldDepth(), 0);
}

TEST(LockRankTest, UnrankedLocksOptOutOfChecking) {
  Mutex plain;  // never SetRank'd -> kUnranked
  plain.Lock();
  EXPECT_EQ(lock_rank::HeldDepth(), 0);
  EXPECT_EQ(lock_rank::TopRank(), lock_rank::kUnranked);
  plain.Unlock();
}

TEST(LockRankTest, TryLockSkipsOrderCheckButJoinsHeldStack) {
  Mutex low, high;
  low.SetRank(10, "test::low");
  high.SetRank(20, "test::high");
  // Out-of-order probe: a try-lock cannot deadlock, so no order check —
  // but the lock still joins the stack and guards later acquisitions.
  high.Lock();
  ASSERT_TRUE(low.TryLock());
  if (BG3_DCHECK_IS_ON()) {
    EXPECT_EQ(lock_rank::HeldDepth(), 2);
    EXPECT_EQ(lock_rank::TopRank(), 10);
  }
  low.Unlock();
  high.Unlock();
  EXPECT_EQ(lock_rank::HeldDepth(), 0);
}

TEST(LockRankTest, NonLifoReleaseDropsTheMatchingEntry) {
  Mutex low, high;
  low.SetRank(10, "test::low");
  high.SetRank(20, "test::high");
  low.Lock();
  high.Lock();
  low.Unlock();  // release out of LIFO order
  if (BG3_DCHECK_IS_ON()) {
    EXPECT_EQ(lock_rank::HeldDepth(), 1);
    EXPECT_EQ(lock_rank::TopRank(), 20);
  }
  high.Unlock();
  EXPECT_EQ(lock_rank::HeldDepth(), 0);
}

TEST(LockRankTest, SharedAcquisitionsAreRankedToo) {
  SharedMutex low;
  Mutex high;
  low.SetRank(10, "test::shared_low");
  high.SetRank(20, "test::high");
  low.ReaderLock();
  high.Lock();
  if (BG3_DCHECK_IS_ON()) {
    EXPECT_EQ(lock_rank::HeldDepth(), 2);
    EXPECT_EQ(lock_rank::TopRank(), 20);
  }
  high.Unlock();
  low.ReaderUnlock();
  EXPECT_EQ(lock_rank::HeldDepth(), 0);
}

TEST(LockRankTest, GeneratedRankingRespectsWitnessedEdges) {
  // Acquisition orders witnessed by the static pass; regeneration may
  // renumber the constants but must keep these edges strict.
  EXPECT_LT(lock_rank::kOwnerLock_mu, lock_rank::kPageIndex_mu);
  EXPECT_LT(lock_rank::kRoNode_mu, lock_rank::kCloudStore_manifest_mu);
  EXPECT_LT(lock_rank::kRoNode_mu, lock_rank::kCloudStore_topology_mu);
  EXPECT_GT(lock_rank::kOwnerLock_mu, lock_rank::kUnranked);
}

TEST(LockRankDeathTest, DescendingAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low, high;
  low.SetRank(10, "test::low");
  high.SetRank(20, "test::high");
  if (BG3_DCHECK_IS_ON()) {
    EXPECT_DEATH(
        {
          high.Lock();
          low.Lock();
        },
        "lock-rank violation");
  } else {
    // Release builds don't check; the acquisitions simply proceed.
    high.Lock();
    low.Lock();
    low.Unlock();
    high.Unlock();
  }
}

TEST(LockRankDeathTest, ReleasingUnheldRankAborts) {
  if (!BG3_DCHECK_IS_ON()) return;  // inline no-op in release builds
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(lock_rank::NoteRelease(7), "does not hold");
}

TEST(RetryDeathTest, ZeroAttemptBudgetTrapsWhenDchecksOn) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RetryOptions opts;
  opts.max_attempts = 0;
  if (BG3_DCHECK_IS_ON()) {
    EXPECT_DEATH((void)Retry(opts, [] { return Status::OK(); }),
                 "BG3_CHECK failed");
  } else {
    // Release builds don't trap; the loop still runs the op at least once.
    EXPECT_TRUE(Retry(opts, [] { return Status::OK(); }).ok());
  }
}

}  // namespace
}  // namespace bg3
