#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/cloud_store.h"
#include "cloud/latency_model.h"
#include "common/random.h"

namespace bg3::cloud {
namespace {

CloudStoreOptions SmallExtents(size_t capacity = 256) {
  CloudStoreOptions opts;
  opts.extent_capacity = capacity;
  return opts;
}

// --- append / read -----------------------------------------------------------

TEST(CloudStoreTest, AppendAndReadBack) {
  CloudStore store;
  const StreamId s = store.CreateStream("data");
  auto ptr = store.Append(s, "hello world");
  ASSERT_TRUE(ptr.ok());
  auto data = store.Read(ptr.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello world");
}

TEST(CloudStoreTest, CreateStreamIsIdempotentByName) {
  CloudStore store;
  EXPECT_EQ(store.CreateStream("a"), store.CreateStream("a"));
  EXPECT_NE(store.CreateStream("a"), store.CreateStream("b"));
}

TEST(CloudStoreTest, ReadUnknownStreamFails) {
  CloudStore store;
  PagePointer bogus{99, 0, 0, 4};
  EXPECT_FALSE(store.Read(bogus).ok());
}

TEST(CloudStoreTest, AppendRollsToNewExtentWhenFull) {
  CloudStore store(SmallExtents(64));
  const StreamId s = store.CreateStream("data");
  auto p1 = store.Append(s, std::string(40, 'a'));
  auto p2 = store.Append(s, std::string(40, 'b'));
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1.value().extent_id, p2.value().extent_id);
  // Both remain readable.
  EXPECT_EQ(store.Read(p1.value()).value(), std::string(40, 'a'));
  EXPECT_EQ(store.Read(p2.value()).value(), std::string(40, 'b'));
}

TEST(CloudStoreTest, OversizedRecordGetsOwnExtent) {
  CloudStore store(SmallExtents(64));
  const StreamId s = store.CreateStream("data");
  const std::string big(500, 'x');
  auto ptr = store.Append(s, big);
  ASSERT_TRUE(ptr.ok());
  EXPECT_EQ(store.Read(ptr.value()).value(), big);
}

TEST(CloudStoreTest, IoStatsCountOpsAndBytes) {
  CloudStore store;
  const StreamId s = store.CreateStream("data");
  auto ptr = store.Append(s, "12345");
  BG3_IGNORE_STATUS(store.Read(ptr.value()));
  EXPECT_EQ(store.stats().append_ops.Get(), 1u);
  EXPECT_EQ(store.stats().append_bytes.Get(), 5u);
  EXPECT_EQ(store.stats().read_ops.Get(), 1u);
  EXPECT_EQ(store.stats().read_bytes.Get(), 5u);
}

// --- invalidation / space accounting ----------------------------------------

TEST(CloudStoreTest, MarkInvalidTracksDeadBytes) {
  CloudStore store;
  const StreamId s = store.CreateStream("data");
  auto p1 = store.Append(s, "aaaa");
  auto p2 = store.Append(s, "bbbb");
  (void)p2;
  EXPECT_EQ(store.TotalBytes(s), 8u);
  EXPECT_EQ(store.LiveBytes(s), 8u);
  store.MarkInvalid(p1.value());
  EXPECT_EQ(store.TotalBytes(s), 8u);
  EXPECT_EQ(store.LiveBytes(s), 4u);
}

TEST(CloudStoreTest, DoubleInvalidationIsIdempotent) {
  CloudStore store;
  const StreamId s = store.CreateStream("data");
  auto p = store.Append(s, "aaaa");
  store.MarkInvalid(p.value());
  store.MarkInvalid(p.value());
  EXPECT_EQ(store.LiveBytes(s), 0u);
}

TEST(CloudStoreTest, SealedExtentStatsExposeFragmentation) {
  CloudStore store(SmallExtents(64));
  const StreamId s = store.CreateStream("data");
  std::vector<PagePointer> ptrs;
  for (int i = 0; i < 6; ++i) {
    ptrs.push_back(store.Append(s, std::string(30, 'a' + i)).value());
  }
  store.MarkInvalid(ptrs[0]);
  auto stats = store.SealedExtentStats(s);
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].total_records, 2u);
  EXPECT_EQ(stats[0].invalid_records, 1u);
  EXPECT_NEAR(stats[0].FragmentationRate(), 0.5, 1e-9);
}

TEST(CloudStoreTest, FreeExtentReleasesSpaceAndFailsReads) {
  CloudStore store(SmallExtents(64));
  const StreamId s = store.CreateStream("data");
  auto p1 = store.Append(s, std::string(40, 'a'));
  auto p2 = store.Append(s, std::string(40, 'b'));  // rolls extent
  (void)p2;
  const uint64_t before = store.TotalBytes(s);
  ASSERT_TRUE(store.FreeExtent(s, p1.value().extent_id).ok());
  EXPECT_LT(store.TotalBytes(s), before);
  auto read = store.Read(p1.value());
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError() || read.status().IsNotFound());
}

TEST(CloudStoreTest, CannotFreeActiveExtent) {
  // The active extent is excluded from SealedExtentStats, and freeing the
  // whole stream's only extent aborts by contract — verify that sealed
  // stats never include the active extent instead.
  CloudStore store(SmallExtents(1024));
  const StreamId s = store.CreateStream("data");
  BG3_IGNORE_STATUS(store.Append(s, "live data"));
  EXPECT_TRUE(store.SealedExtentStats(s).empty());
}

TEST(CloudStoreTest, ReadValidRecordsSkipsInvalidated) {
  CloudStore store(SmallExtents(64));
  const StreamId s = store.CreateStream("data");
  auto p1 = store.Append(s, std::string(20, 'a'));
  auto p2 = store.Append(s, std::string(20, 'b'));
  auto p3 = store.Append(s, std::string(20, 'c'));
  (void)p3;  // p3 may land in the same extent; invalidate p2 only.
  store.MarkInvalid(p2.value());
  auto records = store.ReadValidRecords(s, p1.value().extent_id);
  ASSERT_TRUE(records.ok());
  for (const auto& [ptr, data] : records.value()) {
    EXPECT_NE(data, std::string(20, 'b'));
  }
}

// --- log tailing -------------------------------------------------------------

TEST(CloudStoreTest, TailRecordsFromStart) {
  CloudStore store(SmallExtents(64));
  const StreamId s = store.CreateStream("log");
  for (int i = 0; i < 5; ++i) {
    BG3_IGNORE_STATUS(store.Append(s, "rec" + std::to_string(i)));
  }
  auto records = store.TailRecords(s, PagePointer{}, 100).value();
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].second, "rec" + std::to_string(i));
  }
}

TEST(CloudStoreTest, TailRecordsResumesAfterCursor) {
  CloudStore store(SmallExtents(64));
  const StreamId s = store.CreateStream("log");
  for (int i = 0; i < 3; ++i) (void)store.Append(s, "a" + std::to_string(i));
  auto first = store.TailRecords(s, PagePointer{}, 100).value();
  ASSERT_EQ(first.size(), 3u);
  for (int i = 0; i < 3; ++i) (void)store.Append(s, "b" + std::to_string(i));
  auto rest = store.TailRecords(s, first.back().first, 100).value();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].second, "b0");
}

TEST(CloudStoreTest, TailRecordsHonorsMaxRecords) {
  CloudStore store;
  const StreamId s = store.CreateStream("log");
  for (int i = 0; i < 10; ++i) (void)store.Append(s, "x");
  EXPECT_EQ(store.TailRecords(s, PagePointer{}, 4).value().size(), 4u);
}

TEST(CloudStoreTest, TailSpansExtentBoundaries) {
  CloudStore store(SmallExtents(32));
  const StreamId s = store.CreateStream("log");
  for (int i = 0; i < 8; ++i) {
    BG3_IGNORE_STATUS(store.Append(s, std::string(20, static_cast<char>('0' + i))));
  }
  auto all = store.TailRecords(s, PagePointer{}, 100).value();
  ASSERT_EQ(all.size(), 8u);
  auto tail = store.TailRecords(s, all[3].first, 100).value();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].second[0], '4');
}

// --- manifest ----------------------------------------------------------------

TEST(CloudStoreTest, ManifestPutGetRoundTrip) {
  CloudStore store;
  uint64_t v1 = store.ManifestPut("root", "alpha");
  uint64_t version = 0;
  auto got = store.ManifestGet("root", &version);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "alpha");
  EXPECT_EQ(version, v1);
}

TEST(CloudStoreTest, ManifestVersionsMonotone) {
  CloudStore store;
  const uint64_t v1 = store.ManifestPut("k", "1");
  const uint64_t v2 = store.ManifestPut("k", "2");
  EXPECT_LT(v1, v2);
  EXPECT_EQ(store.ManifestGet("k").value(), "2");
}

TEST(CloudStoreTest, ManifestMissingKeyIsNotFound) {
  CloudStore store;
  EXPECT_TRUE(store.ManifestGet("ghost").status().IsNotFound());
}

// --- PagePointer codec ---------------------------------------------------------

TEST(PagePointerTest, EncodeDecodeRoundTrip) {
  PagePointer p{3, 42, 100, 57};
  std::string buf;
  p.EncodeTo(&buf);
  Slice in(buf);
  PagePointer q;
  ASSERT_TRUE(PagePointer::DecodeFrom(&in, &q));
  EXPECT_EQ(p, q);
  EXPECT_TRUE(in.empty());
}

TEST(PagePointerTest, DefaultIsNull) {
  PagePointer p;
  EXPECT_TRUE(p.IsNull());
  PagePointer q{0, 5, 0, 0};
  EXPECT_FALSE(q.IsNull());
}

// --- latency model -----------------------------------------------------------

TEST(LatencyModelTest, BaseCostsApply) {
  LatencyModelOptions o;
  o.append_base_us = 1000;
  o.read_base_us = 2000;
  o.bandwidth_mb_per_s = 100;
  LatencyModel m(o);
  EXPECT_EQ(m.AppendLatencyUs(0), 1000u);
  EXPECT_EQ(m.ReadLatencyUs(0), 2000u);
  // 1 MB at 100 MB/s = 10 ms transfer.
  EXPECT_EQ(m.AppendLatencyUs(1'000'000), 1000u + 10'000u);
}

TEST(LatencyModelTest, UtilizationInflatesLatency) {
  LatencyModel m;
  const uint64_t idle = m.ReadLatencyUs(4096);
  m.SetOfferedUtilization(0.5);
  EXPECT_NEAR(static_cast<double>(m.ReadLatencyUs(4096)),
              2.0 * static_cast<double>(idle), 2.0);
  m.SetOfferedUtilization(2.0);  // clamped to 0.99
  EXPECT_LT(m.ReadLatencyUs(4096), 101 * idle);
}

// --- observer ----------------------------------------------------------------

class RecordingObserver : public StoreObserver {
 public:
  void OnAppend(const PagePointer& ptr) override { ++appends; }
  void OnInvalidate(const PagePointer& ptr) override { ++invalidates; }
  void OnExtentFreed(StreamId stream, ExtentId extent) override { ++freed; }
  int appends = 0;
  int invalidates = 0;
  int freed = 0;
};

TEST(CloudStoreTest, ObserverSeesAllEvents) {
  CloudStore store(SmallExtents(32));
  RecordingObserver obs;
  store.SetObserver(&obs);
  const StreamId s = store.CreateStream("data");
  auto p1 = store.Append(s, std::string(20, 'a'));
  BG3_IGNORE_STATUS(store.Append(s, std::string(20, 'b')));  // seals extent of p1
  store.MarkInvalid(p1.value());
  ASSERT_TRUE(store.FreeExtent(s, p1.value().extent_id).ok());
  EXPECT_EQ(obs.appends, 2);
  EXPECT_EQ(obs.invalidates, 1);
  EXPECT_EQ(obs.freed, 1);
  store.SetObserver(nullptr);
}

// --- concurrency -------------------------------------------------------------

TEST(CloudStoreTest, ConcurrentAppendsAllReadable) {
  CloudStore store(SmallExtents(1024));
  const StreamId s = store.CreateStream("data");
  std::vector<std::thread> threads;
  std::vector<std::vector<PagePointer>> ptrs(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        auto p = store.Append(
            s, "t" + std::to_string(t) + ":" + std::to_string(i));
        ASSERT_TRUE(p.ok());
        ptrs[t].push_back(p.value());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 500; ++i) {
      auto data = store.Read(ptrs[t][i]);
      ASSERT_TRUE(data.ok());
      EXPECT_EQ(data.value(), "t" + std::to_string(t) + ":" + std::to_string(i));
    }
  }
  EXPECT_EQ(store.stats().append_ops.Get(), 2000u);
}

TEST(CloudStoreTest, ConcurrentAppendsToDistinctStreams) {
  CloudStore store;
  const StreamId a = store.CreateStream("a");
  const StreamId b = store.CreateStream("b");
  std::thread ta([&] {
    for (int i = 0; i < 1000; ++i) ASSERT_TRUE(store.Append(a, "x").ok());
  });
  std::thread tb([&] {
    for (int i = 0; i < 1000; ++i) ASSERT_TRUE(store.Append(b, "y").ok());
  });
  ta.join();
  tb.join();
  EXPECT_EQ(store.TotalBytes(a), 1000u);
  EXPECT_EQ(store.TotalBytes(b), 1000u);
}

// Readers share the stream lock; appends, invalidation and frees take it
// exclusively. Readers racing all three on one stream must see either the
// exact record bytes or a clean NotFound/IOError for a freed extent —
// never torn data.
TEST(CloudStoreTest, SharedReadsRaceAppendsInvalidationAndFrees) {
  CloudStore store(SmallExtents(512));
  const StreamId s = store.CreateStream("data");
  // Self-describing records: the index determines every byte.
  auto record = [](int i) {
    std::string r = std::to_string(i) + ":";
    r.append(40 + i % 50, static_cast<char>('a' + i % 26));
    return r;
  };

  std::mutex published_mu;  // guards `published` (test bookkeeping only)
  std::vector<std::pair<int, PagePointer>> published;
  auto publish = [&](int i, const PagePointer& p) {
    std::lock_guard<std::mutex> lock(published_mu);
    published.emplace_back(i, p);
  };
  auto pick = [&](Random* rng) {
    std::lock_guard<std::mutex> lock(published_mu);
    return published[rng->Uniform(published.size())];
  };
  std::atomic<int> next_index{0};
  for (; next_index < 200; ++next_index) {  // several sealed extents
    auto p = store.Append(s, record(next_index));
    ASSERT_TRUE(p.ok());
    publish(next_index, p.value());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> good_reads{0};
  std::atomic<uint64_t> frees{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {  // appenders: seal and open extents
    threads.emplace_back([&] {
      while (!stop.load() && next_index.load() < 20'000) {
        const int i = next_index.fetch_add(1);
        auto p = store.Append(s, record(i));
        ASSERT_TRUE(p.ok());
        publish(i, p.value());
      }
    });
  }
  threads.emplace_back([&] {  // invalidator
    Random rng(11);
    while (!stop.load()) store.MarkInvalid(pick(&rng).second);
  });
  threads.emplace_back([&] {  // freer: drops the oldest sealed extent
    while (!stop.load()) {
      const auto sealed = store.SealedExtentStats(s);
      if (sealed.size() > 2) {
        ASSERT_TRUE(store.FreeExtent(s, sealed.front().id).ok());
        frees.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < 3; ++t) {  // readers of sealed and active extents
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (int n = 0; n < 20'000; ++n) {
        const auto [i, ptr] = pick(&rng);
        auto data = store.Read(ptr);
        if (data.ok()) {
          ASSERT_EQ(data.value(), record(i));
          good_reads.fetch_add(1);
        } else {
          ASSERT_TRUE(data.status().IsNotFound() ||
                      data.status().IsIOError())
              << data.status().ToString();
        }
      }
    });
  }
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 0; t < 4; ++t) threads[t].join();
  EXPECT_GT(good_reads.load(), 0u);
  // The first free took the oldest extent, which held record 0.
  ASSERT_GT(frees.load(), 0u);
  const Status gone = store.Read(published.front().second).status();
  EXPECT_TRUE(gone.IsNotFound() || gone.IsIOError()) << gone.ToString();
}

}  // namespace
}  // namespace bg3::cloud

#include "common/crc32.h"

namespace bg3::cloud {
namespace {

TEST(Crc32cTest, KnownVectorsAndProperties) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_NE(Crc32c("abc", 3), Crc32c("abd", 3));
  EXPECT_EQ(Crc32c("abc", 3), Crc32c("abc", 3));
}

// Crc32c runs the SSE4.2 instruction when cpuid reports it; it must agree
// with the table loop on every length, misalignment and seed, and both
// must chain (the CRC of a||b seeded with the CRC of a).
TEST(Crc32cTest, HardwareLoopMatchesTableLoop) {
  const bool hardware = Crc32cIsHardware();
  if (!hardware) {
    std::printf("CPU lacks SSE4.2: only the table loop is checked\n");
  }
  Random rng(0xC32C);
  std::string buf(8192 + 64, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  // Every short length around the 8-byte word boundary, at every offset.
  for (size_t align = 0; hardware && align < 64; ++align) {
    for (size_t n = 0; n <= 80; ++n) {
      const char* p = buf.data() + align;
      ASSERT_EQ(Crc32c(p, n), Crc32cPortable(p, n)) << align << "+" << n;
    }
  }
  // Random lengths up to 8 KiB, random offsets and seeds, split anywhere.
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t align = rng.Uniform(64);
    const size_t n = rng.Uniform(8192 + 1);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const size_t cut = rng.Uniform(n + 1);
    const char* p = buf.data() + align;
    const uint32_t whole = Crc32cPortable(p, n, seed);
    EXPECT_EQ(Crc32cPortable(p + cut, n - cut, Crc32cPortable(p, cut, seed)),
              whole);
    if (hardware) {
      ASSERT_EQ(Crc32c(p, n, seed), whole)
          << "align " << align << " n " << n << " seed " << seed;
      EXPECT_EQ(Crc32c(p + cut, n - cut, Crc32c(p, cut, seed)), whole);
    }
  }
}

TEST(CloudStoreTest, CorruptionSurfacesAsChecksumError) {
  CloudStore store;
  const StreamId s = store.CreateStream("data");
  auto ptr = store.Append(s, "precious bytes");
  ASSERT_TRUE(ptr.ok());
  ASSERT_TRUE(store.Read(ptr.value()).ok());
  ASSERT_TRUE(store.CorruptRecordForTesting(ptr.value(), 3));
  auto read = store.Read(ptr.value());
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption());
}

TEST(CloudStoreTest, CorruptionOfOneRecordDoesNotAffectNeighbors) {
  CloudStore store;
  const StreamId s = store.CreateStream("data");
  auto p1 = store.Append(s, "record-one");
  auto p2 = store.Append(s, "record-two");
  ASSERT_TRUE(store.CorruptRecordForTesting(p1.value(), 0));
  EXPECT_TRUE(store.Read(p1.value()).status().IsCorruption());
  EXPECT_EQ(store.Read(p2.value()).value(), "record-two");
}

TEST(CloudStoreTest, CorruptUnknownRecordRejected) {
  CloudStore store;
  const StreamId s = store.CreateStream("data");
  auto p = store.Append(s, "abc");
  EXPECT_FALSE(store.CorruptRecordForTesting({s, 99, 0, 3}, 0));
  EXPECT_FALSE(store.CorruptRecordForTesting(p.value(), 100));  // past end
}

TEST(CloudStoreTest, ManifestListByPrefix) {
  CloudStore store;
  store.ManifestPut("pt/1/10", "a");
  store.ManifestPut("pt/1/11", "b");
  store.ManifestPut("pt/2/10", "c");
  store.ManifestPut("other", "d");
  auto all = store.ManifestList("pt/");
  ASSERT_EQ(all.size(), 3u);
  auto tree1 = store.ManifestList("pt/1/");
  ASSERT_EQ(tree1.size(), 2u);
  EXPECT_EQ(tree1[0].first, "pt/1/10");
  EXPECT_TRUE(store.ManifestList("zzz").empty());
}

TEST(CloudStoreTest, TruncateStreamBeforeFreesOnlySealedPrefix) {
  CloudStoreOptions opts;
  opts.extent_capacity = 32;
  CloudStore store(opts);
  const StreamId s = store.CreateStream("wal");
  std::vector<PagePointer> ptrs;
  for (int i = 0; i < 10; ++i) {
    ptrs.push_back(store.Append(s, std::string(20, 'a' + i)).value());
  }
  const ExtentId cut = ptrs[5].extent_id;
  const size_t freed = store.TruncateStreamBefore(s, cut);
  EXPECT_GT(freed, 0u);
  // Records before the cut are gone; at/after the cut still readable.
  EXPECT_FALSE(store.Read(ptrs[0]).ok());
  EXPECT_TRUE(store.Read(ptrs[5]).ok());
  EXPECT_TRUE(store.Read(ptrs[9]).ok());
}

}  // namespace
}  // namespace bg3::cloud
