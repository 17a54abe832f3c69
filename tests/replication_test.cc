#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/metrics_registry.h"
#include "replication/channel.h"
#include "replication/forwarding.h"
#include "replication/page_image.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"

namespace bg3::replication {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct ReplFixture {
  explicit ReplFixture(size_t flush_group_pages = 4,
                       size_t max_leaf_entries = 32,
                       size_t ro_cache_pages = 1024) {
    store = std::make_unique<cloud::CloudStore>();
    RwNodeOptions rw_opts;
    rw_opts.tree.tree_id = 1;
    rw_opts.tree.max_leaf_entries = max_leaf_entries;
    rw_opts.tree.base_stream = store->CreateStream("base");
    rw_opts.tree.delta_stream = store->CreateStream("delta");
    wal_stream = store->CreateStream("wal");
    rw_opts.wal.stream = wal_stream;
    rw_opts.flush_group_pages = flush_group_pages;
    rw = std::make_unique<RwNode>(store.get(), rw_opts);

    RoNodeOptions ro_opts;
    ro_opts.wal_stream = rw_opts.wal.stream;
    ro_opts.cache_capacity_pages = ro_cache_pages;
    ro = std::make_unique<RoNode>(store.get(), ro_opts);
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<RwNode> rw;
  std::unique_ptr<RoNode> ro;
  cloud::StreamId wal_stream = 0;
};

// --- page image meta -------------------------------------------------------------

TEST(PageImageMetaTest, RoundTrip) {
  PageImageMeta meta;
  meta.flushed_lsn = 77;
  meta.base_ptr = {1, 5, 100, 200};
  meta.delta_ptrs = {{2, 6, 0, 50}, {2, 7, 50, 60}};
  const std::string buf = meta.Encode();
  PageImageMeta out;
  ASSERT_TRUE(PageImageMeta::Decode(Slice(buf), &out).ok());
  EXPECT_EQ(out.flushed_lsn, 77u);
  EXPECT_EQ(out.base_ptr, meta.base_ptr);
  ASSERT_EQ(out.delta_ptrs.size(), 2u);
  EXPECT_EQ(out.delta_ptrs[1], meta.delta_ptrs[1]);
}

TEST(PageImageMetaTest, KeyIsPerTreeAndPage) {
  EXPECT_NE(PageImageKey(1, 2), PageImageKey(2, 1));
  EXPECT_EQ(PageImageKey(1, 2), PageImageKey(1, 2));
}

// --- lossy channel -----------------------------------------------------------------

TEST(LossyChannelTest, LosslessByDefault) {
  LossyChannel ch(ChannelOptions{});
  for (int i = 0; i < 100; ++i) ch.Send("m" + std::to_string(i));
  auto out = ch.Drain();
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[99], "m99");
  EXPECT_TRUE(ch.Drain().empty());
}

TEST(LossyChannelTest, DropsApproximatelyAtConfiguredRate) {
  ChannelOptions opts;
  opts.loss_rate = 0.05;
  opts.loss_burst = 2;
  opts.seed = 42;
  LossyChannel ch(opts);
  for (int i = 0; i < 10000; ++i) ch.Send("m");
  const double delivered = static_cast<double>(ch.Drain().size());
  // Burst 2 at p=0.05 per send: expected delivered fraction ~ 0.90.
  EXPECT_NEAR(delivered / 10000.0, 0.90, 0.03);
}

// --- forwarding baseline (eventual consistency) -------------------------------------

TEST(ForwardingTest, LosslessChannelReachesFullRecall) {
  LossyChannel ch(ChannelOptions{});
  ForwardingRwNode rw({&ch});
  ForwardingRoNode ro(&ch);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(rw.Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ro.Drain();
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(ro.Get(Key(i)).value(), "v" + std::to_string(i));
  }
}

TEST(ForwardingTest, PacketLossLosesWrites) {
  ChannelOptions opts;
  opts.loss_rate = 0.05;
  LossyChannel ch(opts);
  ForwardingRwNode rw({&ch});
  ForwardingRoNode ro(&ch);
  const int n = 2000;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(rw.Put(Key(i), "v").ok());
  ro.Drain();
  int recalled = 0;
  for (int i = 0; i < n; ++i) recalled += ro.Get(Key(i)).ok() ? 1 : 0;
  EXPECT_LT(recalled, n);       // eventual consistency lost data...
  EXPECT_GT(recalled, n * 3 / 4);  // ...but most arrived.
  // The RW node itself always has everything.
  for (int i = 0; i < n; ++i) EXPECT_TRUE(rw.Get(Key(i)).ok());
}

TEST(ForwardingTest, DeletesForwardToo) {
  LossyChannel ch(ChannelOptions{});
  ForwardingRwNode rw({&ch});
  ForwardingRoNode ro(&ch);
  ASSERT_TRUE(rw.Put("k", "v").ok());
  ASSERT_TRUE(rw.Delete("k").ok());
  ro.Drain();
  EXPECT_TRUE(ro.Get("k").status().IsNotFound());
}

// --- WAL-based sync (strong consistency) ---------------------------------------------

TEST(RwRoSyncTest, RoSeesWriteImmediately) {
  ReplFixture f;
  ASSERT_TRUE(f.rw->Put("key", "value").ok());
  EXPECT_EQ(f.ro->Get(1, "key").value(), "value");
}

TEST(RwRoSyncTest, RoSeesEveryWriteBeforeAnyFlush) {
  ReplFixture f(/*flush_group_pages=*/1'000'000);  // no group flush at all
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // The first pass fills the cache; the second reads warm pages.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "v" + std::to_string(i)) << i;
    }
  }
  // A miss on an absent key of a cached page is authoritative too.
  EXPECT_TRUE(f.ro->Get(1, "nope").status().IsNotFound());
}

TEST(RwRoSyncTest, RoSeesWritesAfterGroupFlushAndCheckpoint) {
  ReplFixture f(/*flush_group_pages=*/2);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(f.rw->checkpointer()->CheckpointNow().ok());
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "v" + std::to_string(i)) << i;
  }
  // Checkpoints let the RO discard replay log entries.
  EXPECT_GT(f.rw->checkpointer()->published_lsn(), 0u);
  BG3_IGNORE_STATUS(f.ro->PollWal());
  EXPECT_EQ(f.ro->PendingRecordCount(), 0u);
}

TEST(RwRoSyncTest, UpdatesAndDeletesReplicate) {
  ReplFixture f;
  ASSERT_TRUE(f.rw->Put("k", "v1").ok());
  EXPECT_EQ(f.ro->Get(1, "k").value(), "v1");
  ASSERT_TRUE(f.rw->Put("k", "v2").ok());
  EXPECT_EQ(f.ro->Get(1, "k").value(), "v2");
  ASSERT_TRUE(f.rw->Delete("k").ok());
  EXPECT_TRUE(f.ro->Get(1, "k").status().IsNotFound());
}

TEST(RwRoSyncTest, ConsistentAcrossSplits) {
  // The Fig. 6 scenario: a split must never make the RO lose sight of keys
  // (the inconsistency BG3's synchronization is designed to prevent).
  ReplFixture f(/*flush_group_pages=*/8, /*max_leaf_entries=*/8);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
    if (i % 7 == 0) {
      EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "v" + std::to_string(i));
    }
  }
  EXPECT_GT(f.rw->tree()->stats().splits.Get(), 0u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "v" + std::to_string(i)) << i;
  }
}

TEST(RwRoSyncTest, NewPageCreatedInMemoryOnRo) {
  // A page born from a split and never flushed must be reconstructible on
  // the RO purely from the WAL ("the RO node directly creates it in
  // memory", Fig. 7 step (6)).
  ReplFixture f(/*flush_group_pages=*/1'000'000, /*max_leaf_entries=*/4);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "x").ok());
  }
  EXPECT_GT(f.rw->tree()->stats().splits.Get(), 0u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(f.ro->Get(1, Key(i)).ok()) << i;
  }
}

TEST(RwRoSyncTest, CacheEvictionForcesRebuildFromOldMapping) {
  ReplFixture f(/*flush_group_pages=*/4, /*max_leaf_entries=*/8,
                /*ro_cache_pages=*/2);  // tiny RO cache
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // Reads sweep the key space repeatedly; with 2 cache pages every read is
  // effectively a miss that must rebuild via manifest images + replay.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; i += 17) {
      EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "v" + std::to_string(i));
    }
  }
  EXPECT_GT(f.ro->stats().cache_misses.Get(), 10u);
}

TEST(RwRoSyncTest, ScanOnRoMatchesRw) {
  ReplFixture f(/*flush_group_pages=*/4, /*max_leaf_entries=*/8);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), std::to_string(i)).ok());
  }
  std::vector<bwtree::Entry> ro_out;
  ASSERT_TRUE(f.ro->Scan(1, Key(10), Key(50), 1000, &ro_out).ok());
  ASSERT_EQ(ro_out.size(), 40u);
  EXPECT_EQ(ro_out.front().key, Key(10));
  EXPECT_EQ(ro_out.back().key, Key(49));
}

TEST(RwRoSyncTest, MultipleRoNodesStayConsistent) {
  ReplFixture f;
  RoNodeOptions opts;
  opts.wal_stream = 2;  // streams: base=0, delta=1, wal=2
  RoNode ro2(f.store.get(), opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.ro->Get(1, Key(i)).ok());
    EXPECT_TRUE(ro2.Get(1, Key(i)).ok());
  }
}

TEST(RwRoSyncTest, PendingLogCompactionPreservesCorrectness) {
  ReplFixture f(/*flush_group_pages=*/1'000'000);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(i), "r" + std::to_string(round)).ok());
    }
  }
  BG3_IGNORE_STATUS(f.ro->PollWal());
  const size_t before = f.ro->PendingRecordCount();
  f.ro->CompactPendingLogs();
  EXPECT_LT(f.ro->PendingRecordCount(), before);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "r49");
  }
}

TEST(RwRoSyncTest, SyncLatencyRecorded) {
  ReplFixture f;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  BG3_IGNORE_STATUS(f.ro->PollWal());
  EXPECT_EQ(f.ro->sync_latency().Count(), 50u);
  EXPECT_GT(f.ro->sync_latency().Mean(), 0.0);
}

TEST(RwRoSyncTest, InterleavedWritesAndRoReadsUnderConcurrency) {
  ReplFixture f(/*flush_group_pages=*/8, /*max_leaf_entries=*/16);
  std::thread writer([&] {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(i), std::to_string(i)).ok());
    }
  });
  std::thread reader([&] {
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 1000; i += 31) {
        auto v = f.ro->Get(1, Key(i));
        if (v.ok()) {
          EXPECT_EQ(v.value(), std::to_string(i));
        }
      }
    }
  });
  writer.join();
  reader.join();
  // Post-hoc: RO reflects all writes.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(f.ro->Get(1, Key(i)).value(), std::to_string(i)) << i;
  }
}

}  // namespace
}  // namespace bg3::replication

namespace bg3::replication {
namespace {

// Regression: a fresh RO must drain the *entire* WAL even when it holds
// more batches than one reader poll returns (the bug behind an 0.88 recall
// in the Fig. 12 reproduction).
TEST(RwRoSyncTest, FreshRoDrainsThousandsOfWalBatches) {
  ReplFixture f(/*flush_group_pages=*/1'000'000);  // no checkpoints at all
  const int n = 3000;  // > the reader's 1024-batch poll window
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  }
  RoNodeOptions opts;
  opts.wal_stream = 2;
  RoNode fresh(f.store.get(), opts);
  int visible = 0;
  for (int i = 0; i < n; ++i) visible += fresh.Get(1, Key(i)).ok() ? 1 : 0;
  EXPECT_EQ(visible, n);
}

// Regression: pending-log compaction must not re-trigger on every append
// once past the threshold (unique keys cannot shrink), and must preserve
// correctness for interleaved updates.
TEST(RwRoSyncTest, PendingCompactionWatermarkAndCorrectness) {
  ReplFixture f(/*flush_group_pages=*/1'000'000);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(i), "r" + std::to_string(round)).ok());
    }
  }
  BG3_IGNORE_STATUS(f.ro->PollWal());
  EXPECT_EQ(f.ro->PendingRecordCount(), 1600u);  // nothing checkpointed
  f.ro->CompactPendingLogs();
  // Merging keeps at most one record per key per page log (a key may appear
  // in a few page logs when its leaf split between updates).
  EXPECT_LT(f.ro->PendingRecordCount(), 1000u);
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "r3");
  }
  // Appending more records after a merge must not re-trigger compaction on
  // every single append (watermark regression): correctness still holds.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "r4").ok());
  }
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(f.ro->Get(1, Key(i)).value(), "r4");
  }
}

// Mutation-count pressure must checkpoint even when few pages exist.
TEST(RwRoSyncTest, MutationPressureTriggersCheckpoints) {
  ReplFixture f(/*flush_group_pages=*/1'000'000);  // page pressure never fires
  for (int i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i % 64), "v" + std::to_string(i)).ok());
  }
  EXPECT_GT(f.rw->checkpointer()->published_lsn(), 0u);
  BG3_IGNORE_STATUS(f.ro->PollWal());
  EXPECT_LT(f.ro->PendingRecordCount(), 10'000u);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(f.ro->Get(1, Key(i)).ok());
}

}  // namespace
}  // namespace bg3::replication

namespace bg3::replication {
namespace {

// Regression: a checkpoint must not discard replay records a *cached* RO
// page has not applied yet — the cached copy never re-reads the manifest,
// so those updates would be lost on that node forever.
TEST(RwRoSyncTest, CheckpointDoesNotStalenessCachedPages) {
  ReplFixture f(/*flush_group_pages=*/1'000'000, /*max_leaf_entries=*/1024);
  ASSERT_TRUE(f.rw->Put(Key(0), "v").ok());
  // Cache the (single) page on the RO.
  ASSERT_TRUE(f.ro->Get(1, Key(0)).ok());
  // New writes to the same page, then a checkpoint that discards them.
  for (int i = 1; i < 50; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  ASSERT_TRUE(f.rw->Put(Key(0), "updated").ok());
  ASSERT_TRUE(f.rw->checkpointer()->CheckpointNow().ok());
  // The cached page must reflect everything the checkpoint covered.
  EXPECT_EQ(f.ro->Get(1, Key(0)).value(), "updated");
  for (int i = 1; i < 50; ++i) {
    EXPECT_TRUE(f.ro->Get(1, Key(i)).ok()) << i;
  }
}

// Group flushes triggered on several writer threads cut while the other
// writers split pages. A follower bootstrapping from whatever manifest is
// current must rebuild every page: a parent's post-split image never
// publishes without its new sibling's.
TEST(RwRoSyncTest, ConcurrentGroupFlushesPublishRebuildableImages) {
  ReplFixture f(/*flush_group_pages=*/4, /*max_leaf_entries=*/8);
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 400;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&f, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        EXPECT_TRUE(f.rw->Put(Key(i * kWriters + t), "v").ok());
      }
    });
  }
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = f.wal_stream;
  std::atomic<bool> done{false};
  std::atomic<int> corrupt{0};
  std::thread bootstrapper([&] {
    while (!done.load()) {
      RoNode fresh(f.store.get(), ro_opts);
      for (int i = 0; i < kWriters * kPerWriter; i += 7) {
        if (fresh.Get(1, Key(i)).status().IsCorruption()) corrupt.fetch_add(1);
      }
    }
  });
  for (auto& w : writers) w.join();
  done.store(true);
  bootstrapper.join();
  EXPECT_EQ(corrupt.load(), 0);

  RoNode fresh(f.store.get(), ro_opts);
  for (int i = 0; i < kWriters * kPerWriter; ++i) {
    EXPECT_EQ(fresh.Get(1, Key(i)).value(), "v") << i;
  }
  EXPECT_TRUE(fresh.ResumedFromCheckpoint());
}

// A cached RO page is one base run, as a writer's leaf is: its heap bytes
// per cached entry stay within the writer's leaf_bytes_per_entry bound
// (bench_read_scaling), and the node exports them as `cache_bytes`.
TEST(RwRoSyncTest, CachedPagesCostWhatTheWritersLeavesCost) {
  ReplFixture f;
  constexpr int kKeys = 4000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "value-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(f.ro->Get(1, Key(i)).value(), "value-" + std::to_string(i));
  }
  ASSERT_EQ(f.ro->CachedPageCount(), f.rw->tree()->LeafCount());
  const size_t bytes = f.ro->CacheBytes();
  EXPECT_LE(static_cast<double>(bytes) / kKeys, 45.0);

  const auto counters = MetricsRegistry::Default().TakeSnapshot().counters;
  int exported = 0;
  for (const auto& [name, value] : counters) {
    if (name.starts_with("bg3.replication.ro") &&
        name.ends_with(".cache_bytes")) {
      EXPECT_EQ(value, bytes);
      ++exported;
    }
  }
  EXPECT_EQ(exported, 1);
}

// --- warm reads --------------------------------------------------------------

TEST(RwRoSyncTest, ReadReplaysPendingRecordsOntoWarmPage) {
  ReplFixture f;
  ASSERT_TRUE(f.rw->Put(Key(0), "old").ok());
  ASSERT_EQ(f.ro->Get(1, Key(0)).value(), "old");  // warm the cache
  ASSERT_TRUE(f.rw->Put(Key(0), "new").ok());
  // An explicit poll pulls the record into the pending log; the next read
  // must replay it onto the cached page.
  ASSERT_TRUE(f.ro->PollWal().ok());
  EXPECT_EQ(f.ro->Get(1, Key(0)).value(), "new");
}

TEST(RwRoSyncTest, ConcurrentWarmReadersAgree) {
  ReplFixture f;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.ro->Get(1, Key(i)).ok());  // warm every page
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&f, &failures, t] {
      for (int i = 0; i < 500; ++i) {
        auto v = f.ro->Get(1, Key((i + t) % 30));
        if (!v.ok() || v.value() != "v") failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Get is the page walk's one-key case and Scan its copying case: over pages
// that split after their images were published and still hold pending
// records, a cold Get and a warm one answer what Scan lists.
TEST(RwRoSyncTest, GetAgreesWithScanOverSplitPagesWithPendingRecords) {
  ReplFixture f(/*flush_group_pages=*/1'000'000, /*max_leaf_entries=*/4);
  for (int i = 0; i < 120; i += 2) {
    ASSERT_TRUE(f.rw->Put(Key(i), "even" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(f.rw->checkpointer()->CheckpointNow().ok());
  const uint64_t splits_at_checkpoint = f.rw->tree()->stats().splits.Get();
  for (int i = 1; i < 120; i += 2) {
    ASSERT_TRUE(f.rw->Put(Key(i), "odd" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 120; i += 3) ASSERT_TRUE(f.rw->Delete(Key(i)).ok());
  ASSERT_GT(f.rw->tree()->stats().splits.Get(), splits_at_checkpoint);

  std::vector<bwtree::Entry> all;
  ASSERT_TRUE(f.ro->Scan(1, "", "", 1000, &all).ok());
  ASSERT_GT(f.ro->PendingRecordCount(), 0u);
  ASSERT_EQ(all.size(), 80u);
  RoNodeOptions cold_opts;
  cold_opts.wal_stream = f.wal_stream;
  RoNode cold(f.store.get(), cold_opts);
  for (const bwtree::Entry& e : all) {
    EXPECT_EQ(cold.Get(1, e.key).value(), e.value) << e.key;
    EXPECT_EQ(f.ro->Get(1, e.key).value(), e.value) << e.key;
  }
  for (int i = 0; i < 120; i += 3) {
    EXPECT_TRUE(cold.Get(1, Key(i)).status().IsNotFound()) << i;
    EXPECT_TRUE(f.ro->Get(1, Key(i)).status().IsNotFound()) << i;
    // An absent key just past a live one ends the one-key walk in the page
    // that owns it.
    EXPECT_TRUE(f.ro->Get(1, Key(i + 1) + '\0').status().IsNotFound()) << i;
  }
}

}  // namespace
}  // namespace bg3::replication
