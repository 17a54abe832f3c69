// Multi-threaded stress tests for the concurrent storage structures: forest
// upserts + scans + GC relocation + cold-page eviction all running at once,
// so TSan builds (-DBG3_SANITIZE=thread) have something to bite on, plus
// death tests proving the debug invariant checkers fire on corrupted state.
//
// Scales are kept moderate: TSan multiplies runtime ~10x and CI runners may
// be single-core, so each test targets hundreds of operations per thread,
// not millions. The point is interleaving coverage, not throughput.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bwtree/bwtree.h"
#include "bwtree/mapping_table.h"
#include "cloud/cloud_store.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "forest/buffer_pool.h"
#include "forest/forest.h"
#include "test_seed.h"
#include "gc/extent_usage.h"
#include "gc/policy.h"
#include "gc/space_reclaimer.h"

namespace bg3 {
namespace {

std::string SortKey(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "s%06d", i);
  return buf;
}

/// One budget pass over every tree of `f`, as GraphDB::RunGcCycle
/// runs it.
void EvictForestToBudget(forest::BwTreeForest* f, size_t budget_bytes) {
  std::vector<bwtree::BwTree*> trees;
  f->AppendTrees(&trees);
  BG3_IGNORE_STATUS(forest::EvictTreesToBudget(trees, budget_bytes));
}

/// Routes GC relocations to whichever tree of the forest owns the record.
class ForestResolver : public gc::TreeResolver {
 public:
  ForestResolver(forest::BwTreeForest* f, cloud::CloudStore* store)
      : forest_(f), horizon_(store, /*pinned=*/false) {}
  bwtree::BwTree* Resolve(bwtree::TreeId id) override {
    return forest_->ResolveTree(id);
  }
  void AppendTrees(std::vector<bwtree::BwTree*>* out) override {
    forest_->AppendTrees(out);
  }
  gc::ReclaimHorizon* horizon() override { return &horizon_; }

 private:
  forest::BwTreeForest* const forest_;
  gc::ReclaimHorizon horizon_;
};

struct StressFixture {
  explicit StressFixture(forest::ForestOptions fopts) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = 1 << 12;  // small extents -> GC has victims
    store = std::make_unique<cloud::CloudStore>(copts);
    tracker = std::make_unique<gc::ExtentUsageTracker>(&clock);
    store->SetObserver(tracker.get());
    fopts.tree_options.base_stream = store->CreateStream("base");
    fopts.tree_options.delta_stream = store->CreateStream("delta");
    fopts.tree_options.consolidate_threshold = 4;
    forest = std::make_unique<forest::BwTreeForest>(store.get(), fopts);
    resolver = std::make_unique<ForestResolver>(forest.get(), store.get());
    policy = std::make_unique<gc::DirtyRatioPolicy>(0.01);
    gc::ReclaimOptions ropts;
    ropts.target_dead_ratio = 0.01;
    reclaimer = std::make_unique<gc::SpaceReclaimer>(
        store.get(), resolver.get(), policy.get(), tracker.get(), ropts);
  }

  cloud::ManualTimeSource clock;
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<gc::ExtentUsageTracker> tracker;
  std::unique_ptr<forest::BwTreeForest> forest;
  std::unique_ptr<ForestResolver> resolver;
  std::unique_ptr<gc::DirtyRatioPolicy> policy;
  std::unique_ptr<gc::SpaceReclaimer> reclaimer;
};

// Writers churn owner lists (forcing split-outs via the threshold), a reader
// does point gets + owner scans, and the driver thread runs GC relocation
// cycles plus cold-page eviction — the full §3.2/§3.3 concurrency surface.
TEST(ForestStressTest, ConcurrentUpsertScanDeleteWithGcAndEviction) {
  forest::ForestOptions fopts;
  fopts.split_out_threshold = 16;
  fopts.init_tree_capacity = 1 << 20;  // evictions exercised separately
  fopts.owner_shards = 4;
  StressFixture f(fopts);

  constexpr int kWriters = 3;
  constexpr int kOwnersPerWriter = 4;
  constexpr int kOpsPerWriter = 300;
  // Per-writer key/owner choices are drawn from seeded RNG streams so the
  // op mix (not the thread interleaving) replays from the printed seed.
  const uint64_t seed = test::AnnouncedSeed(
      "ForestStressTest.ConcurrentUpsertScanDeleteWithGcAndEviction", 0x57E55);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&f, &failures, seed, w] {
      Random rng(seed ^ (0x9E3779B9u * (w + 1)));
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const forest::OwnerId owner =
            1 + w * kOwnersPerWriter +
            static_cast<forest::OwnerId>(rng.Uniform(kOwnersPerWriter));
        const std::string key =
            SortKey(static_cast<int>(rng.Uniform(40)));  // churn -> dead records
        if (!f.forest->Upsert(owner, key, "v" + std::to_string(i)).ok()) {
          failures.fetch_add(1);
        }
        if (rng.Uniform(7) == 0 && !f.forest->Delete(owner, key).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&f, &failures, &stop] {
    uint64_t reads = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const forest::OwnerId owner = 1 + (reads % (kWriters * kOwnersPerWriter));
      (void)f.forest->Get(owner, SortKey(static_cast<int>(reads % 40)));
      std::vector<bwtree::Entry> out;
      if (!f.forest->ScanOwner(owner, "", 10, &out).ok()) {
        failures.fetch_add(1);
      }
      ++reads;
    }
  });

  // Driver: advance the clock and interleave GC + eviction with the traffic.
  for (int cycle = 0; cycle < 20; ++cycle) {
    f.clock.AdvanceUs(1000);
    auto r = f.reclaimer->RunCycle(/*stream=*/0, /*max_extents=*/2);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    // A quarter of what is resident: leaves hold their exact payload now,
    // so a fixed byte budget could sit above this small working set.
    EvictForestToBudget(f.forest.get(), f.forest->TotalResidentBytes() / 4);
    std::this_thread::yield();
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(f.forest->stats().split_outs.Get(), 0u);
  f.forest->CheckInvariants();

  // Post-quiesce: every owner's data must still be readable and scannable.
  for (int w = 0; w < kWriters; ++w) {
    for (int o = 0; o < kOwnersPerWriter; ++o) {
      const forest::OwnerId owner = 1 + w * kOwnersPerWriter + o;
      std::vector<bwtree::Entry> out;
      ASSERT_TRUE(f.forest->ScanOwner(owner, "", 1000, &out).ok());
    }
  }
}

// Regression for the INIT-capacity eviction scan race: MaybeEvictFromInit
// used to read OwnerState::count and OwnerState::tree under only the shard
// lock while concurrent writers mutated both under the owner lock. A tiny
// INIT capacity makes every writer trigger the eviction scan while the
// others are mid-upsert; under TSan the old code reports within a few
// iterations.
TEST(ForestStressTest, EvictionScanRacesWithConcurrentUpserts) {
  forest::ForestOptions fopts;
  fopts.split_out_threshold = 1u << 30;  // eviction is the only split path
  fopts.init_tree_capacity = 4;          // constant capacity pressure
  fopts.owner_shards = 2;
  StressFixture f(fopts);

  constexpr int kThreads = 4;
  constexpr int kOps = 150;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &failures, t] {
      for (int i = 0; i < kOps; ++i) {
        const forest::OwnerId owner = 1 + ((t * kOps + i) % 12);
        if (!f.forest->Upsert(owner, SortKey(i), "x").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(f.forest->stats().evictions.Get(), 0u);
  f.forest->CheckInvariants();
}

// Raw Bw-tree: concurrent writers on overlapping key ranges (latch
// contention + splits + consolidations) with scans and cold-page eviction.
TEST(BwTreeStressTest, ConcurrentWritersScansAndEviction) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 12;
  cloud::CloudStore store(copts);
  bwtree::BwTreeOptions topts;
  topts.base_stream = store.CreateStream("base");
  topts.delta_stream = store.CreateStream("delta");
  topts.consolidate_threshold = 4;
  topts.max_leaf_entries = 32;
  bwtree::BwTree tree(&store, topts);

  constexpr int kWriters = 3;
  constexpr int kOps = 400;
  const uint64_t seed = test::AnnouncedSeed(
      "BwTreeStressTest.ConcurrentWritersScansAndEviction", 0xB7EE5);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&tree, &failures, seed, w] {
      Random rng(seed ^ (0x9E3779B9u * (w + 1)));
      for (int i = 0; i < kOps; ++i) {
        const int k = static_cast<int>(rng.Uniform(200));  // overlapping ranges
        if (!tree.Upsert(SortKey(k), "w" + std::to_string(w)).ok()) {
          failures.fetch_add(1);
        }
        if (rng.Uniform(13) == 0 && !tree.Delete(SortKey(k)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&tree, &failures, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<bwtree::Entry> out;
      bwtree::BwTree::ScanOptions scan;
      scan.limit = 50;
      if (!tree.Scan(scan, &out).ok()) failures.fetch_add(1);
      (void)tree.Get(SortKey(17));
    }
  });

  for (int i = 0; i < 20; ++i) {
    BG3_IGNORE_STATUS(
        forest::EvictTreesToBudget({&tree}, tree.ResidentBytes() / 4));
    std::this_thread::yield();
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(failures.load(), 0);
  // Deleted-vs-upserted interleavings vary; the tree must still be ordered
  // and fully scannable.
  std::vector<bwtree::Entry> all;
  bwtree::BwTree::ScanOptions scan;
  ASSERT_TRUE(tree.Scan(scan, &all).ok());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].key, all[i].key);
  }
}

// Forwards the store's events to GC's usage tracker and, for each base
// image the attached writer thread appends, starts the relocation GC would
// run if it picked that image's extent right then, and gives it a moment
// to finish while the writer still holds the page latches.
class RelocateWriterBaseImages : public cloud::StoreObserver {
 public:
  RelocateWriterBaseImages(cloud::CloudStore* store,
                           gc::ExtentUsageTracker* tracker,
                           cloud::StreamId base_stream)
      : store_(store), tracker_(tracker), base_stream_(base_stream) {}

  /// Relocates the base images `tree` appends from the calling thread.
  void Attach(bwtree::BwTree* tree) {
    tree_ = tree;
    writer_ = std::this_thread::get_id();
  }
  /// Waits for every relocation, then stops starting them.
  void Detach() {
    for (std::thread& t : relocators_) t.join();
    relocators_.clear();
    tree_ = nullptr;
  }
  int failures() const { return failures_.load(); }

  void OnAppend(const cloud::PagePointer& ptr) override {
    tracker_->OnAppend(ptr);
    if (ptr.stream_id != base_stream_ ||
        std::this_thread::get_id() != writer_ || tree_ == nullptr) {
      return;
    }
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    relocators_.emplace_back([this, tree = tree_, ptr, done] {
      auto record = store_->Read(ptr);
      if (!record.ok() || !tree->Relocate(ptr, record.value()).ok()) {
        failures_.fetch_add(1);
      }
      done->set_value();
    });
    finished.wait_for(std::chrono::milliseconds(50));
  }
  void OnInvalidate(const cloud::PagePointer& ptr) override {
    tracker_->OnInvalidate(ptr);
  }
  void OnExtentFreed(cloud::StreamId stream, cloud::ExtentId extent) override {
    tracker_->OnExtentFreed(stream, extent);
  }

 private:
  cloud::CloudStore* const store_;
  gc::ExtentUsageTracker* const tracker_;
  const cloud::StreamId base_stream_;
  bwtree::BwTree* tree_ = nullptr;
  std::thread::id writer_;
  std::vector<std::thread> relocators_;  // the writer thread's
  std::atomic<int> failures_{0};
};

// GC relocating the images of sync-mode splits while they run: a split's
// sibling image lands before the split finishes, and a relocation that
// reads it then must find the page and wait on its latch, not discard the
// image as garbage. Afterwards GC frees every extent holding a dead
// record, and the images alone (zero cache) must still serve every key.
TEST(BwTreeStressTest, GcRelocationRacingSyncSplits) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 512;  // a few images per extent
  cloud::CloudStore store(copts);
  cloud::ManualTimeSource clock;
  gc::ExtentUsageTracker tracker(&clock);
  bwtree::BwTreeOptions topts;
  topts.read_cache = bwtree::ReadCacheMode::kNone;
  topts.max_leaf_entries = 8;
  topts.base_stream = store.CreateStream("base");
  topts.delta_stream = store.CreateStream("delta");
  RelocateWriterBaseImages relocate(&store, &tracker, topts.base_stream);
  store.SetObserver(&relocate);
  bwtree::BwTree tree(&store, topts);

  // A scrambled key order, so most siblings keep the image their split
  // appended until the end.
  constexpr int kKeys = 48;
  relocate.Attach(&tree);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(tree.Upsert(SortKey(i * 29 % kKeys), "v").ok()) << i;
  }
  relocate.Detach();
  EXPECT_EQ(relocate.failures(), 0);
  EXPECT_GE(tree.stats().splits.Get(), 5u);

  gc::SingleTreeResolver resolver(&tree);
  gc::DirtyRatioPolicy policy(0.0);
  gc::ReclaimOptions ropts;
  ropts.target_dead_ratio = 0.0;
  gc::SpaceReclaimer reclaimer(&store, &resolver, &policy, &tracker, ropts);
  for (int cycle = 0; cycle < 3; ++cycle) {
    clock.AdvanceUs(1000);
    auto r = reclaimer.RunCycle(topts.base_stream, 1000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_GT(store.stats().extents_freed.Get(), 0u);
  for (int k = 0; k < kKeys; ++k) {
    auto got = tree.Get(SortKey(k));
    ASSERT_TRUE(got.ok()) << SortKey(k) << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v");
  }
}

// Shared-latch read path: many readers hammer one hot leaf while a writer
// mutates it and the driver concurrently evicts — the exact
// reader/reader/writer/evictor interleavings the SharedMutex conversion
// must survive. TSan builds verify the shared/exclusive handoffs.
TEST(BwTreeStressTest, SharedReadersVsWriterAndEvictionOnHotLeaf) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 12;
  cloud::CloudStore store(copts);
  bwtree::BwTreeOptions topts;
  topts.base_stream = store.CreateStream("base");
  topts.delta_stream = store.CreateStream("delta");
  topts.consolidate_threshold = 4;
  topts.max_leaf_entries = 64;  // everything fits in one hot leaf
  bwtree::BwTree tree(&store, topts);

  constexpr int kHotKeys = 16;
  for (int i = 0; i < kHotKeys; ++i) {
    ASSERT_TRUE(tree.Upsert(SortKey(i), "seed").ok());
  }

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&tree, &failures, r] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto v = tree.Get(SortKey((i + r) % kHotKeys));
        // A seeded key never disappears; it may change value.
        if (!v.ok()) failures.fetch_add(1);
        if (i % 64 == 0) {
          std::vector<bwtree::Entry> out;
          bwtree::BwTree::ScanOptions scan;
          scan.limit = kHotKeys;
          if (!tree.Scan(scan, &out).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&tree, &failures, &stop] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string v = "w" + std::to_string(round++);
      for (int i = 0; i < kHotKeys; ++i) {
        if (!tree.Upsert(SortKey(i), v).ok()) failures.fetch_add(1);
      }
    }
  });

  // Evictor: repeatedly drop the hot leaf (flushing it first via the
  // eviction path's own clean-page rule) so readers also race reloads.
  for (int i = 0; i < 50; ++i) {
    BG3_IGNORE_STATUS(forest::EvictTreesToBudget({&tree}, /*budget_bytes=*/0));
    std::this_thread::yield();
  }
  for (int r = 0; r < kReaders; ++r) threads[r].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(failures.load(), 0);
  // Reads really took the shared path (and writers the exclusive one).
  EXPECT_GT(tree.stats().latch_shared_acquires.Get(), 0u);
  EXPECT_GT(tree.stats().latch_exclusive_acquires.Get(), 0u);
  for (int i = 0; i < kHotKeys; ++i) {
    EXPECT_TRUE(tree.Get(SortKey(i)).ok());
  }
}

// Visit hands out views into the leaf's buffers. Shared-latch readers copy
// every view they receive while a writer drives the same leaves through
// delta merges, consolidations and splits, and evicts them so readers race
// reloads too. A view that outlived the buffer it points into
// is a use-after-free the asan preset reports, and an unlatched swap is a
// race the tsan preset reports; the checks below catch torn copies.
TEST(BwTreeStressTest, VisitViewsSurviveBufferSwapsOnHotLeaf) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 12;
  cloud::CloudStore store(copts);
  bwtree::BwTreeOptions topts;
  topts.base_stream = store.CreateStream("base");
  topts.delta_stream = store.CreateStream("delta");
  topts.consolidate_threshold = 3;  // merges and consolidations alternate
  topts.max_leaf_entries = 24;      // and the growing key set keeps splitting
  bwtree::BwTree tree(&store, topts);

  constexpr int kKeys = 160;
  constexpr int kRounds = 6;
  constexpr int kReaders = 3;
  auto value_of = [](const std::string& key, int round) {
    return "val:" + key + ":" + std::to_string(round);
  };
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> views_copied{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        bwtree::BwTree::ScanOptions scan;
        scan.start_key = SortKey(r * 7);
        scan.limit = 40 + r * 20;
        std::vector<std::pair<std::string, std::string>> copies;
        const Status s = tree.Visit(scan, [&copies](const Slice& key,
                                                    const Slice& value) {
          copies.emplace_back(key.ToString(), value.ToString());
          return true;
        });
        if (!s.ok()) failures.fetch_add(1);
        for (size_t i = 0; i < copies.size(); ++i) {
          const auto& [key, value] = copies[i];
          const std::string prefix = "val:" + key + ":";
          if (value.compare(0, prefix.size(), prefix) != 0 ||
              (i > 0 && !(copies[i - 1].first < key))) {
            failures.fetch_add(1);
          }
        }
        views_copied.fetch_add(copies.size(), std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kKeys; ++k) {
        // Strided keys land all over the live leaves, so each write merges
        // into a delta somewhere and every few consolidate or split.
        const std::string key = SortKey((k * 37) % kKeys);
        if (!tree.Upsert(key, value_of(key, round)).ok()) failures.fetch_add(1);
        if (k % 11 == round && !tree.Delete(key).ok()) failures.fetch_add(1);
        // Drop every clean leaf now and then, so readers race reloads and
        // later writes fold deltas into reloaded bases.
        if (k % 40 == 0) {
          BG3_IGNORE_STATUS(
              forest::EvictTreesToBudget({&tree}, /*budget_bytes=*/0));
        }
      }
    }
  });
  threads.back().join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) threads[r].join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(views_copied.load(), 0u);
  EXPECT_GT(tree.stats().splits.Get(), 0u);
  EXPECT_GT(tree.stats().consolidations.Get(), 0u);
  EXPECT_GT(tree.stats().page_evictions.Get(), 0u);
  EXPECT_GT(tree.stats().page_reloads.Get(), 0u);
}

// Readers race the forest's structural transitions: owners being split out
// of INIT into dedicated trees (publishing the lock-free read pointer) and
// the forest-wide budget eviction dropping INIT/dedicated leaves mid-read.
TEST(ForestStressTest, ReadersRaceSplitOutAndBudgetEviction) {
  forest::ForestOptions fopts;
  fopts.split_out_threshold = 8;    // writers constantly trip split-outs
  fopts.init_tree_capacity = 256;   // and INIT-capacity evictions
  fopts.owner_shards = 4;
  StressFixture f(fopts);

  constexpr int kOwners = 12;
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 400;
  const uint64_t seed = test::AnnouncedSeed(
      "ForestStressTest.ReadersRaceSplitOutAndBudgetEviction", 0x5EED5);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&f, &failures, seed, w] {
      Random rng(seed ^ (0x9E3779B9u * (w + 1)));
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const forest::OwnerId owner =
            1 + static_cast<forest::OwnerId>(rng.Uniform(kOwners));
        const std::string key = SortKey(static_cast<int>(rng.Uniform(30)));
        if (!f.forest->Upsert(owner, key, "v" + std::to_string(i)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&f, &failures, &stop, r] {
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const forest::OwnerId owner = 1 + ((reads + r) % kOwners);
        (void)f.forest->Get(owner, SortKey(static_cast<int>(reads % 30)));
        std::vector<bwtree::Entry> out;
        if (!f.forest->ScanOwner(owner, "", 8, &out).ok()) {
          failures.fetch_add(1);
        }
        ++reads;
      }
    });
  }

  // Driver: forest-wide budget eviction racing the reads and split-outs.
  for (int cycle = 0; cycle < 30; ++cycle) {
    EvictForestToBudget(f.forest.get(), f.forest->TotalResidentBytes() / 4);
    std::this_thread::yield();
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(f.forest->stats().split_outs.Get(), 0u);
  f.forest->CheckInvariants();
  for (int o = 1; o <= kOwners; ++o) {
    std::vector<bwtree::Entry> out;
    ASSERT_TRUE(f.forest->ScanOwner(o, "", 1000, &out).ok());
  }
}

TEST(ForestStressTest, ReadsRacingSplitOutsSeeEveryAckedEntry) {
  // Reads take no owner mutex: they rely on a split-out deleting an
  // owner's INIT entries only after publishing its tree. Readers racing the
  // split-outs (and the writes a split-out makes wait) must still see every
  // entry acknowledged before the read began, and each only once.
  forest::ForestOptions fopts;
  fopts.split_out_threshold = 40;
  fopts.owner_shards = 4;
  StressFixture f(fopts);

  constexpr int kOwners = 8;
  constexpr int kEntries = 120;
  std::atomic<int> acked{0};  // entries acknowledged, owner by owner
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&f, &acked, &stop, &failures] {
      while (!stop.load(std::memory_order_acquire)) {
        const int a = acked.load(std::memory_order_acquire);
        if (a == 0) continue;
        const forest::OwnerId owner = 1 + (a - 1) / kEntries;
        const int n = (a - 1) % kEntries + 1;  // of this owner's entries
        std::vector<bwtree::Entry> out;
        if (!f.forest->ScanOwner(owner, "", kEntries, &out).ok() ||
            out.size() < static_cast<size_t>(n)) {
          failures.fetch_add(1);
        }
        // Each entry exactly once, in key order: an INIT pass that a
        // split-out made stale must be discarded before the rescan.
        for (size_t k = 0; k < out.size(); ++k) {
          if (out[k].key != SortKey(static_cast<int>(k))) {
            failures.fetch_add(1);
            break;
          }
        }
        if (!f.forest->Get(owner, SortKey(n - 1)).ok()) failures.fetch_add(1);
      }
    });
  }
  for (int o = 0; o < kOwners; ++o) {
    for (int i = 0; i < kEntries; ++i) {
      ASSERT_TRUE(f.forest->Upsert(1 + o, SortKey(i), "v").ok());
      acked.store(o * kEntries + i + 1, std::memory_order_release);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(f.forest->stats().split_outs.Get(), static_cast<uint64_t>(kOwners));
  f.forest->CheckInvariants();
}

TEST(ForestStressTest, OwnersSharingOneShardAndLockRaceSplitOuts) {
  // Eight writers on eight owners that share the one shard (its lock and
  // index) and one owner lock: every writer writes its own keys to every
  // owner, so writers of one owner race its split-out (by threshold, and
  // by a thread dedicating the same owners). Each writer also makes a
  // fresh owner per round, so the shard's index keeps growing under the
  // lookups. Readers scanning any owner must see every entry acknowledged
  // before the scan began, each once and in key order.
  forest::ForestOptions fopts;
  fopts.split_out_threshold = 96;
  fopts.owner_shards = 1;
  StressFixture f(fopts);

  constexpr int kWriters = 8;
  constexpr int kRounds = 40;  // keys per writer per owner
  std::vector<forest::OwnerId> owners;
  const size_t lock = forest::OwnerTable::LockIndex(1);
  for (forest::OwnerId o = 1; owners.size() < kWriters; ++o) {
    if (forest::OwnerTable::LockIndex(o) == lock) owners.push_back(o);
  }
  std::atomic<int> acked[kWriters] = {};  // rounds acknowledged per writer
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&f, &owners, &acked, &failures, w] {
      for (int i = 0; i < kRounds; ++i) {
        for (forest::OwnerId owner : owners) {
          if (!f.forest->Upsert(owner, SortKey(w * kRounds + i), "v").ok()) {
            failures.fetch_add(1);
          }
        }
        if (!f.forest->Upsert(1'000'000 + w * kRounds + i, "k", "v").ok()) {
          failures.fetch_add(1);
        }
        acked[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  threads.emplace_back([&f, &owners, &failures] {
    for (int o = kWriters - 1; o >= 0; --o) {
      if (!f.forest->DedicateOwner(owners[o]).ok()) failures.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&f, &owners, &acked, &stop, &failures, r] {
      for (uint64_t reads = r; !stop.load(std::memory_order_acquire);
           ++reads) {
        size_t n = 0;
        for (const auto& a : acked) n += a.load(std::memory_order_acquire);
        std::vector<bwtree::Entry> out;
        if (!f.forest->ScanOwner(owners[reads % kWriters], "",
                                 kWriters * kRounds, &out)
                 .ok() ||
            out.size() < n) {
          failures.fetch_add(1);
        }
        for (size_t k = 1; k < out.size(); ++k) {
          if (!(out[k - 1].key < out[k].key)) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (int t = 0; t <= kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters + 1; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(f.forest->OwnerCount(),
            static_cast<size_t>(kWriters) * (1 + kRounds));
  constexpr size_t kPerOwner = kWriters * kRounds;
  for (forest::OwnerId owner : owners) {
    EXPECT_EQ(f.forest->OwnerEntryCount(owner), kPerOwner);
    std::vector<bwtree::Entry> out;
    ASSERT_TRUE(f.forest->ScanOwner(owner, "", 2 * kPerOwner, &out).ok());
    EXPECT_EQ(out.size(), kPerOwner) << owner;
  }
  EXPECT_EQ(f.forest->TreeCount(), 1u + kWriters);
  f.forest->CheckInvariants();
}

TEST(ForestStressTest, WritesRacingSplitOutsAreNeverLost) {
  // Writers of an owner being split out wait for the split-out: an entry
  // written beside the copy must still land in the dedicated tree.
  forest::ForestOptions fopts;
  fopts.split_out_threshold = 30;
  fopts.owner_shards = 4;
  StressFixture f(fopts);

  constexpr int kOwners = 6;
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 80;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&f, &failures, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        for (int o = 1; o <= kOwners; ++o) {
          if (!f.forest->Upsert(o, SortKey(w * kPerWriter + i), "v").ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(f.forest->stats().split_outs.Get(), static_cast<uint64_t>(kOwners));
  for (int o = 1; o <= kOwners; ++o) {
    std::vector<bwtree::Entry> out;
    ASSERT_TRUE(f.forest->ScanOwner(o, "", 10 * kWriters * kPerWriter, &out)
                    .ok());
    EXPECT_EQ(out.size(), static_cast<size_t>(kWriters * kPerWriter)) << o;
  }
  f.forest->CheckInvariants();
}

// --- invariant-checker death tests ------------------------------------------

using InvariantDeathTest = ::testing::Test;

// A route entry pointing at a page id that was never installed must abort
// the invariant walk (a "corrupted mapping-table entry").
TEST(InvariantDeathTest, RouteToDeadPageAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  bwtree::PageIndex index;
  auto page = std::make_unique<bwtree::LeafPage>(1);
  index.InsertPage(std::move(page));
  index.InsertRoute("", 1);
  index.CheckInvariants();  // consistent so far
  index.InsertRoute("x", 999);  // deliberately dangling
  EXPECT_DEATH(index.CheckInvariants(),
               "resolves to a dead mapping-table entry");
}

// A route key that disagrees with its page's low key is equally fatal.
TEST(InvariantDeathTest, RouteKeyLowKeyMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  bwtree::PageIndex index;
  auto page = std::make_unique<bwtree::LeafPage>(7);
  page->low_key = "m";  // not yet published; latch-free init is legal
  index.InsertPage(std::move(page));
  index.InsertRoute("", 7);  // route says "", page says "m"
  EXPECT_DEATH(index.CheckInvariants(), "does not match page");
}

// Satellite for the observability layer: hammer one shared Histogram and
// the registry snapshot path from many threads at once. Run under TSan
// (-DBG3_SANITIZE=thread) this proves the sharded buckets, the snapshot
// merge, and get-or-create registration are race-free.
TEST(ObservabilityStressTest, HistogramAndRegistryContention) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Histogram* shared = reg.GetHistogram("stress.obs.shared_hist");
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([shared, &reg, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        shared->Record(static_cast<uint64_t>(i % 1'000) + 1);
        if (i % 256 == 0) {
          // Concurrent get-or-create of the same name from all writers.
          reg.GetCounter("stress.obs.shared_counter")->Inc();
        }
        (void)t;
      }
    });
  }
  std::thread reader([shared, &reg, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const Histogram::Snapshot s = shared->TakeSnapshot();
      uint64_t total = 0;
      for (uint64_t b : s.buckets) total += b;
      // Internal consistency even mid-write: bucket mass == count.
      ASSERT_EQ(total, s.count);
      (void)reg.TakeSnapshot();
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(shared->Count(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(reg.TakeSnapshot().counters.at("stress.obs.shared_counter"),
            static_cast<uint64_t>(kWriters) * (kOpsPerWriter / 256 + 1));
}

TEST(InvariantDeathTest, DcheckFiresWhenEnabled) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  if (BG3_DCHECK_IS_ON()) {
    EXPECT_DEATH(BG3_DCHECK(1 == 2), "BG3_CHECK failed");
  } else {
    BG3_DCHECK(1 == 2);  // must compile and be a no-op
    SUCCEED();
  }
}

}  // namespace
}  // namespace bg3
