#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "forest/buffer_pool.h"
#include "forest/forest.h"
#include "forest/owner_table.h"

namespace bg3::forest {
namespace {

struct ForestFixture {
  explicit ForestFixture(ForestOptions opts = {}) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = 1 << 16;
    store = std::make_unique<cloud::CloudStore>(copts);
    opts.tree_options.base_stream = store->CreateStream("base");
    opts.tree_options.delta_stream = store->CreateStream("delta");
    forest = std::make_unique<BwTreeForest>(store.get(), opts);
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<BwTreeForest> forest;
};

std::string SortKey(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "s%06d", i);
  return buf;
}

// --- key encoding ------------------------------------------------------------

TEST(ForestKeyTest, InitKeyOrdersByOwnerThenSortKey) {
  EXPECT_LT(BwTreeForest::MakeInitKey(1, "zzz"),
            BwTreeForest::MakeInitKey(2, "aaa"));
  EXPECT_LT(BwTreeForest::MakeInitKey(5, "a"),
            BwTreeForest::MakeInitKey(5, "b"));
  EXPECT_EQ(BwTreeForest::OwnerPrefix(7).size(), 8u);
}

// --- basic ops ---------------------------------------------------------------

TEST(ForestTest, UpsertGetRoundTrip) {
  ForestFixture f;
  ASSERT_TRUE(f.forest->Upsert(1, "k", "v").ok());
  EXPECT_EQ(f.forest->Get(1, "k").value(), "v");
}

TEST(ForestTest, GetUnknownOwnerIsNotFound) {
  ForestFixture f;
  EXPECT_TRUE(f.forest->Get(99, "k").status().IsNotFound());
}

TEST(ForestTest, OwnersAreIsolated) {
  ForestFixture f;
  ASSERT_TRUE(f.forest->Upsert(1, "k", "owner1").ok());
  ASSERT_TRUE(f.forest->Upsert(2, "k", "owner2").ok());
  EXPECT_EQ(f.forest->Get(1, "k").value(), "owner1");
  EXPECT_EQ(f.forest->Get(2, "k").value(), "owner2");
  ASSERT_TRUE(f.forest->Delete(1, "k").ok());
  EXPECT_TRUE(f.forest->Get(1, "k").status().IsNotFound());
  EXPECT_TRUE(f.forest->Get(2, "k").ok());
}

TEST(ForestTest, DeleteDecrementsCount) {
  ForestFixture f;
  ASSERT_TRUE(f.forest->Upsert(1, "a", "v").ok());
  ASSERT_TRUE(f.forest->Upsert(1, "b", "v").ok());
  EXPECT_EQ(f.forest->OwnerEntryCount(1), 2u);
  ASSERT_TRUE(f.forest->Delete(1, "a").ok());
  EXPECT_EQ(f.forest->OwnerEntryCount(1), 1u);
}

// --- split-out behaviour -------------------------------------------------------

TEST(ForestTest, SmallOwnersStayInInitTree) {
  ForestOptions opts;
  opts.split_out_threshold = 100;
  ForestFixture f(opts);
  for (int owner = 0; owner < 20; ++owner) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(f.forest->Upsert(owner, SortKey(i), "v").ok());
    }
  }
  EXPECT_EQ(f.forest->DedicatedTreeCount(), 0u);
  EXPECT_EQ(f.forest->InitEntryCount(), 100u);
}

TEST(ForestTest, HotOwnerSplitsOutBeyondThreshold) {
  ForestOptions opts;
  opts.split_out_threshold = 10;
  ForestFixture f(opts);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(f.forest->Upsert(7, SortKey(i), "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(f.forest->DedicatedTreeCount(), 1u);
  EXPECT_EQ(f.forest->stats().split_outs.Get(), 1u);
  // All data still reachable after migration, via Get and scan.
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(f.forest->Get(7, SortKey(i)).value(), "v" + std::to_string(i));
  }
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(7, "", 1000, &out).ok());
  EXPECT_EQ(out.size(), 25u);
  // INIT tree no longer holds the owner's entries.
  EXPECT_EQ(f.forest->InitEntryCount(), 0u);
}

TEST(ForestTest, ThresholdZeroDedicatesImmediately) {
  ForestOptions opts;
  opts.split_out_threshold = 0;
  ForestFixture f(opts);
  for (int owner = 0; owner < 5; ++owner) {
    ASSERT_TRUE(f.forest->Upsert(owner, "k", "v").ok());
  }
  EXPECT_EQ(f.forest->DedicatedTreeCount(), 5u);
  EXPECT_EQ(f.forest->TreeCount(), 6u);  // + INIT
}

TEST(ForestTest, InitCapacityEvictsLargestOwner) {
  ForestOptions opts;
  opts.split_out_threshold = 1000;  // never split by per-owner threshold
  opts.init_tree_capacity = 50;
  ForestFixture f(opts);
  // Owner 3 is the heaviest.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.forest->Upsert(3, SortKey(i), "big").ok());
  }
  for (int owner = 0; owner < 10; ++owner) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(f.forest->Upsert(100 + owner, SortKey(i), "small").ok());
    }
  }
  EXPECT_GE(f.forest->stats().evictions.Get(), 1u);
  // The heavy owner was the eviction victim.
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(3, "", 1000, &out).ok());
  EXPECT_EQ(out.size(), 30u);
}

TEST(ForestTest, DedicatedTreeUsesShortKeys) {
  // After split-out, scanning returns the same sort keys (prefix stripped),
  // and the dedicated tree's memory is smaller than the equivalent INIT
  // encoding would be (8 bytes saved per entry).
  ForestOptions opts;
  opts.split_out_threshold = 5;
  ForestFixture f(opts);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.forest->Upsert(42, SortKey(i), "v").ok());
  }
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(42, "", 100, &out).ok());
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(out[i].key, SortKey(i));
}

TEST(ForestTest, ScanOwnerRespectsStartAndLimit) {
  ForestFixture f;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.forest->Upsert(1, SortKey(i), "v").ok());
  }
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(1, SortKey(10), 5, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().key, SortKey(10));
  EXPECT_EQ(out.back().key, SortKey(14));
}

TEST(ForestTest, ScanDoesNotLeakNeighborOwners) {
  ForestFixture f;
  ASSERT_TRUE(f.forest->Upsert(1, "a", "v1").ok());
  ASSERT_TRUE(f.forest->Upsert(2, "b", "v2").ok());
  ASSERT_TRUE(f.forest->Upsert(3, "c", "v3").ok());
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(2, "", 100, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "b");
}

TEST(ForestTest, MaxOwnerIdBoundary) {
  ForestFixture f;
  const OwnerId max_owner = ~0ull;
  ASSERT_TRUE(f.forest->Upsert(max_owner, "k", "v").ok());
  EXPECT_EQ(f.forest->Get(max_owner, "k").value(), "v");
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(max_owner, "", 10, &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

// --- registry / stats ----------------------------------------------------------

TEST(ForestTest, ResolveTreeFindsInitAndDedicated) {
  ForestOptions opts;
  opts.split_out_threshold = 0;
  ForestFixture f(opts);
  EXPECT_EQ(f.forest->ResolveTree(0), f.forest->init_tree());
  ASSERT_TRUE(f.forest->Upsert(9, "k", "v").ok());
  EXPECT_NE(f.forest->ResolveTree(1), nullptr);
  EXPECT_EQ(f.forest->ResolveTree(12345), nullptr);
}

TEST(ForestTest, MemoryGrowsWithTreeCount) {
  ForestOptions few_opts;
  few_opts.split_out_threshold = 1000;
  ForestFixture few(few_opts);
  ForestOptions many_opts;
  many_opts.split_out_threshold = 0;
  ForestFixture many(many_opts);
  for (int owner = 0; owner < 200; ++owner) {
    ASSERT_TRUE(few.forest->Upsert(owner, "k", "v").ok());
    ASSERT_TRUE(many.forest->Upsert(owner, "k", "v").ok());
  }
  // One tree per owner costs strictly more memory than one shared INIT
  // tree (§3.2.1 Observation 3).
  EXPECT_GT(many.forest->ApproxMemoryBytes(), few.forest->ApproxMemoryBytes());
}

TEST(ForestTest, ReadsOfUnknownOwnersMakeNoRecord) {
  ForestFixture f;
  ASSERT_TRUE(f.forest->Upsert(1, "k", "v").ok());
  const size_t bytes = f.forest->OwnerTableBytes();
  EXPECT_TRUE(f.forest->Get(2, "k").status().IsNotFound());
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(3, "", 10, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(f.forest->OwnerEntryCount(4), 0u);
  EXPECT_EQ(f.forest->OwnerCount(), 1u);
  EXPECT_EQ(f.forest->OwnerTableBytes(), bytes);
}

// --- owner table ----------------------------------------------------------------

TEST(OwnerTableTest, GrowthKeepsRecordAddresses) {
  OwnerTable table(4);
  constexpr OwnerId kFirst = 100;
  constexpr OwnerId kMore = 100'000;
  // Distinct tree addresses, never dereferenced.
  static char trees[kFirst];
  const auto tree_of = [](OwnerId o) {
    return reinterpret_cast<bwtree::BwTree*>(&trees[o]);
  };
  std::vector<OwnerState*> first;
  for (OwnerId o = 0; o < kFirst; ++o) {
    OwnerState* state = table.FindOrCreate(o);
    state->count.store(static_cast<uint32_t>(o + 1));
    state->published.store(tree_of(o));
    first.push_back(state);
  }
  for (OwnerId o = kFirst; o < kFirst + kMore; ++o) table.FindOrCreate(o);
  ASSERT_EQ(table.size(), kFirst + kMore);
  for (OwnerId o = 0; o < kFirst; ++o) {
    EXPECT_EQ(first[o]->owner, o);
    EXPECT_EQ(first[o]->count.load(), o + 1);
    EXPECT_EQ(first[o]->published.load(), tree_of(o));
    EXPECT_EQ(table.Find(o), first[o]);
    EXPECT_EQ(table.FindOrCreate(o), first[o]);
  }
  for (OwnerId o = kFirst; o < kFirst + kMore; ++o) {
    const OwnerState* state = table.Find(o);
    ASSERT_NE(state, nullptr) << o;
    EXPECT_EQ(state->owner, o);
    EXPECT_EQ(state->count.load(), 0u);
    EXPECT_EQ(state->published.load(), nullptr);
  }
  EXPECT_EQ(table.size(), kFirst + kMore);
}

TEST(OwnerTableTest, FindOfAbsentOwnerInsertsNothing) {
  OwnerTable table(4);
  const size_t empty_bytes = table.MemoryBytes();
  EXPECT_EQ(table.Find(7), nullptr);  // no shard has an index yet
  EXPECT_EQ(table.MemoryBytes(), empty_bytes);
  for (OwnerId o = 0; o < 1000; ++o) table.FindOrCreate(o);
  const size_t bytes = table.MemoryBytes();
  for (OwnerId o = 1000; o < 3000; ++o) EXPECT_EQ(table.Find(o), nullptr);
  EXPECT_EQ(table.Find(~OwnerId{0}), nullptr);
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_EQ(table.MemoryBytes(), bytes);
}

TEST(OwnerTableTest, AccountingMatchesTheHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's allocator statistics (mallinfo2)";
#else
  // MemoryBytes, the owner-table term of ApproxMemoryBytes, against what
  // the allocator handed out: within 20%, and at most 48 bytes an owner.
  constexpr size_t kOwners = 100'000;
  const size_t before = mallinfo2().uordblks;
  auto table = std::make_unique<OwnerTable>(ForestOptions{}.owner_shards);
  for (OwnerId o = 0; o < kOwners; ++o) table->FindOrCreate(o * 7919 + 3);
  const double heap = static_cast<double>(mallinfo2().uordblks - before -
                                          sizeof(OwnerTable));
  const double accounted = static_cast<double>(table->MemoryBytes());
  EXPECT_NEAR(accounted, heap, 0.2 * heap);
  EXPECT_LE(accounted / kOwners, 48.0);
  RecordProperty("accounted_bytes_per_owner",
                 std::to_string(accounted / kOwners));
  RecordProperty("heap_bytes_per_owner", std::to_string(heap / kOwners));
#endif
}

// --- concurrency ----------------------------------------------------------------

TEST(ForestTest, ConcurrentOwnersDoNotInterfere) {
  ForestOptions opts;
  opts.split_out_threshold = 50;
  ForestFixture f(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(
            f.forest->Upsert(t, SortKey(i), std::to_string(t)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(f.forest->OwnerEntryCount(t), 200u);
    std::vector<bwtree::Entry> out;
    ASSERT_TRUE(f.forest->ScanOwner(t, "", 1000, &out).ok());
    ASSERT_EQ(out.size(), 200u) << "owner " << t;
    for (const auto& e : out) EXPECT_EQ(e.value, std::to_string(t));
  }
  // Every owner crossed the threshold.
  EXPECT_EQ(f.forest->DedicatedTreeCount(), 8u);
}

TEST(ForestTest, ConcurrentWritersOnSharedInitTree) {
  ForestOptions opts;
  opts.split_out_threshold = 1u << 30;  // everything stays in INIT
  ForestFixture f(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(f.forest->Upsert(t * 1000 + i, "k", "v").ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(f.forest->InitEntryCount(), 2000u);
}

}  // namespace
}  // namespace bg3::forest

namespace bg3::forest {
namespace {

TEST(ForestTest, DedicateOwnerForcesSplitOutAndIsIdempotent) {
  ForestOptions opts;
  opts.split_out_threshold = ~0ull;
  ForestFixture f(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.forest->Upsert(5, SortKey(i), "v").ok());
  }
  EXPECT_EQ(f.forest->DedicatedTreeCount(), 0u);
  ASSERT_TRUE(f.forest->DedicateOwner(5).ok());
  EXPECT_EQ(f.forest->DedicatedTreeCount(), 1u);
  ASSERT_TRUE(f.forest->DedicateOwner(5).ok());  // idempotent
  EXPECT_EQ(f.forest->DedicatedTreeCount(), 1u);
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.forest->ScanOwner(5, "", 100, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

TEST(ForestTest, DedicateOwnerBeforeAnyWrite) {
  ForestFixture f;
  ASSERT_TRUE(f.forest->DedicateOwner(9).ok());
  ASSERT_TRUE(f.forest->Upsert(9, "k", "v").ok());
  EXPECT_EQ(f.forest->Get(9, "k").value(), "v");
  EXPECT_EQ(f.forest->InitEntryCount(), 0u);  // never touched INIT
}

// --- forest-wide residency budget --------------------------------------------

// Regression: cold-page eviction used to take a per-tree resident-page
// target, so the post-eviction footprint scaled linearly with the tree
// count — split-outs silently grew memory under a "fixed" setting. The
// byte budget must hold regardless of how many trees the forest fans out
// into.
TEST(ForestTest, ResidentBytesPinnedAcrossSplitOuts) {
  ForestOptions opts;
  opts.split_out_threshold = 8;  // many dedicated trees
  opts.tree_options.max_leaf_entries = 16;
  opts.tree_options.consolidate_threshold = 4;
  ForestFixture f(opts);

  const std::string value(64, 'x');
  for (int owner = 1; owner <= 24; ++owner) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(f.forest->Upsert(owner, SortKey(i), value).ok());
    }
  }
  ASSERT_GT(f.forest->DedicatedTreeCount(), 8u);

  // Quiesce: flush every tree so all leaves are clean and thus evictable.
  std::vector<bwtree::BwTree*> trees;
  f.forest->AppendTrees(&trees);
  for (bwtree::BwTree* t : trees) {
    for (bwtree::PageId id : t->DirtyPageIds()) {
      ASSERT_TRUE(t->FlushPage(id).ok());
    }
  }

  const size_t before = f.forest->TotalResidentBytes();
  ASSERT_GT(before, 0u);
  const size_t budget = before / 4;
  const EvictToBudgetResult r = EvictTreesToBudget(trees, budget);
  EXPECT_GT(r.pages_evicted, 0u);
  // The byte budget holds no matter how many trees exist — the property
  // the per-tree page target violated.
  EXPECT_LE(f.forest->TotalResidentBytes(), budget);

  // Evicted data reloads transparently.
  for (int owner = 1; owner <= 24; ++owner) {
    for (int i = 0; i < 40; i += 7) {
      EXPECT_EQ(f.forest->Get(owner, SortKey(i)).value(), value);
    }
  }
  f.forest->CheckInvariants();
}

// The budget pass evicts globally coldest-first: after touching one
// owner's pages last, a partial eviction should preferentially keep them.
TEST(ForestTest, BudgetEvictionKeepsHottestPages) {
  ForestOptions opts;
  opts.split_out_threshold = 8;
  opts.tree_options.max_leaf_entries = 16;
  opts.tree_options.consolidate_threshold = 4;
  ForestFixture f(opts);

  const std::string value(64, 'x');
  for (int owner = 1; owner <= 8; ++owner) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(f.forest->Upsert(owner, SortKey(i), value).ok());
    }
  }
  std::vector<bwtree::BwTree*> trees;
  f.forest->AppendTrees(&trees);
  for (bwtree::BwTree* t : trees) {
    for (bwtree::PageId id : t->DirtyPageIds()) {
      ASSERT_TRUE(t->FlushPage(id).ok());
    }
  }

  // Heat exactly one owner; its tree's leaves now carry the newest ticks.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(f.forest->Get(3, SortKey(i)).ok());
    }
  }
  const uint64_t reloads_before = [&] {
    uint64_t sum = 0;
    for (bwtree::BwTree* t : trees) sum += t->stats().page_reloads.Get();
    return sum;
  }();

  BG3_IGNORE_STATUS(EvictTreesToBudget(trees, f.forest->TotalResidentBytes() / 2));

  // Re-reading the hot owner must not need reloads: its pages survived.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(f.forest->Get(3, SortKey(i)).ok());
  }
  uint64_t reloads_after = 0;
  for (bwtree::BwTree* t : trees) reloads_after += t->stats().page_reloads.Get();
  EXPECT_EQ(reloads_after, reloads_before);
}

}  // namespace
}  // namespace bg3::forest
