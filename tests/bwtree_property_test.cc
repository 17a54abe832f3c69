// Property-based tests: a BwTree under randomized workloads must behave
// exactly like a std::map reference model, across every combination of
// delta mode, consolidation threshold and leaf size — down to the bytes of
// every page image it appends.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/random.h"
#include "forest/buffer_pool.h"
#include "page_reference.h"
#include "replication/page_image.h"
#include "replication/ro_node.h"

namespace bg3::bwtree {
namespace {

struct PropertyParam {
  DeltaMode mode;
  uint32_t consolidate_threshold;
  size_t max_leaf_entries;
  FlushMode flush_mode;
};

std::string ParamName(const testing::TestParamInfo<PropertyParam>& info) {
  const PropertyParam& p = info.param;
  std::string name = p.mode == DeltaMode::kTraditional ? "trad" : "readopt";
  name += "_c" + std::to_string(p.consolidate_threshold);
  name += "_l" + std::to_string(p.max_leaf_entries);
  name += p.flush_mode == FlushMode::kSync ? "_sync" : "_deferred";
  return name;
}

/// One random check of BwTree::Visit against the model: over a random
/// range (either bound may be open) with a random limit, a visitor that
/// stops after a random k saw exactly the model's first k entries and was
/// never called again, and a visitor that never stops saw exactly the
/// model's entries.
void CheckVisitAgainstModel(BwTree* tree,
                            const std::map<std::string, std::string>& model,
                            Random* rng, int key_space) {
  auto random_key = [rng, key_space] {
    return "key" + std::to_string(rng->Uniform(key_space));
  };
  BwTree::ScanOptions scan;
  if (rng->Uniform(4) != 0) scan.start_key = random_key();
  if (rng->Uniform(4) != 0) scan.end_key = random_key();
  if (!scan.end_key.empty() && scan.end_key < scan.start_key) {
    std::swap(scan.start_key, scan.end_key);
  }
  if (rng->Uniform(2) == 0) scan.limit = rng->Uniform(40);
  std::vector<std::pair<std::string, std::string>> want;
  for (auto it = model.lower_bound(scan.start_key);
       it != model.end() && want.size() < scan.limit; ++it) {
    if (!scan.end_key.empty() && it->first >= scan.end_key) break;
    want.emplace_back(it->first, it->second);
  }

  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree->Visit(scan, [&all](const Slice& key, const Slice& value) {
                    all.emplace_back(key.ToString(), value.ToString());
                    return true;
                  }).ok());
  EXPECT_EQ(all, want) << scan.start_key << ".." << scan.end_key << " limit "
                       << scan.limit;

  const size_t k = 1 + rng->Uniform(want.size() + 2);
  std::vector<std::pair<std::string, std::string>> seen;
  size_t calls_after_stop = 0;
  ASSERT_TRUE(tree->Visit(scan, [&](const Slice& key, const Slice& value) {
                    if (seen.size() == k) {
                      ++calls_after_stop;
                      return false;
                    }
                    seen.emplace_back(key.ToString(), value.ToString());
                    return seen.size() < k;
                  }).ok());
  EXPECT_EQ(calls_after_stop, 0u);
  want.resize(std::min(k, want.size()));
  EXPECT_EQ(seen, want) << "stopped after " << k;
}

class BwTreeModelTest : public testing::TestWithParam<PropertyParam> {
 protected:
  void SetUp() override {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = 1 << 14;
    store_ = std::make_unique<cloud::CloudStore>(copts);
    BwTreeOptions opts;
    opts.delta_mode = GetParam().mode;
    opts.consolidate_threshold = GetParam().consolidate_threshold;
    opts.max_leaf_entries = GetParam().max_leaf_entries;
    opts.flush_mode = GetParam().flush_mode;
    opts.base_stream = store_->CreateStream("base");
    opts.delta_stream = store_->CreateStream("delta");
    tree_ = std::make_unique<BwTree>(store_.get(), opts);
  }

  static std::string RandomKey(Random* rng, int key_space) {
    return "key" + std::to_string(rng->Uniform(key_space));
  }

  std::unique_ptr<cloud::CloudStore> store_;
  std::unique_ptr<BwTree> tree_;
};

TEST_P(BwTreeModelTest, RandomOpsMatchReferenceModel) {
  std::map<std::string, std::string> model;
  Random rng(GetParam().consolidate_threshold * 1000 +
             GetParam().max_leaf_entries);
  for (int i = 0; i < 3000; ++i) {
    const int action = static_cast<int>(rng.Uniform(10));
    const std::string key = RandomKey(&rng, 200);
    if (action < 6) {  // upsert
      const std::string value = "v" + std::to_string(rng.Next() % 1000);
      ASSERT_TRUE(tree_->Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 8) {  // delete
      ASSERT_TRUE(tree_->Delete(key).ok());
      model.erase(key);
    } else if (action < 9) {  // point read
      auto got = tree_->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key;
        EXPECT_EQ(got.value(), it->second);
      }
    } else {  // memory pressure: evict cold pages to 0-75% of resident
      const size_t budget = tree_->ResidentBytes() * rng.Uniform(4) / 4;
      BG3_IGNORE_STATUS(forest::EvictTreesToBudget({tree_.get()}, budget));
    }
  }
  // Full-content comparison via scan.
  std::vector<Entry> entries;
  ASSERT_TRUE(tree_->Scan({}, &entries).ok());
  ASSERT_EQ(entries.size(), model.size());
  auto mit = model.begin();
  for (const Entry& e : entries) {
    EXPECT_EQ(e.key, mit->first);
    EXPECT_EQ(e.value, mit->second);
    ++mit;
  }
  size_t visited = 0;
  ASSERT_TRUE(tree_->Visit({}, [&visited](const Slice&, const Slice&) {
                      ++visited;
                      return true;
                    }).ok());
  EXPECT_EQ(visited, model.size());
}

TEST_P(BwTreeModelTest, RangeScansMatchReferenceModel) {
  std::map<std::string, std::string> model;
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = RandomKey(&rng, 500);
    ASSERT_TRUE(tree_->Upsert(key, key + "-v").ok());
    model[key] = key + "-v";
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::string lo = RandomKey(&rng, 500);
    std::string hi = RandomKey(&rng, 500);
    if (hi < lo) std::swap(lo, hi);
    std::vector<Entry> out;
    BwTree::ScanOptions scan;
    scan.start_key = lo;
    scan.end_key = hi;
    ASSERT_TRUE(tree_->Scan(scan, &out).ok());
    std::vector<std::pair<std::string, std::string>> expected(
        model.lower_bound(lo), model.lower_bound(hi));
    ASSERT_EQ(out.size(), expected.size()) << lo << ".." << hi;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].key, expected[i].first);
    }
  }
}

TEST_P(BwTreeModelTest, VisitStopsAndLimitsMatchModel) {
  std::map<std::string, std::string> model;
  Random rng(GetParam().consolidate_threshold * 7 +
             GetParam().max_leaf_entries);
  for (int i = 0; i < 1500; ++i) {
    const std::string key = RandomKey(&rng, 200);
    if (rng.Uniform(10) < 7) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree_->Upsert(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(tree_->Delete(key).ok());
      model.erase(key);
    }
    if (i % 25 == 0) CheckVisitAgainstModel(tree_.get(), model, &rng, 200);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BwTreeModelTest,
    testing::Values(
        PropertyParam{DeltaMode::kTraditional, 4, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 10, 128, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 2, 8, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 4, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 10, 128, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 2, 8, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 10, 64, FlushMode::kDeferred},
        PropertyParam{DeltaMode::kTraditional, 10, 64, FlushMode::kDeferred}),
    ParamName);

// Zero-cache reads must agree with the model too (every read reassembles
// the page from storage images).
class ZeroCacheModelTest : public testing::TestWithParam<PropertyParam> {};

TEST_P(ZeroCacheModelTest, StorageImagesMatchMemory) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 14;
  cloud::CloudStore store(copts);
  BwTreeOptions opts;
  opts.delta_mode = GetParam().mode;
  opts.consolidate_threshold = GetParam().consolidate_threshold;
  opts.max_leaf_entries = GetParam().max_leaf_entries;
  opts.read_cache = ReadCacheMode::kNone;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  BwTree tree(&store, opts);

  std::map<std::string, std::string> model;
  Random rng(7);
  for (int i = 0; i < 1500; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(100));
    if (rng.Uniform(10) < 7) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree.Upsert(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(tree.Delete(key).ok());
      model.erase(key);
    }
  }
  for (int k = 0; k < 100; ++k) {
    const std::string key = "key" + std::to_string(k);
    auto got = tree.Get(key);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(got.value(), it->second);
    }
  }
}

// Zero-cache scans and point reads parse the storage images in place and
// merge only [start, end). Checked mid-workload, so pages are seen with
// every chain length (multi-delta chains in traditional mode) and with
// deletes shadowing consolidated base entries, against a std::map and a
// full-cache tree fed the same writes.
TEST_P(ZeroCacheModelTest, ScansAndGetsMatchModelAndFullCacheTree) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 14;
  cloud::CloudStore store(copts);
  BwTreeOptions opts;
  opts.delta_mode = GetParam().mode;
  opts.consolidate_threshold = GetParam().consolidate_threshold;
  opts.max_leaf_entries = GetParam().max_leaf_entries;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  BwTreeOptions cached_opts = opts;
  opts.read_cache = ReadCacheMode::kNone;
  BwTree tree(&store, opts);
  cached_opts.tree_id = 1;
  cached_opts.base_stream = store.CreateStream("cached-base");
  cached_opts.delta_stream = store.CreateStream("cached-delta");
  BwTree cached(&store, cached_opts);

  std::map<std::string, std::string> model;
  Random rng(GetParam().consolidate_threshold * 31 +
             GetParam().max_leaf_entries);
  auto random_key = [&rng] { return "key" + std::to_string(rng.Uniform(120)); };
  for (int i = 0; i < 2000; ++i) {
    const std::string key = random_key();
    if (rng.Uniform(10) < 6) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree.Upsert(key, value).ok());
      ASSERT_TRUE(cached.Upsert(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(tree.Delete(key).ok());
      ASSERT_TRUE(cached.Delete(key).ok());
      model.erase(key);
    }
    if (i % 10 != 0) continue;

    auto got = tree.Get(key);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(got.value(), it->second);
    }

    BwTree::ScanOptions scan;  // empty bounds mean open-ended
    if (rng.Uniform(4) != 0) scan.start_key = random_key();
    if (rng.Uniform(4) != 0) scan.end_key = random_key();
    if (!scan.end_key.empty() && scan.end_key < scan.start_key) {
      std::swap(scan.start_key, scan.end_key);
    }
    if (rng.Uniform(2) == 0) scan.limit = rng.Uniform(40);
    std::vector<Entry> out;
    std::vector<Entry> cached_out;
    ASSERT_TRUE(tree.Scan(scan, &out).ok());
    ASSERT_TRUE(cached.Scan(scan, &cached_out).ok());
    auto mit = model.lower_bound(scan.start_key);
    size_t n = 0;
    for (; mit != model.end() && n < scan.limit; ++mit, ++n) {
      if (!scan.end_key.empty() && mit->first >= scan.end_key) break;
      ASSERT_LT(n, out.size()) << "missing " << mit->first;
      EXPECT_EQ(out[n].key, mit->first);
      EXPECT_EQ(out[n].value, mit->second);
    }
    EXPECT_EQ(out.size(), n) << scan.start_key << ".." << scan.end_key;
    ASSERT_EQ(cached_out.size(), out.size());
    for (size_t k = 0; k < out.size(); ++k) {
      EXPECT_EQ(cached_out[k].key, out[k].key);
      EXPECT_EQ(cached_out[k].value, out[k].value);
    }
  }
}

TEST_P(ZeroCacheModelTest, VisitStopsAndLimitsMatchModel) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 14;
  cloud::CloudStore store(copts);
  BwTreeOptions opts;
  opts.delta_mode = GetParam().mode;
  opts.consolidate_threshold = GetParam().consolidate_threshold;
  opts.max_leaf_entries = GetParam().max_leaf_entries;
  opts.read_cache = ReadCacheMode::kNone;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  BwTree tree(&store, opts);

  std::map<std::string, std::string> model;
  Random rng(GetParam().consolidate_threshold * 13 +
             GetParam().max_leaf_entries);
  for (int i = 0; i < 1500; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(120));
    if (rng.Uniform(10) < 6) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree.Upsert(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(tree.Delete(key).ok());
      model.erase(key);
    }
    if (i % 10 == 0) CheckVisitAgainstModel(&tree, model, &rng, 120);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZeroCacheModelTest,
    testing::Values(
        PropertyParam{DeltaMode::kTraditional, 6, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 6, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 12, 16, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 12, 16, FlushMode::kSync}),
    ParamName);

// --- image identity ---------------------------------------------------------

/// A tree listener that keeps the reference model and checks every image
/// a tree reports against it, byte for byte: a base image is
/// EncodeBasePage of the model's entries in the page's range, and the
/// delta images are EncodeDelta of the updates since that base (one image
/// per update in traditional mode; the newest update per key, key-sorted,
/// in read-optimized mode). It also stages every image for an RO node.
class ImageCheckingListener : public TreeListener {
 public:
  ImageCheckingListener(cloud::CloudStore* store, DeltaMode mode)
      : store_(store), mode_(mode) {}

  Status OnMutation(TreeId, PageId page, Lsn lsn,
                    const EntryView& entry) override {
    if (entry.op == DeltaOp::kUpsert) {
      model_[entry.key.ToString()] = entry.value.ToString();
    } else {
      model_.erase(entry.key.ToString());
    }
    since_base_[page].push_back(
        {lsn, {entry.op, entry.key.ToString(), entry.value.ToString()}});
    return Status::OK();
  }

  void OnPageFlushed(TreeId tree, PageId page, Lsn flushed_lsn,
                     const cloud::PagePointer& base_ptr,
                     const std::vector<cloud::PagePointer>& delta_ptrs,
                     const std::string& low_key, const std::string& high_key,
                     bool has_high_key) override {
    stager_.OnPageFlushed(tree, page, flushed_lsn, base_ptr, delta_ptrs,
                          low_key, high_key, has_high_key);
    std::vector<Update>& updates = since_base_[page];
    if (delta_ptrs.empty()) {
      // A base image was just appended: consolidation or split.
      updates.clear();
      std::vector<Entry> want;
      for (auto it = model_.lower_bound(low_key);
           it != model_.end() && (!has_high_key || it->first < high_key);
           ++it) {
        want.push_back(Entry{it->first, it->second});
      }
      ExpectImage(base_ptr, EncodeBasePage(tree, page, flushed_lsn, want));
      return;
    }
    if (mode_ == DeltaMode::kTraditional) {
      ASSERT_EQ(delta_ptrs.size(), updates.size()) << "page " << page;
      for (size_t i = 0; i < updates.size(); ++i) {
        ExpectImage(delta_ptrs[i], EncodeDelta(tree, page, updates[i].lsn,
                                               {updates[i].entry}));
      }
      return;
    }
    ASSERT_EQ(delta_ptrs.size(), 1u) << "page " << page;
    std::map<std::string, DeltaEntry> newest;
    for (const Update& u : updates) newest[u.entry.key] = u.entry;
    std::vector<DeltaEntry> want;
    for (auto& [key, e] : newest) want.push_back(e);
    ExpectImage(delta_ptrs[0], EncodeDelta(tree, page, flushed_lsn, want));
  }

  const std::map<std::string, std::string>& model() const { return model_; }
  replication::ImageStager* stager() { return &stager_; }
  size_t images_checked() const { return images_checked_; }

 private:
  struct Update {
    Lsn lsn;
    DeltaEntry entry;
  };

  void ExpectImage(const cloud::PagePointer& ptr, const std::string& want) {
    auto got = store_->Read(ptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), want);
    ++images_checked_;
  }

  cloud::CloudStore* const store_;
  const DeltaMode mode_;
  std::map<std::string, std::string> model_;
  std::map<PageId, std::vector<Update>> since_base_;
  replication::ImageStager stager_;
  size_t images_checked_ = 0;
};

class ImageIdentityTest : public testing::TestWithParam<PropertyParam> {};

TEST_P(ImageIdentityTest, AppendedImagesAreTheEncodersImagesOfTheModel) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 14;
  cloud::CloudStore store(copts);
  ImageCheckingListener listener(&store, GetParam().mode);
  BwTreeOptions opts;
  opts.tree_id = 3;
  opts.delta_mode = GetParam().mode;
  opts.consolidate_threshold = GetParam().consolidate_threshold;
  opts.max_leaf_entries = GetParam().max_leaf_entries;
  opts.flush_mode = GetParam().flush_mode;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  opts.listener = &listener;
  BwTree tree(&store, opts);
  // A deferred tree publishes at its flushes only. The first threshold + 1
  // writes go unflushed, so the first leaf consolidates in either delta
  // mode; after them every write is flushed, which checks each write's
  // image and flushes every page before each Publish below.
  const auto flush_dirty = [&tree, &opts](int writes) {
    if (opts.flush_mode != FlushMode::kDeferred ||
        writes <= static_cast<int>(opts.consolidate_threshold) + 1) {
      return;
    }
    for (PageId id : tree.DirtyPageIds()) ASSERT_TRUE(tree.FlushPage(id).ok());
  };
  const cloud::StreamId empty_wal = store.CreateStream("wal");

  Random rng(GetParam().consolidate_threshold * 7 +
             GetParam().max_leaf_entries);
  for (int i = 1; i <= 2000; ++i) {
    // Value lengths straddle the one-byte varint boundary.
    const std::string key = "key" + std::to_string(rng.Uniform(300));
    if (rng.Uniform(10) < 7) {
      ASSERT_TRUE(
          tree.Upsert(key, std::string(rng.Uniform(200), 'a' + i % 26)).ok());
    } else {
      ASSERT_TRUE(tree.Delete(key).ok());
    }
    flush_dirty(i);
    if (HasFatalFailure()) return;
    if (i % 500 != 0) continue;
    // Replaying the published images through an RO node gives back the
    // model.
    listener.stager()->Publish(&store);
    replication::RoNodeOptions ro_opts;
    ro_opts.wal_stream = empty_wal;
    replication::RoNode ro(&store, ro_opts);
    std::vector<Entry> replayed;
    ASSERT_TRUE(ro.Scan(opts.tree_id, Slice(), Slice(),
                        std::numeric_limits<size_t>::max(), &replayed)
                    .ok());
    ASSERT_EQ(replayed.size(), listener.model().size()) << "after " << i;
    auto it = listener.model().begin();
    for (const Entry& e : replayed) {
      EXPECT_EQ(e.key, it->first);
      EXPECT_EQ(e.value, it->second);
      ++it;
    }
  }
  EXPECT_GT(tree.stats().splits.Get(), 0u);
  EXPECT_GT(tree.stats().consolidations.Get(), 0u);
  EXPECT_GT(listener.images_checked(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ImageIdentityTest,
    testing::Values(
        PropertyParam{DeltaMode::kTraditional, 5, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 5, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 10, 200, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 10, 200, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 5, 32, FlushMode::kDeferred},
        PropertyParam{DeltaMode::kReadOptimized, 5, 32,
                      FlushMode::kDeferred}),
    ParamName);

/// Per-stream appends, from the store's append events.
class AppendCounter : public cloud::StoreObserver {
 public:
  void OnAppend(const cloud::PagePointer& ptr) override {
    ++ops[ptr.stream_id];
    bytes[ptr.stream_id] += ptr.length;
  }
  std::map<cloud::StreamId, uint64_t> ops;
  std::map<cloud::StreamId, uint64_t> bytes;
};

/// One stream's storage traffic at the end of a run.
struct StreamTraffic {
  uint64_t append_ops;
  uint64_t append_bytes;
  uint64_t live_bytes;
  bool operator==(const StreamTraffic&) const = default;
};

void PrintTo(const StreamTraffic& t, std::ostream* os) {
  *os << "{" << t.append_ops << ", " << t.append_bytes << ", " << t.live_bytes
      << "}";
}

struct TrafficParam {
  DeltaMode mode;
  FlushMode flush_mode;
  StreamTraffic base;
  StreamTraffic delta;
};

class PinnedTrafficTest : public testing::TestWithParam<TrafficParam> {};

// The success path's storage traffic, pinned: every append, its bytes and
// every invalidation of a seeded upsert/delete mix with splits and
// consolidations, per stream. The expected values were recorded before the
// write path's images went through one publication step.
TEST_P(PinnedTrafficTest, AppendsAndLiveBytesMatchTheRecordedRun) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 14;
  cloud::CloudStore store(copts);
  AppendCounter appends;
  store.SetObserver(&appends);
  BwTreeOptions opts;
  opts.delta_mode = GetParam().mode;
  opts.flush_mode = GetParam().flush_mode;
  opts.consolidate_threshold = 5;
  opts.max_leaf_entries = 32;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  BwTree tree(&store, opts);

  Random rng(2024);
  for (int i = 1; i <= 2000; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(300));
    if (rng.Uniform(10) < 7) {
      ASSERT_TRUE(
          tree.Upsert(key, std::string(rng.Uniform(200), 'a' + i % 26)).ok());
    } else {
      ASSERT_TRUE(tree.Delete(key).ok());
    }
    if (opts.flush_mode == FlushMode::kDeferred && i % 100 == 0) {
      for (PageId id : tree.DirtyPageIds()) {
        ASSERT_TRUE(tree.FlushPage(id).ok());
      }
    }
  }
  EXPECT_GT(tree.stats().splits.Get(), 0u);
  EXPECT_GT(tree.stats().consolidations.Get(), 0u);
  const auto traffic = [&](cloud::StreamId stream) {
    return StreamTraffic{appends.ops[stream], appends.bytes[stream],
                         store.LiveBytes(stream)};
  };
  EXPECT_EQ(traffic(opts.base_stream), GetParam().base);
  EXPECT_EQ(traffic(opts.delta_stream), GetParam().delta);
}

std::string TrafficName(const testing::TestParamInfo<TrafficParam>& info) {
  std::string name =
      info.param.mode == DeltaMode::kTraditional ? "trad" : "readopt";
  return name + (info.param.flush_mode == FlushMode::kSync ? "_sync"
                                                           : "_deferred");
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PinnedTrafficTest,
    testing::Values(
        TrafficParam{DeltaMode::kTraditional, FlushMode::kSync,
                     {427, 1051155, 21740}, {2000, 210987, 2977}},
        TrafficParam{DeltaMode::kReadOptimized, FlushMode::kSync,
                     {365, 902283, 22122}, {1694, 426204, 2182}},
        TrafficParam{DeltaMode::kTraditional, FlushMode::kDeferred,
                     {178, 419938, 22635}, {0, 0, 0}},
        TrafficParam{DeltaMode::kReadOptimized, FlushMode::kDeferred,
                     {178, 419938, 22635}, {0, 0, 0}}),
    TrafficName);

}  // namespace
}  // namespace bg3::bwtree
