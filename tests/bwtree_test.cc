#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bwtree/bwtree.h"
#include "bwtree/page.h"
#include "cloud/cloud_store.h"
#include "common/coding.h"
#include "forest/buffer_pool.h"
#include "page_reference.h"

namespace bg3::bwtree {
namespace {

struct TreeFixture {
  explicit TreeFixture(BwTreeOptions opts = {}, size_t extent_capacity = 1 << 16) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = extent_capacity;
    store = std::make_unique<cloud::CloudStore>(copts);
    opts.base_stream = store->CreateStream("base");
    opts.delta_stream = store->CreateStream("delta");
    tree = std::make_unique<BwTree>(store.get(), opts);
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<BwTree> tree;
};

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

/// Flushes every dirty page through FlushPage, as a checkpointer cut does;
/// returns how many flushed.
size_t FlushDirty(BwTree* tree) {
  size_t flushed = 0;
  for (PageId id : tree->DirtyPageIds()) flushed += tree->FlushPage(id).ok();
  return flushed;
}

/// Live entries in the tree, counted through Visit (which reloads evicted
/// leaves).
size_t CountEntries(BwTree* tree) {
  size_t count = 0;
  EXPECT_TRUE(tree->Visit({}, [&count](const Slice&, const Slice&) {
                    ++count;
                    return true;
                  }).ok());
  return count;
}

// --- page codecs and entry runs ---------------------------------------------

TEST(PageCodecTest, BasePageRoundTrip) {
  std::vector<Entry> entries = {{"a", "1"}, {"b", ""}, {"c", "333"}};
  const std::string rec = EncodeBasePage(7, 42, 99, entries);
  Slice in(rec);
  RecordHeader header;
  ASSERT_TRUE(DecodeRecordHeader(&in, &header).ok());
  EXPECT_EQ(header.kind, RecordKind::kBasePage);
  EXPECT_EQ(header.tree_id, 7u);
  EXPECT_EQ(header.page_id, 42u);
  EXPECT_EQ(header.lsn, 99u);
  EntryRun run;
  ASSERT_TRUE(EntryRun::Parse(RecordKind::kBasePage, rec, &run).ok());
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run.At(1).key, Slice("b"));
  EXPECT_EQ(run.At(2).value, Slice("333"));
  EXPECT_EQ(run.At(2).op, DeltaOp::kUpsert);
  // A parsed run re-images to the bytes it came from.
  EXPECT_EQ(run.Image(7, 42, 99), rec);
}

TEST(PageCodecTest, DeltaRoundTrip) {
  std::vector<DeltaEntry> entries = {{DeltaOp::kUpsert, "x", "1"},
                                     {DeltaOp::kDelete, "y", ""}};
  const std::string rec = EncodeDelta(1, 2, 3, entries);
  Slice in(rec);
  RecordHeader header;
  ASSERT_TRUE(DecodeRecordHeader(&in, &header).ok());
  EXPECT_EQ(header.kind, RecordKind::kDelta);
  EntryRun run;
  ASSERT_TRUE(EntryRun::Parse(RecordKind::kDelta, rec, &run).ok());
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run.At(0).op, DeltaOp::kUpsert);
  EXPECT_EQ(run.At(1).op, DeltaOp::kDelete);
  EXPECT_EQ(run.Image(1, 2, 3), rec);
}

TEST(PageCodecTest, CorruptHeaderRejected) {
  RecordHeader header;
  Slice empty("");
  EXPECT_TRUE(DecodeRecordHeader(&empty, &header).IsCorruption());
  std::string bad = EncodeDelta(1, 2, 3, {});
  bad[0] = 'Z';
  Slice in(bad);
  EXPECT_TRUE(DecodeRecordHeader(&in, &header).IsCorruption());
  EntryRun run;
  EXPECT_TRUE(EntryRun::Parse(RecordKind::kDelta, bad, &run).IsCorruption());
  // A base image is not a delta, nor the other way round.
  EXPECT_TRUE(EntryRun::Parse(RecordKind::kDelta, EncodeBasePage(1, 2, 3, {}),
                              &run)
                  .IsCorruption());
  EXPECT_TRUE(EntryRun::Parse(RecordKind::kBasePage, EncodeDelta(1, 2, 3, {}),
                              &run)
                  .IsCorruption());
}

EntryRun DeltaRun(const std::vector<DeltaEntry>& entries) {
  EntryRun run(RecordKind::kDelta);
  for (const DeltaEntry& e : entries) {
    run.Upsert(EntryView{e.op, e.key, e.value});
  }
  return run;
}

std::vector<Entry> Entries(const EntryRun& run) {
  std::vector<Entry> out;
  for (size_t i = 0; i < run.size(); ++i) {
    out.push_back(Entry{run.At(i).key.ToString(), run.At(i).value.ToString()});
  }
  return out;
}

TEST(PageCodecTest, MergeToBaseAppliesChainInOrder) {
  EntryRun base;
  base.Append(EntryView{DeltaOp::kUpsert, "a", "1"});
  base.Append(EntryView{DeltaOp::kUpsert, "c", "3"});
  std::vector<EntryRun> chain;  // oldest first
  chain.push_back(DeltaRun({{DeltaOp::kUpsert, "b", "2"},
                            {DeltaOp::kUpsert, "a", "old"}}));
  chain.push_back(DeltaRun({{DeltaOp::kUpsert, "a", "new"},
                            {DeltaOp::kDelete, "c", ""}}));
  const std::vector<Entry> merged = Entries(MergeToBase(base, chain));
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[0].value, "new");
  EXPECT_EQ(merged[1].key, "b");
  // The one-delta path agrees with the chain path.
  EXPECT_EQ(Entries(MergeToBase(MergeToBase(base, {&chain[0], 1}),
                                {&chain[1], 1})).size(),
            2u);
}

TEST(PageCodecTest, MergeToBaseDeleteOfMissingKeyIsNoop) {
  EntryRun base;
  base.Append(EntryView{DeltaOp::kUpsert, "a", "1"});
  const std::vector<EntryRun> d = {DeltaRun({{DeltaOp::kDelete, "zz", ""}})};
  EXPECT_EQ(MergeToBase(base, d).size(), 1u);
}

TEST(PageCodecTest, MergeRunsHonorsRangeAndLimit) {
  EntryRun base;
  for (const char* k : {"a", "c", "e", "g"}) {
    base.Append(EntryView{DeltaOp::kUpsert, k, "b"});
  }
  const std::vector<EntryRun> d = {DeltaRun(
      {{DeltaOp::kUpsert, "d", "d"}, {DeltaOp::kDelete, "e", ""}})};
  std::string seen;
  size_t remaining = 10;
  MergeRuns(base, d, "b", "g", &remaining,
            [&seen](const Slice& key, const Slice& value) {
              seen += key.ToString() + value.ToString();
              return true;
            });
  EXPECT_EQ(seen, "cbdd");  // "e" is deleted, "g" is past the end
  EXPECT_EQ(remaining, 8u);
  seen.clear();
  remaining = 1;
  MergeRuns(base, d, "", "", &remaining,
            [&seen](const Slice& key, const Slice&) {
              seen += key.ToString();
              return true;
            });
  EXPECT_EQ(seen, "a");
  EXPECT_EQ(remaining, 0u);
  // Ranges starting at an overlay key: the overlay's entry (or its
  // delete) stands in for the base's once, and the merge goes on past it.
  const std::vector<EntryRun> at_start = {DeltaRun(
      {{DeltaOp::kUpsert, "c", "o"}, {DeltaOp::kDelete, "e", ""}})};
  const std::tuple<const char*, size_t, const char*> cases[] = {
      {"c", 10, "cogb"}, {"c", 1, "co"}, {"e", 10, "gb"}};
  for (const auto& [start, limit, want] : cases) {
    seen.clear();
    remaining = limit;
    MergeRuns(base, at_start, start, "", &remaining,
              [&seen](const Slice& key, const Slice& value) {
                seen += key.ToString() + value.ToString();
                return true;
              });
    EXPECT_EQ(seen, want) << start << " limit " << limit;
  }
  // A traditional chain (oldest first): the newest delta holding a key
  // decides it, whether or not newer deltas hold other keys of the range.
  // Merged view: a=b, c deleted, d=3, e=2, f=1, g=b.
  const std::vector<EntryRun> chain = {
      DeltaRun({{DeltaOp::kUpsert, "c", "1"}, {DeltaOp::kUpsert, "f", "1"}}),
      DeltaRun({{DeltaOp::kDelete, "c", ""}, {DeltaOp::kUpsert, "e", "2"}}),
      DeltaRun({{DeltaOp::kUpsert, "d", "3"}})};
  const std::tuple<std::string, std::string, size_t, const char*>
      chain_cases[] = {{"", "", 10, "abd3e2f1gb"},
                       {"a", std::string("a\0", 2), 1, "ab"},
                       {"c", std::string("c\0", 2), 1, ""},
                       {"e", std::string("e\0", 2), 1, "e2"},
                       {"g", std::string("g\0", 2), 1, "gb"},
                       {"c", "", 10, "d3e2f1gb"},
                       {"b", "e", 10, "d3"},
                       {"f", "", 2, "f1gb"},
                       {"d", "d", 10, ""}};
  for (const auto& [start, end, limit, want] : chain_cases) {
    seen.clear();
    remaining = limit;
    MergeRuns(base, chain, start, end, &remaining,
              [&seen](const Slice& key, const Slice& value) {
                seen += key.ToString() + value.ToString();
                return true;
              });
    EXPECT_EQ(seen, want) << "[" << start << ", " << end << ") limit "
                          << limit;
  }
}

TEST(PageCodecTest, UpsertKeepsOneSortedEntryPerKeyNewestWins) {
  EntryRun delta = DeltaRun({{DeltaOp::kUpsert, "m", "x"},
                             {DeltaOp::kUpsert, "k", "v1"},
                             {DeltaOp::kDelete, "k", ""}});
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta.At(0).key, Slice("k"));
  EXPECT_EQ(delta.At(0).op, DeltaOp::kDelete);
  EXPECT_EQ(delta.At(1).key, Slice("m"));
  EXPECT_EQ(delta.Find("k"), 0u);
  EXPECT_EQ(delta.Find("l"), delta.size());
  EXPECT_EQ(delta.LowerBound("l"), 1u);
  EXPECT_EQ(delta.LowerBound(""), 0u);
}

// Whatever sequence of appends, upserts and splits built a run, its image is
// the encoder's image of the same entries, byte for byte — also once the
// count's varint grows past one byte.
TEST(PageCodecTest, BuiltRunsImageLikeTheEncoders) {
  std::vector<DeltaEntry> model;  // key-sorted, one entry per key
  EntryRun delta(RecordKind::kDelta);
  for (int i = 0; i < 300; ++i) {
    // Keys land out of order, some twice, with varying value lengths.
    const std::string key = Key((i * 37) % 200);
    const DeltaEntry e{i % 5 == 0 ? DeltaOp::kDelete : DeltaOp::kUpsert, key,
                       std::string(i % 3 == 0 ? 0 : 1 + i % 150, 'v')};
    delta.Upsert(EntryView{e.op, e.key, e.value});
    auto it = std::lower_bound(
        model.begin(), model.end(), key,
        [](const DeltaEntry& a, const std::string& k) { return a.key < k; });
    if (it != model.end() && it->key == key) {
      *it = e;
    } else {
      model.insert(it, e);
    }
    ASSERT_EQ(delta.Image(1, 2, 3), EncodeDelta(1, 2, 3, model)) << i;
  }
  ASSERT_GT(model.size(), 128u);

  std::vector<Entry> live;
  for (const DeltaEntry& e : model) {
    if (e.op == DeltaOp::kUpsert) live.push_back(Entry{e.key, e.value});
  }
  const EntryRun base = MergeToBase(EntryRun(), {&delta, 1});
  EXPECT_EQ(base.Image(4, 5, 6), EncodeBasePage(4, 5, 6, live));

  EntryRun lower = base;
  EntryRun upper;
  const size_t mid = lower.size() / 2;
  lower.SplitAt(mid, &upper);
  EXPECT_EQ(lower.Image(4, 5, 6),
            EncodeBasePage(4, 5, 6,
                           std::vector<Entry>(live.begin(), live.begin() + mid)));
  EXPECT_EQ(upper.Image(4, 7, 6),
            EncodeBasePage(4, 7, 6,
                           std::vector<Entry>(live.begin() + mid, live.end())));
  EXPECT_LT(lower.MemoryBytes(), base.MemoryBytes());
  lower.Clear();
  EXPECT_EQ(lower.MemoryBytes(), 0u);
  EXPECT_EQ(lower.Image(4, 5, 6), EncodeBasePage(4, 5, 6, {}));

  // Erasing the first, a middle and the last entry in turn, down to empty,
  // from the built delta, the built base and a parsed base (whose entries
  // sit behind the image's header).
  EntryRun parsed;
  ASSERT_TRUE(
      EntryRun::Parse(RecordKind::kBasePage, base.Image(4, 5, 6), &parsed)
          .ok());
  EntryRun built = base;
  for (EntryRun* run : {&delta, &built, &parsed}) {
    const bool is_delta = run == &delta;
    std::vector<DeltaEntry> left = model;
    if (!is_delta) {
      std::erase_if(left,
                    [](const DeltaEntry& e) { return e.op == DeltaOp::kDelete; });
    }
    for (size_t step = 0; !left.empty(); ++step) {
      const size_t i = step % 3 == 0   ? 0
                       : step % 3 == 1 ? left.size() / 2
                                       : left.size() - 1;
      run->Erase(i);
      left.erase(left.begin() + static_cast<std::ptrdiff_t>(i));
      std::vector<Entry> left_live;
      for (const DeltaEntry& e : left) {
        left_live.push_back(Entry{e.key, e.value});
      }
      const std::string image = run->Image(4, 5, 6);
      ASSERT_EQ(image, is_delta ? EncodeDelta(4, 5, 6, left)
                                : EncodeBasePage(4, 5, 6, left_live))
          << step;
      ASSERT_TRUE(run->KeysStrictlyIncreasing()) << step;
      EntryRun reparsed;
      ASSERT_TRUE(EntryRun::Parse(is_delta ? RecordKind::kDelta
                                           : RecordKind::kBasePage,
                                  image, &reparsed)
                      .ok());
      ASSERT_EQ(reparsed.size(), run->size());
      for (size_t j = 0; j < run->size(); ++j) {
        ASSERT_EQ(reparsed.At(j).op, run->At(j).op);
        ASSERT_EQ(reparsed.At(j).key, run->At(j).key);
        ASSERT_EQ(reparsed.At(j).value, run->At(j).value);
      }
    }
    EXPECT_TRUE(run->empty());
  }
}

TEST(PageCodecTest, ViewsPointIntoTheParsedImage) {
  const std::string image = EncodeBasePage(1, 2, 3, {{"a", "1"}, {"bb", ""}});
  std::string moved = image;
  const char* bytes = moved.data();  // heap storage the run takes over
  EntryRun run;
  ASSERT_TRUE(EntryRun::Parse(RecordKind::kBasePage, std::move(moved), &run)
                  .ok());
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run.At(1).key, Slice("bb"));
  EXPECT_TRUE(run.At(1).value.empty());
  EXPECT_GE(run.At(0).key.data(), bytes);
  EXPECT_LT(run.At(0).key.data(), bytes + image.size());
}

// Malformed payloads are well-formed bytes as far as the store's checksum
// goes: they round-trip through the store, and only the parser catches
// them.
std::string ThroughStore(RecordKind kind, const std::string& payload) {
  cloud::CloudStore store;
  const cloud::StreamId s = store.CreateStream("s");
  const std::string header =
      (kind == RecordKind::kBasePage ? EncodeBasePage(1, 2, 3, {})
                                     : EncodeDelta(1, 2, 3, {}))
          .substr(0, kRecordHeaderBytes);
  auto ptr = store.Append(s, header + payload);
  BG3_CHECK(ptr.ok());
  auto read = store.Read(ptr.value());
  BG3_CHECK(read.ok());
  return read.value();
}

void ExpectCorruptBase(const std::string& payload) {
  EntryRun run;
  EXPECT_TRUE(EntryRun::Parse(RecordKind::kBasePage,
                              ThroughStore(RecordKind::kBasePage, payload),
                              &run)
                  .IsCorruption());
}

void ExpectCorruptDelta(const std::string& payload) {
  EntryRun run;
  EXPECT_TRUE(EntryRun::Parse(RecordKind::kDelta,
                              ThroughStore(RecordKind::kDelta, payload), &run)
                  .IsCorruption());
}

TEST(PageCodecTest, MalformedBasePayloadsAreCorruption) {
  std::string p;
  ExpectCorruptBase(p);  // no count at all

  p.clear();  // overstated count: claims 3 entries, holds 2
  PutVarint32(&p, 3);
  for (const char* k : {"a", "b"}) {
    PutLengthPrefixedSlice(&p, k);
    PutLengthPrefixedSlice(&p, "v");
  }
  ExpectCorruptBase(p);

  p.clear();  // understated count: bytes trail the last entry
  PutVarint32(&p, 1);
  for (const char* k : {"a", "b"}) {
    PutLengthPrefixedSlice(&p, k);
    PutLengthPrefixedSlice(&p, "v");
  }
  ExpectCorruptBase(p);

  p.clear();  // grossly overstated count must not over-allocate either
  PutVarint32(&p, 0x0FFFFFFF);
  PutLengthPrefixedSlice(&p, "a");
  PutLengthPrefixedSlice(&p, "v");
  ExpectCorruptBase(p);

  p.clear();  // length prefix runs past the payload
  PutVarint32(&p, 1);
  PutVarint32(&p, 10);
  p += "abc";
  ExpectCorruptBase(p);

  p.clear();  // value length prefix cut mid-varint
  PutVarint32(&p, 1);
  PutLengthPrefixedSlice(&p, "key");
  p.push_back(static_cast<char>(0x80));
  ExpectCorruptBase(p);
}

TEST(PageCodecTest, MalformedDeltaPayloadsAreCorruption) {
  std::string p;
  ExpectCorruptDelta(p);  // no count at all

  p.clear();  // overstated count: claims 2 entries, holds 1
  PutVarint32(&p, 2);
  p.push_back(static_cast<char>(DeltaOp::kUpsert));
  PutLengthPrefixedSlice(&p, "k");
  PutLengthPrefixedSlice(&p, "v");
  ExpectCorruptDelta(p);

  p.clear();  // bad op byte
  PutVarint32(&p, 1);
  p.push_back(7);
  PutLengthPrefixedSlice(&p, "k");
  PutLengthPrefixedSlice(&p, "v");
  ExpectCorruptDelta(p);

  p.clear();  // key length prefix runs past the payload
  PutVarint32(&p, 1);
  p.push_back(static_cast<char>(DeltaOp::kDelete));
  PutVarint32(&p, 50);
  p += "short";
  ExpectCorruptDelta(p);

  p.clear();  // value length prefix missing entirely
  PutVarint32(&p, 1);
  p.push_back(static_cast<char>(DeltaOp::kUpsert));
  PutLengthPrefixedSlice(&p, "k");
  ExpectCorruptDelta(p);
}

// --- basic CRUD -----------------------------------------------------------------

TEST(BwTreeTest, GetOnEmptyTreeIsNotFound) {
  TreeFixture f;
  EXPECT_TRUE(f.tree->Get("nope").status().IsNotFound());
}

TEST(BwTreeTest, UpsertThenGet) {
  TreeFixture f;
  ASSERT_TRUE(f.tree->Upsert("k1", "v1").ok());
  EXPECT_EQ(f.tree->Get("k1").value(), "v1");
}

TEST(BwTreeTest, UpsertOverwrites) {
  TreeFixture f;
  ASSERT_TRUE(f.tree->Upsert("k", "v1").ok());
  ASSERT_TRUE(f.tree->Upsert("k", "v2").ok());
  EXPECT_EQ(f.tree->Get("k").value(), "v2");
}

TEST(BwTreeTest, DeleteHidesKey) {
  TreeFixture f;
  ASSERT_TRUE(f.tree->Upsert("k", "v").ok());
  ASSERT_TRUE(f.tree->Delete("k").ok());
  EXPECT_TRUE(f.tree->Get("k").status().IsNotFound());
}

TEST(BwTreeTest, DeleteOfAbsentKeyThenGet) {
  TreeFixture f;
  ASSERT_TRUE(f.tree->Delete("ghost").ok());
  EXPECT_TRUE(f.tree->Get("ghost").status().IsNotFound());
}

TEST(BwTreeTest, EmptyValueIsStorable) {
  TreeFixture f;
  ASSERT_TRUE(f.tree->Upsert("k", "").ok());
  auto v = f.tree->Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().empty());
}

TEST(BwTreeTest, ManyKeysSurviveConsolidationCycles) {
  BwTreeOptions opts;
  opts.consolidate_threshold = 4;
  TreeFixture f(opts);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(f.tree->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
  EXPECT_GT(f.tree->stats().consolidations.Get(), 0u);
}

// --- delta modes ------------------------------------------------------------------

TEST(BwTreeTest, ReadOptimizedKeepsAtMostOneDelta) {
  BwTreeOptions opts;
  opts.delta_mode = DeltaMode::kReadOptimized;
  opts.consolidate_threshold = 100;  // avoid consolidation in this test
  TreeFixture f(opts);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  }
  ASSERT_EQ(f.tree->LeafCount(), 1u);  // every merge hits the same delta
  // Every write must remain visible despite repeated delta merging.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(f.tree->Get(Key(i)).ok()) << i;
  }
}

TEST(BwTreeTest, TraditionalModeCorrectness) {
  BwTreeOptions opts;
  opts.delta_mode = DeltaMode::kTraditional;
  opts.consolidate_threshold = 10;
  TreeFixture f(opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i % 10), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(f.tree->Get(Key(i)).value(), "v" + std::to_string(90 + i));
  }
}

TEST(BwTreeTest, ZeroCacheReadAmplificationLowerForReadOptimized) {
  // The Fig. 9 mechanism: after the same write pattern, zero-cache reads on
  // the traditional tree touch storage more often per read.
  auto run = [](DeltaMode mode) {
    BwTreeOptions opts;
    opts.delta_mode = mode;
    opts.consolidate_threshold = 10;
    opts.read_cache = ReadCacheMode::kNone;
    TreeFixture f(opts);
    // 12 updates across 4 keys on one page: the traditional tree
    // consolidates at the 10th delta and retains a 2-deep chain; the
    // read-optimized tree keeps at most one (merged) delta throughout.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(f.tree->Upsert(Key(i), "v" + std::to_string(round)).ok());
      }
    }
    EXPECT_EQ(f.tree->LeafCount(), 1u);
    const uint64_t reads_before = f.store->stats().read_ops.Get();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(f.tree->Get(Key(i)).value(), "v2");
    }
    return f.store->stats().read_ops.Get() - reads_before;
  };
  const uint64_t traditional = run(DeltaMode::kTraditional);
  const uint64_t read_optimized = run(DeltaMode::kReadOptimized);
  EXPECT_GT(traditional, read_optimized);
  // Read-optimized: <= base + 1 delta per read.
  EXPECT_LE(read_optimized, 4u * 2u);
}

TEST(BwTreeTest, ReadOptimizedWritesMoreDeltaBytes) {
  // The Fig. 10 mechanism: merged deltas re-write prior entries.
  auto run = [](DeltaMode mode) {
    BwTreeOptions opts;
    opts.delta_mode = mode;
    opts.consolidate_threshold = 10;
    TreeFixture f(opts);
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(f.tree->Upsert(Key(i), std::string(50, 'v')).ok());
    }
    EXPECT_EQ(f.tree->LeafCount(), 1u);
    return f.store->TotalBytes(1);  // delta stream id is 1 in the fixture
  };
  EXPECT_GT(run(DeltaMode::kReadOptimized), run(DeltaMode::kTraditional));
}

// --- splits ---------------------------------------------------------------------

TEST(BwTreeTest, SplitsKeepAllKeys) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 16;
  TreeFixture f(opts);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), std::to_string(i)).ok());
  }
  EXPECT_GT(f.tree->stats().splits.Get(), 0u);
  EXPECT_GT(f.tree->LeafCount(), 1u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(f.tree->Get(Key(i)).value(), std::to_string(i)) << i;
  }
  EXPECT_EQ(CountEntries(f.tree.get()), 300u);
  // Evicting every leaf loses no entry from the count.
  EXPECT_GT(forest::EvictTreesToBudget({f.tree.get()}, 0).pages_evicted, 0u);
  EXPECT_EQ(CountEntries(f.tree.get()), 300u);
}

TEST(BwTreeTest, SplitWithReverseInsertionOrder) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 8;
  TreeFixture f(opts);
  for (int i = 299; i >= 0; --i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), std::to_string(i)).ok());
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(f.tree->Get(Key(i)).value(), std::to_string(i));
  }
}

// --- scans ----------------------------------------------------------------------

TEST(BwTreeTest, ScanReturnsSortedRange) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 16;
  TreeFixture f(opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), std::to_string(i)).ok());
  }
  std::vector<Entry> out;
  BwTree::ScanOptions scan;
  scan.start_key = Key(10);
  scan.end_key = Key(20);
  ASSERT_TRUE(f.tree->Scan(scan, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().key, Key(10));
  EXPECT_EQ(out.back().key, Key(19));
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].key, out[i].key);
}

TEST(BwTreeTest, ScanHonorsLimit) {
  TreeFixture f;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  std::vector<Entry> out;
  BwTree::ScanOptions scan;
  scan.limit = 7;
  ASSERT_TRUE(f.tree->Scan(scan, &out).ok());
  EXPECT_EQ(out.size(), 7u);
}

TEST(BwTreeTest, ScanSkipsDeleted) {
  TreeFixture f;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  ASSERT_TRUE(f.tree->Delete(Key(5)).ok());
  std::vector<Entry> out;
  ASSERT_TRUE(f.tree->Scan({}, &out).ok());
  EXPECT_EQ(out.size(), 9u);
  for (const Entry& e : out) EXPECT_NE(e.key, Key(5));
}

TEST(BwTreeTest, ScanAcrossManyLeaves) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 8;
  TreeFixture f(opts);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  std::vector<Entry> out;
  ASSERT_TRUE(f.tree->Scan({}, &out).ok());
  ASSERT_EQ(out.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(out[i].key, Key(i));
}

// --- flush modes ------------------------------------------------------------------

TEST(BwTreeTest, DeferredModeTracksDirtyPages) {
  BwTreeOptions opts;
  opts.flush_mode = FlushMode::kDeferred;
  TreeFixture f(opts);
  ASSERT_TRUE(f.tree->Upsert("k", "v").ok());
  EXPECT_EQ(f.tree->DirtyPageIds().size(), 1u);
  EXPECT_EQ(f.store->stats().append_ops.Get(), 0u);  // nothing flushed yet
  EXPECT_EQ(FlushDirty(f.tree.get()), 1u);
  EXPECT_TRUE(f.tree->DirtyPageIds().empty());
  EXPECT_GT(f.store->stats().append_ops.Get(), 0u);
}

TEST(BwTreeTest, FlushPageIsNoopWhenClean) {
  BwTreeOptions opts;
  opts.flush_mode = FlushMode::kDeferred;
  TreeFixture f(opts);
  ASSERT_TRUE(f.tree->Upsert("k", "v").ok());
  ASSERT_EQ(FlushDirty(f.tree.get()), 1u);
  const uint64_t appends = f.store->stats().append_ops.Get();
  EXPECT_EQ(FlushDirty(f.tree.get()), 0u);
  EXPECT_EQ(f.store->stats().append_ops.Get(), appends);
}

TEST(BwTreeTest, SyncModeFlushesEveryWrite) {
  TreeFixture f;
  ASSERT_TRUE(f.tree->Upsert("k", "v").ok());
  EXPECT_GE(f.store->stats().append_ops.Get(), 1u);
}

// --- GC relocation ------------------------------------------------------------------

TEST(BwTreeTest, RelocateMovesCurrentBasePage) {
  BwTreeOptions opts;
  opts.consolidate_threshold = 2;  // force base page flushes
  TreeFixture f(opts);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  // Find a valid base record on the base stream.
  auto records = f.store->TailRecords(0, cloud::PagePointer{}, 1000).value();
  ASSERT_FALSE(records.empty());
  bool moved_any = false;
  for (const auto& [ptr, bytes] : records) {
    auto moved = f.tree->Relocate(ptr, bytes);
    ASSERT_TRUE(moved.ok());
    if (moved.value() > 0) moved_any = true;
  }
  EXPECT_TRUE(moved_any);
  // Data must remain fully readable after relocation.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(f.tree->Get(Key(i)).ok());
}

TEST(BwTreeTest, RelocateStaleRecordMovesNothing) {
  BwTreeOptions opts;
  opts.consolidate_threshold = 2;
  TreeFixture f(opts);
  ASSERT_TRUE(f.tree->Upsert("a", "1").ok());
  auto records = f.store->TailRecords(1, cloud::PagePointer{}, 10).value();
  ASSERT_FALSE(records.empty());
  const auto [first_ptr, first_bytes] = records.front();
  // Make the record stale by consolidating past it.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.tree->Upsert("a", "x").ok());
  auto moved = f.tree->Relocate(first_ptr, first_bytes);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 0u);
}

TEST(BwTreeTest, RelocateRejectsForeignTree) {
  TreeFixture f;
  ASSERT_TRUE(f.tree->Upsert("a", "1").ok());
  const std::string foreign = EncodeBasePage(999, 0, 1, {});
  EXPECT_FALSE(f.tree->Relocate(cloud::PagePointer{0, 0, 0, 4}, foreign).ok());
}

// --- stats / memory ------------------------------------------------------------------

TEST(BwTreeTest, MemoryGrowsWithData) {
  TreeFixture f;
  const size_t empty = f.tree->ApproxMemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), std::string(100, 'v')).ok());
  }
  EXPECT_GT(f.tree->ApproxMemoryBytes(), empty + 100'000);
}

// --- concurrency ------------------------------------------------------------------

TEST(BwTreeTest, ConcurrentDisjointWriters) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 32;
  TreeFixture f(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(
            f.tree->Upsert(Key(t * 1000 + i), std::to_string(t)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(CountEntries(f.tree.get()), 2000u);
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(f.tree->Get(Key(t * 1000 + i)).value(), std::to_string(t));
    }
  }
}

TEST(BwTreeTest, ConcurrentReadersAndWriters) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 64;
  TreeFixture f(opts);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "0").ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int round = 1; round < 50; ++round) {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(f.tree->Upsert(Key(i), std::to_string(round)).ok());
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      for (int i = 0; i < 100; ++i) {
        auto v = f.tree->Get(Key(i));
        ASSERT_TRUE(v.ok());  // a key never disappears
      }
    }
  });
  writer.join();
  reader.join();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(f.tree->Get(Key(i)).value(), "49");
}

TEST(BwTreeTest, HotKeyContentionCountsLatchConflicts) {
  TreeFixture f;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(f.tree->Upsert("hot", "v").ok());
      }
    });
  }
  go.store(true);  // start all writers together so latches actually contend
  for (auto& th : threads) th.join();
  EXPECT_GT(f.tree->stats().latch_exclusive_conflicts.Get(), 0u);
  EXPECT_GT(f.tree->stats().latch_exclusive_acquires.Get(), 0u);
}

}  // namespace
}  // namespace bg3::bwtree

namespace bg3::bwtree {
namespace {

// Regression: the scan fast path overlays the delta chain onto the base
// without materializing the page; deletes and updates at range boundaries
// must be honored.
TEST(BwTreeTest, ScanOverlayHonorsChainAtBoundaries) {
  BwTreeOptions opts;
  opts.consolidate_threshold = 100;  // keep everything in the chain
  TreeFixture f(opts);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), "base" + std::to_string(i)).ok());
  }
  // Force a consolidation so Key(0..19) are base entries, then chain ops.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(100 + i), "x").ok());
  }
  ASSERT_TRUE(f.tree->Delete(Key(5)).ok());            // delete inside range
  ASSERT_TRUE(f.tree->Upsert(Key(7), "updated").ok()); // update inside range
  ASSERT_TRUE(f.tree->Upsert(Key(3) + "a", "inserted").ok());  // new between

  std::vector<Entry> out;
  BwTree::ScanOptions scan;
  scan.start_key = Key(3);
  scan.end_key = Key(9);
  ASSERT_TRUE(f.tree->Scan(scan, &out).ok());
  // Expect: 3, 3a(new), 4, 6(5 deleted), 7(updated), 8.
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].key, Key(3));
  EXPECT_EQ(out[1].key, Key(3) + "a");
  EXPECT_EQ(out[1].value, "inserted");
  EXPECT_EQ(out[2].key, Key(4));
  EXPECT_EQ(out[3].key, Key(6));
  EXPECT_EQ(out[4].key, Key(7));
  EXPECT_EQ(out[4].value, "updated");
  EXPECT_EQ(out[5].key, Key(8));
}

// Algorithm 1's consolidation trigger counts merged *updates*, not unique
// keys: repeated updates of one key must still consolidate.
TEST(BwTreeTest, ReadOptimizedConsolidatesByUpdateCount) {
  BwTreeOptions opts;
  opts.delta_mode = DeltaMode::kReadOptimized;
  opts.consolidate_threshold = 5;
  TreeFixture f(opts);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.tree->Upsert("hot", "v" + std::to_string(i)).ok());
  }
  EXPECT_GT(f.tree->stats().consolidations.Get(), 0u);
  EXPECT_EQ(f.tree->Get("hot").value(), "v11");
}

}  // namespace
}  // namespace bg3::bwtree

namespace bg3::bwtree {
namespace {

// Failure injection: a corrupted base page must surface as Corruption on
// the zero-cache read path, not as silent wrong data.
TEST(BwTreeTest, CorruptedBasePageSurfacesOnZeroCacheRead) {
  BwTreeOptions opts;
  opts.consolidate_threshold = 2;  // force base images quickly
  opts.read_cache = ReadCacheMode::kNone;
  TreeFixture f(opts);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  // Corrupt the newest valid base record on the base stream.
  auto records = f.store->TailRecords(0, cloud::PagePointer{}, 1000).value();
  ASSERT_FALSE(records.empty());
  bool corrupted = false;
  for (auto it = records.rbegin(); it != records.rend() && !corrupted; ++it) {
    corrupted = f.store->CorruptRecordForTesting(it->first, 20);
  }
  ASSERT_TRUE(corrupted);
  int corruption_errors = 0;
  for (int i = 0; i < 10; ++i) {
    auto v = f.tree->Get(Key(i));
    if (!v.ok() && v.status().IsCorruption()) ++corruption_errors;
  }
  EXPECT_GT(corruption_errors, 0);
}

// GC must refuse to relocate a corrupted record rather than propagate it.
TEST(BwTreeTest, GcRelocationStopsOnCorruptExtent) {
  BwTreeOptions opts;
  opts.consolidate_threshold = 2;
  TreeFixture f(opts, /*extent_capacity=*/512);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  auto stats = f.store->SealedExtentStats(0);
  ASSERT_FALSE(stats.empty());
  // Corrupt something inside the first sealed extent.
  auto records = f.store->TailRecords(0, cloud::PagePointer{}, 1).value();
  ASSERT_FALSE(records.empty());
  ASSERT_TRUE(f.store->CorruptRecordForTesting(records[0].first, 5));
  auto read_back = f.store->ReadValidRecords(0, records[0].first.extent_id);
  // Either the record was already invalidated (fine) or reading it reports
  // corruption — never silent success with bad bytes.
  if (!read_back.ok()) {
    EXPECT_TRUE(read_back.status().IsCorruption());
  } else {
    for (const auto& [ptr, bytes] : read_back.value()) {
      EXPECT_NE(ptr, records[0].first);
    }
  }
}

}  // namespace
}  // namespace bg3::bwtree

namespace bg3::bwtree {
namespace {

// --- memory-bounded caching (BGS-as-cache semantics) -------------------------

// The byte-budget eviction pass over one tree; returns pages evicted.
size_t EvictToBudget(BwTree* tree, size_t budget_bytes) {
  return forest::EvictTreesToBudget({tree}, budget_bytes).pages_evicted;
}

TEST(BwTreeEvictionTest, EvictedPagesReloadTransparently) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 16;
  opts.consolidate_threshold = 4;
  TreeFixture f(opts);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), "v" + std::to_string(i)).ok());
  }
  const size_t pages = f.tree->LeafCount();
  ASSERT_GT(pages, 4u);
  const size_t evicted =
      EvictToBudget(f.tree.get(), f.tree->ResidentBytes() / 4);
  EXPECT_GT(evicted, 0u);
  EXPECT_LE(f.tree->ResidentPageCount(), pages);
  const uint64_t reloads_before = f.tree->stats().page_reloads.Get();
  // Every key still readable; reloads happen on demand.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(f.tree->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
  EXPECT_GT(f.tree->stats().page_reloads.Get(), reloads_before);
}

TEST(BwTreeEvictionTest, WritesToEvictedPagesWork) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 16;
  opts.consolidate_threshold = 4;
  TreeFixture f(opts);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v1").ok());
  (void)EvictToBudget(f.tree.get(), 0);
  // Updates (including ones that trigger consolidation and splits) must
  // transparently reload the base image.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v2").ok());
  for (int i = 100; i < 160; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), "v2").ok());
  }
  for (int i = 0; i < 160; ++i) {
    EXPECT_EQ(f.tree->Get(Key(i)).value(), "v2") << i;
  }
}

TEST(BwTreeEvictionTest, ScansReloadEvictedPages) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 8;
  TreeFixture f(opts);
  for (int i = 0; i < 80; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  (void)EvictToBudget(f.tree.get(), 0);
  std::vector<Entry> out;
  ASSERT_TRUE(f.tree->Scan({}, &out).ok());
  EXPECT_EQ(out.size(), 80u);
}

TEST(BwTreeEvictionTest, LruPrefersColdPages) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 8;
  TreeFixture f(opts);
  for (int i = 0; i < 80; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  // Touch the page holding Key(0) so it is the hottest.
  ASSERT_TRUE(f.tree->Get(Key(0)).ok());
  const size_t resident_before = f.tree->ResidentPageCount();
  (void)EvictToBudget(f.tree.get(), f.tree->ResidentBytes() / 2);
  ASSERT_LT(f.tree->ResidentPageCount(), resident_before);
  // The hot page survived: reading Key(0) causes no reload.
  const uint64_t reloads = f.tree->stats().page_reloads.Get();
  ASSERT_TRUE(f.tree->Get(Key(0)).ok());
  EXPECT_EQ(f.tree->stats().page_reloads.Get(), reloads);
}

TEST(BwTreeEvictionTest, DirtyPagesAreNotEvicted) {
  BwTreeOptions opts;
  opts.flush_mode = FlushMode::kDeferred;
  opts.max_leaf_entries = 8;
  TreeFixture f(opts);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(f.tree->Upsert(Key(i), "v").ok());
  // Everything dirty: nothing evictable.
  EXPECT_EQ(EvictToBudget(f.tree.get(), 0), 0u);
  // After flushing, clean pages become evictable.
  (void)FlushDirty(f.tree.get());
  EXPECT_GT(EvictToBudget(f.tree.get(), 0), 0u);
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(f.tree->Get(Key(i)).ok());
}

// Memory accounting is exact: a resident leaf's bytes are its buffers'
// capacity, ResidentBytes is what evicting every clean leaf frees, and the
// tree's footprint falls by exactly that.
TEST(BwTreeEvictionTest, ResidentBytesAreExactlyWhatEvictionFrees) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 32;
  TreeFixture f(opts);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), std::string(5 + i % 150, 'x')).ok());
  }
  (void)EvictToBudget(f.tree.get(), f.tree->ResidentBytes() / 2);
  // Evicted leaves with live deltas, and resident ones with and without.
  for (int i = 0; i < 1000; i += 97) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), "fresh").ok());
  }
  const size_t resident_pages = f.tree->ResidentPageCount();
  ASSERT_GT(resident_pages, 0u);
  ASSERT_LT(resident_pages, f.tree->LeafCount());

  const size_t resident = f.tree->ResidentBytes();
  const size_t memory = f.tree->ApproxMemoryBytes();
  std::vector<BwTree::PageResidency> pages;
  ASSERT_EQ(f.tree->CollectResidency(&pages), resident);
  ASSERT_EQ(pages.size(), resident_pages);
  size_t freed = 0;
  for (const BwTree::PageResidency& p : pages) {
    ASSERT_TRUE(p.evictable);  // sync flushing leaves every page clean
    freed += f.tree->EvictPage(p.id);
  }
  EXPECT_EQ(freed, resident);
  EXPECT_EQ(f.tree->ApproxMemoryBytes(), memory - freed);
  EXPECT_EQ(f.tree->ResidentBytes(), 0u);
  EXPECT_EQ(f.tree->ResidentPageCount(), 0u);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(f.tree->Get(Key(i)).ok()) << i;
}

TEST(BwTreeEvictionTest, MemoryDropsAfterEviction) {
  BwTreeOptions opts;
  opts.max_leaf_entries = 64;
  TreeFixture f(opts);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(f.tree->Upsert(Key(i), std::string(100, 'x')).ok());
  }
  const size_t before = f.tree->ApproxMemoryBytes();
  (void)EvictToBudget(f.tree.get(), f.tree->ResidentBytes() / 8);
  EXPECT_LT(f.tree->ApproxMemoryBytes(), before / 2);
}

// --- Visit: the one scan loop, in both cache and both delta modes ---------

class BwTreeVisitTest
    : public testing::TestWithParam<std::tuple<DeltaMode, ReadCacheMode>> {
 protected:
  // ~100 live keys over many 8-entry leaves, with a live delta, a delete
  // shadowing a base entry and an insert between base keys, so the merge
  // path runs at leaf boundaries.
  void SetUp() override {
    BwTreeOptions opts;
    opts.delta_mode = std::get<0>(GetParam());
    opts.read_cache = std::get<1>(GetParam());
    opts.max_leaf_entries = 8;
    opts.consolidate_threshold = 4;
    f_ = std::make_unique<TreeFixture>(opts);
    for (int i = 0; i < 100; ++i) Put(Key(2 * i), "v" + std::to_string(i));
    ASSERT_TRUE(f_->tree->Delete(Key(10)).ok());
    model_.erase(Key(10));
    Put(Key(11), "odd");
    Put(Key(40), "updated");
    ASSERT_GT(f_->tree->LeafCount(), 8u);
  }

  void Put(const std::string& key, const std::string& value) {
    ASSERT_TRUE(f_->tree->Upsert(key, value).ok());
    model_[key] = value;
  }

  /// Model entries of [start, end) (end empty = unbounded), at most `limit`.
  std::vector<Entry> Expected(const std::string& start, const std::string& end,
                              size_t limit) const {
    std::vector<Entry> out;
    for (auto it = model_.lower_bound(start);
         it != model_.end() && out.size() < limit; ++it) {
      if (!end.empty() && it->first >= end) break;
      out.push_back(Entry{it->first, it->second});
    }
    return out;
  }

  /// Visits with a visitor that returns false on its k-th entry; fails the
  /// test if it is called again after that.
  std::vector<Entry> VisitStoppingAfter(const BwTree::ScanOptions& scan,
                                        size_t k) {
    std::vector<Entry> seen;
    size_t calls_after_stop = 0;
    EXPECT_TRUE(f_->tree
                    ->Visit(scan,
                            [&](const Slice& key, const Slice& value) {
                              if (seen.size() == k) {
                                ++calls_after_stop;
                                return false;
                              }
                              seen.push_back(
                                  Entry{key.ToString(), value.ToString()});
                              return seen.size() < k;
                            })
                    .ok());
    EXPECT_EQ(calls_after_stop, 0u) << "visitor called after it stopped";
    return seen;
  }

  static void ExpectSameEntries(const std::vector<Entry>& got,
                                const std::vector<Entry>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << i;
      EXPECT_EQ(got[i].value, want[i].value) << i;
    }
  }

  std::unique_ptr<TreeFixture> f_;
  std::map<std::string, std::string> model_;
};

TEST_P(BwTreeVisitTest, StoppingVisitorSeesExactlyTheFirstKEntries) {
  BwTree::ScanOptions scan;
  scan.start_key = Key(3);
  std::vector<Entry> all;
  ASSERT_TRUE(f_->tree->Scan(scan, &all).ok());
  ExpectSameEntries(all, Expected(scan.start_key, "", SIZE_MAX));
  // Twice: from resident leaves, then (full cache) from evicted ones, which
  // Visit reloads under the exclusive latch.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k : {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{33},
                     all.size()}) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " k " + std::to_string(k));
      const std::vector<Entry> seen = VisitStoppingAfter(scan, k);
      ExpectSameEntries(seen, std::vector<Entry>(all.begin(), all.begin() + k));
    }
    (void)EvictToBudget(f_->tree.get(), 0);
  }
}

TEST_P(BwTreeVisitTest, LimitAndBoundedEndMatchScanAndModel) {
  const std::pair<std::string, std::string> ranges[] = {
      {"", ""}, {Key(3), Key(41)}, {Key(10), Key(11)}, {Key(11), Key(12)},
      {Key(150), ""}, {Key(199), Key(300)}, {"", Key(0)}};
  for (const auto& [start, end] : ranges) {
    for (size_t limit : {size_t{0}, size_t{1}, size_t{8}, size_t{17},
                         SIZE_MAX}) {
      SCOPED_TRACE(start + ".." + end + " limit " + std::to_string(limit));
      BwTree::ScanOptions scan;
      scan.start_key = start;
      scan.end_key = end;
      scan.limit = limit;
      std::vector<Entry> visited;
      ASSERT_TRUE(f_->tree
                      ->Visit(scan,
                              [&visited](const Slice& key, const Slice& value) {
                                visited.push_back(
                                    Entry{key.ToString(), value.ToString()});
                                return true;
                              })
                      .ok());
      std::vector<Entry> scanned = {Entry{"mine", "kept"}};
      ASSERT_TRUE(f_->tree->Scan(scan, &scanned).ok());
      EXPECT_EQ(scanned.front().key, "mine");
      scanned.erase(scanned.begin());
      const std::vector<Entry> want = Expected(start, end, limit);
      ExpectSameEntries(visited, want);
      ExpectSameEntries(scanned, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BwTreeVisitTest,
    testing::Combine(testing::Values(DeltaMode::kTraditional,
                                     DeltaMode::kReadOptimized),
                     testing::Values(ReadCacheMode::kFull,
                                     ReadCacheMode::kNone)),
    [](const testing::TestParamInfo<BwTreeVisitTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) == DeltaMode::kTraditional
                             ? "trad"
                             : "readopt") +
             (std::get<1>(info.param) == ReadCacheMode::kFull ? "_cached"
                                                              : "_zerocache");
    });

// Get is the read walk's one-key case: on every chain shape and cache
// regime, for resident and evicted leaves, it returns exactly the entry a
// Visit over [k, k + '\0') delivers, and at zero cache (or on an evicted
// leaf) it issues the same storage reads.
TEST(BwTreeTest, GetMatchesOneKeyVisit) {
  for (const DeltaMode mode :
       {DeltaMode::kTraditional, DeltaMode::kReadOptimized}) {
    for (const ReadCacheMode cache :
         {ReadCacheMode::kFull, ReadCacheMode::kNone}) {
      SCOPED_TRACE(std::string(mode == DeltaMode::kTraditional ? "trad"
                                                               : "readopt") +
                   (cache == ReadCacheMode::kFull ? "_cached" : "_zerocache"));
      BwTreeOptions opts;
      opts.delta_mode = mode;
      opts.read_cache = cache;
      opts.max_leaf_entries = 8;
      opts.consolidate_threshold = 4;
      TreeFixture f(opts);
      std::map<std::string, std::string> model;
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(f.tree->Upsert(Key(2 * i), "v" + std::to_string(i)).ok());
        model[Key(2 * i)] = "v" + std::to_string(i);
      }
      // Deletes and updates after the splits leave live deltas, some
      // holding delete entries that shadow base entries.
      for (int i : {10, 50, 51, 120, 198}) {
        ASSERT_TRUE(f.tree->Delete(Key(i)).ok());
        model.erase(Key(i));
      }
      for (int i : {11, 40, 121}) {
        ASSERT_TRUE(f.tree->Upsert(Key(i), "u" + std::to_string(i)).ok());
        model[Key(i)] = "u" + std::to_string(i);
      }
      ASSERT_GT(f.tree->LeafCount(), 8u);

      const auto reads = [&f] { return f.store->stats().read_ops.Get(); };
      std::vector<std::string> probes = {"", Key(0) + '\0', "zzz"};
      for (int i = 0; i < 202; ++i) probes.push_back(Key(i));
      for (const bool evicted : {false, true}) {
        for (const std::string& k : probes) {
          SCOPED_TRACE((evicted ? "evicted " : "resident ") + k);
          if (evicted) (void)EvictToBudget(f.tree.get(), 0);
          uint64_t before = reads();
          const Result<std::string> got = f.tree->Get(k);
          const uint64_t get_reads = reads() - before;

          if (evicted) (void)EvictToBudget(f.tree.get(), 0);
          BwTree::ScanOptions one;
          one.start_key = k;
          one.end_key = k + '\0';
          one.limit = 1;
          std::vector<Entry> visited;
          before = reads();
          ASSERT_TRUE(f.tree->Scan(one, &visited).ok());
          const uint64_t visit_reads = reads() - before;

          const auto it = model.find(k);
          if (it == model.end()) {
            EXPECT_TRUE(got.status().IsNotFound());
            EXPECT_TRUE(visited.empty());
          } else {
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(visited.size(), 1u);
            EXPECT_EQ(visited[0].key, k);
            EXPECT_EQ(visited[0].value, got.value());
            EXPECT_EQ(got.value(), it->second);
          }
          if (cache == ReadCacheMode::kNone || evicted) {
            EXPECT_EQ(get_reads, visit_reads);
            EXPECT_GT(get_reads, 0u);
          } else {
            EXPECT_EQ(get_reads, 0u);
            EXPECT_EQ(visit_reads, 0u);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bg3::bwtree
