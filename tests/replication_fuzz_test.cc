// Randomized leader-follower consistency fuzzing: arbitrary interleavings
// of writes, deletes, group flushes, RO reads/scans, cache pressure, log
// compaction, crash-recovery and WAL truncation must never let an RO node
// observe anything but the RW node's latest state.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cloud/cloud_store.h"
#include "common/random.h"
#include "forest/buffer_pool.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"
#include "test_seed.h"

namespace bg3::replication {
namespace {

struct FuzzParam {
  uint64_t seed;
  size_t flush_group_pages;
  size_t max_leaf_entries;
  size_t ro_cache_pages;
  bool with_crashes;
};

std::string ParamName(const testing::TestParamInfo<FuzzParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_fg" +
         std::to_string(info.param.flush_group_pages) + "_leaf" +
         std::to_string(info.param.max_leaf_entries) + "_cache" +
         std::to_string(info.param.ro_cache_pages) +
         (info.param.with_crashes ? "_crash" : "");
}

class ReplicationFuzzTest : public testing::TestWithParam<FuzzParam> {};

TEST_P(ReplicationFuzzTest, RoAlwaysMatchesModel) {
  const FuzzParam& p = GetParam();
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 8192;
  cloud::CloudStore store(copts);
  RwNodeOptions rw_opts;
  rw_opts.tree.tree_id = 1;
  rw_opts.tree.max_leaf_entries = p.max_leaf_entries;
  rw_opts.tree.base_stream = store.CreateStream("base");
  rw_opts.tree.delta_stream = store.CreateStream("delta");
  rw_opts.wal.stream = store.CreateStream("wal");
  rw_opts.flush_group_pages = p.flush_group_pages;
  auto rw = std::make_unique<RwNode>(&store, rw_opts);

  RoNodeOptions ro_opts;
  ro_opts.wal_stream = rw_opts.wal.stream;
  ro_opts.cache_capacity_pages = p.ro_cache_pages;
  ro_opts.pending_compact_threshold = 32;
  RoNode ro(&store, ro_opts);

  std::map<std::string, std::string> model;
  // BG3_TEST_SEED replays a failing schedule (combine with --gtest_filter
  // to pin the non-seed parameters of the failing instantiation).
  Random rng(test::AnnouncedSeed("ReplicationFuzzTest.RoAlwaysMatchesModel",
                                 p.seed));
  auto key_of = [](uint64_t k) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%06llu", static_cast<unsigned long long>(k));
    return std::string(buf);
  };

  for (int i = 0; i < 4000; ++i) {
    const int action = static_cast<int>(rng.Uniform(100));
    const std::string key = key_of(rng.Uniform(400));
    if (action < 45) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(rw->Put(key, value).ok());
      model[key] = value;
    } else if (action < 55) {
      ASSERT_TRUE(rw->Delete(key).ok());
      model.erase(key);
    } else if (action < 85) {
      auto got = ro.Get(1, key);
      auto mit = model.find(key);
      if (mit == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key << " @" << i;
      } else {
        ASSERT_TRUE(got.ok()) << key << " @" << i;
        EXPECT_EQ(got.value(), mit->second) << key << " @" << i;
      }
    } else if (action < 90) {
      std::string lo = key_of(rng.Uniform(400));
      std::string hi = key_of(rng.Uniform(400));
      if (hi < lo) std::swap(lo, hi);
      std::vector<bwtree::Entry> out;
      ASSERT_TRUE(ro.Scan(1, lo, hi, 1u << 20, &out).ok());
      std::vector<std::pair<std::string, std::string>> expected(
          model.lower_bound(lo), model.lower_bound(hi));
      ASSERT_EQ(out.size(), expected.size()) << lo << ".." << hi << " @" << i;
      for (size_t j = 0; j < out.size(); ++j) {
        EXPECT_EQ(out[j].key, expected[j].first);
        EXPECT_EQ(out[j].value, expected[j].second);
      }
    } else if (action < 93) {
      ASSERT_TRUE(rw->checkpointer()->CheckpointNow().ok());
    } else if (action < 95) {
      ro.CompactPendingLogs();
    } else if (action < 96) {
      // Memory pressure on the leader: drop clean base pages down to
      // 0-87.5% of its resident bytes.
      const size_t budget = rw->tree()->ResidentBytes() * rng.Uniform(8) / 8;
      BG3_IGNORE_STATUS(forest::EvictTreesToBudget({rw->tree()}, budget));
    } else if (action < 98 && p.with_crashes) {
      rw.reset();  // crash
      auto recovered = RwNode::Recover(&store, rw_opts);
      ASSERT_TRUE(recovered.ok()) << "@" << i;
      rw = recovered.take();
    } else {
      // WAL truncation with this RO's cursor as the reader floor.
      const cloud::PagePointer cursor = ro.WalCursor();
      if (!cursor.IsNull()) {
        (void)rw->checkpointer()->TruncateWal(cursor.extent_id);
      }
    }
  }
  // Full final verification through the RO.
  for (const auto& [key, value] : model) {
    EXPECT_EQ(ro.Get(1, key).value(), value) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplicationFuzzTest,
    testing::Values(FuzzParam{1, 4, 8, 1024, false},
                    FuzzParam{2, 1'000'000, 16, 1024, false},
                    FuzzParam{3, 8, 32, 2, false},  // heavy cache pressure
                    FuzzParam{4, 2, 4, 8, false},   // tiny pages, eager flush
                    FuzzParam{5, 8, 16, 64, true},  // with crash-recovery
                    FuzzParam{6, 16, 8, 4, true}),
    ParamName);

}  // namespace
}  // namespace bg3::replication
