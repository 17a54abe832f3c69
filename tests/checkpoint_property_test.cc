// Property test for continuous fuzzy checkpointing (DESIGN.md §5.7):
// random interleavings of writes, bounded checkpoint steps, whole cuts
// and crash/recover must always recover to the in-memory model, and once a
// checkpoint manifest is durable, recovery replays strictly less WAL than
// the stream holds (the bounded-restart property). The GraphDB schedules
// run the graph on the WAL-backed RW node, with GC cycles, WAL truncation
// and torn newest manifest slots among the steps: a reopened graph holds
// every edge and vertex ever acknowledged, and nothing never written.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/random.h"
#include "core/graph_db.h"
#include "replication/checkpoint.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"
#include "test_seed.h"

namespace bg3::replication {
namespace {

std::string Key(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%08llu", static_cast<unsigned long long>(i));
  return buf;
}

struct Harness {
  Harness() {
    store = std::make_unique<cloud::CloudStore>();
    opts.tree.tree_id = 1;
    opts.tree.max_leaf_entries = 16;
    opts.tree.base_stream = store->CreateStream("base");
    opts.tree.delta_stream = store->CreateStream("delta");
    opts.wal.stream = store->CreateStream("wal");
    opts.flush_group_pages = 1'000'000;  // explicit flushes only
    opts.flush_group_mutations = 1'000'000'000;
    opts.checkpoint.max_pages_per_round = 3;  // cuts straddle crashes
    rw = std::make_unique<RwNode>(store.get(), opts);
  }

  Checkpointer* ckpt() { return rw->checkpointer(); }

  Status CrashAndRecover() {
    rw.reset();
    auto recovered = RwNode::Recover(store.get(), opts);
    BG3_RETURN_IF_ERROR(recovered.status());
    rw = recovered.take();
    return Status::OK();
  }

  std::unique_ptr<cloud::CloudStore> store;
  RwNodeOptions opts;
  std::unique_ptr<RwNode> rw;
};

void VerifyModel(Harness& h, const std::map<std::string, std::string>& model,
                 uint64_t seed, int step) {
  for (const auto& [k, v] : model) {
    auto got = h.rw->Get(k);
    ASSERT_TRUE(got.ok()) << "seed=" << seed << " step=" << step << " key=" << k
                          << " " << got.status().ToString();
    ASSERT_EQ(got.value(), v) << "seed=" << seed << " step=" << step;
  }
  // Spot-check absence: keys adjacent to the model's range must miss.
  ASSERT_TRUE(h.rw->Get("zzz-not-a-key").status().IsNotFound())
      << "seed=" << seed << " step=" << step;
}

TEST(CheckpointPropertyTest, RandomSchedulesRecoverToModel) {
  const uint64_t seed = test::AnnouncedSeed(
      "CheckpointPropertyTest.RandomSchedulesRecoverToModel", 0xC4EC4);
  for (int round = 0; round < 4; ++round) {
    Random rng(seed + round * 0x9E3779B97F4A7C15ull);
    Harness h;
    std::map<std::string, std::string> model;
    bool checkpointed = false;
    const int kSteps = 400;
    for (int step = 0; step < kSteps; ++step) {
      const uint32_t dice = rng.Next() % 100;
      if (dice < 55) {  // Put
        const std::string k = Key(rng.Next() % 200);
        const std::string v = "v" + std::to_string(rng.Next() % 1000);
        ASSERT_TRUE(h.rw->Put(k, v).ok());
        model[k] = v;
      } else if (dice < 70) {  // Delete (possibly absent — both must agree)
        const std::string k = Key(rng.Next() % 200);
        Status s = h.rw->Delete(k);
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
        model.erase(k);
      } else if (dice < 85) {  // one bounded checkpoint increment
        ASSERT_TRUE(h.ckpt()->Step().ok());
        checkpointed |= h.ckpt()->epoch() > 0;
      } else if (dice < 92) {  // a whole cut, as a group flush runs it
        ASSERT_TRUE(h.ckpt()->CheckpointNow().ok());
      } else {  // crash at an arbitrary point — possibly mid-cut
        ASSERT_NO_FATAL_FAILURE({
          Status s = h.CrashAndRecover();
          ASSERT_TRUE(s.ok()) << "seed=" << seed << " step=" << step << " "
                              << s.ToString();
        });
        VerifyModel(h, model, seed, step);
      }
    }
    // Drive the cut to a durable manifest, then final crash + recover.
    ASSERT_TRUE(h.ckpt()->CheckpointNow().ok());
    checkpointed = true;
    ASSERT_TRUE(h.CrashAndRecover().ok());
    VerifyModel(h, model, seed, kSteps);

    // Bounded restart: with a durable checkpoint, a fresh reader replays
    // strictly less than the stream's total bytes.
    if (checkpointed) {
      RoNodeOptions ro_opts;
      ro_opts.wal_stream = h.opts.wal.stream;
      RoNode fresh(h.store.get(), ro_opts);
      ASSERT_TRUE(fresh.PollWal().ok());
      EXPECT_TRUE(fresh.ResumedFromCheckpoint());
      const uint64_t total = h.store->TotalBytes(h.opts.wal.stream);
      EXPECT_LT(fresh.WalBytesReplayed(), total)
          << "checkpointed recovery must replay only the WAL suffix";
      // And the reader still observes the model exactly.
      for (const auto& [k, v] : model) {
        auto got = fresh.Get(1, k);
        ASSERT_TRUE(got.ok()) << k;
        EXPECT_EQ(got.value(), v) << k;
      }
    }
  }
}

TEST(CheckpointPropertyTest, StepIsAlwaysSafeToInterleaveWithWrites) {
  // A dumber, denser interleaving: every write is followed by a checkpoint
  // step, so cuts constantly open/drain/publish while the tree mutates.
  const uint64_t seed = test::AnnouncedSeed(
      "CheckpointPropertyTest.StepIsAlwaysSafeToInterleaveWithWrites",
      0xC4EC5);
  Random rng(seed);
  Harness h;
  std::map<std::string, std::string> model;
  for (int i = 0; i < 600; ++i) {
    const std::string k = Key(rng.Next() % 64);
    const std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(h.rw->Put(k, v).ok());
    model[k] = v;
    ASSERT_TRUE(h.ckpt()->Step().ok()) << i;
  }
  EXPECT_GT(h.ckpt()->epoch(), 0u) << "dense stepping must publish manifests";
  ASSERT_TRUE(h.CrashAndRecover().ok());
  VerifyModel(h, model, seed, 600);
}

// --- GraphDB on the WAL-backed RW node ---------------------------------------

constexpr int kOwners = 4;
constexpr graph::EdgeType kEdgeType = 1;

/// Identity of one acknowledged write: an edge (owner, dst) or a vertex
/// (-1, id). Every write uses a fresh dst / vertex id, so a present item
/// is exactly one write.
using Item = std::pair<int, uint64_t>;

std::string ItemValue(const Item& item) {
  return (item.first < 0 ? "vertex-" : "edge-") + std::to_string(item.second);
}

core::GraphDBOptions PropertyDbOptions() {
  core::GraphDBOptions opts;
  opts.checkpoint.enabled = true;
  opts.checkpoint.max_pages_per_round = 2;  // cuts straddle many writes
  opts.forest.split_out_threshold = 12;     // owners split out mid-cut
  opts.forest.tree_options.max_leaf_entries = 8;  // and leaves split
  opts.vertex_tree_max_leaf_entries = 8;
  opts.gc_policy = core::GcPolicyKind::kFifo;     // victims in write order
  return opts;
}

/// Everything the reopened `db` serves, checked against the writes ever
/// made: a present item must be one that was written, with its value.
std::set<Item> ReadAll(core::GraphDB& db, uint64_t next_dst, uint64_t next_vid,
                       const std::string& where) {
  std::set<Item> seen;
  for (int owner = 0; owner < kOwners; ++owner) {
    std::vector<graph::Neighbor> nbrs;
    Status s = db.GetNeighbors(owner, kEdgeType, ~size_t{0}, &nbrs);
    EXPECT_TRUE(s.ok()) << where << " " << s.ToString();
    for (const graph::Neighbor& n : nbrs) {
      const Item item{owner, n.dst};
      EXPECT_LT(n.dst, next_dst) << where << " edge never written";
      EXPECT_EQ(n.properties, ItemValue(item)) << where;
      seen.insert(item);
    }
  }
  for (uint64_t vid = 0; vid < next_vid + 8; ++vid) {
    auto got = db.GetVertex(vid);
    if (got.status().IsNotFound()) continue;
    EXPECT_TRUE(got.ok()) << where << " " << got.status().ToString();
    EXPECT_LT(vid, next_vid) << where << " vertex never written";
    const Item item{-1, vid};
    EXPECT_EQ(got.value(), ItemValue(item)) << where;
    seen.insert(item);
  }
  return seen;
}

TEST(GraphDbCheckpointPropertyTest, ReopenKeepsEveryAckedWrite) {
  const uint64_t seed = test::AnnouncedSeed(
      "GraphDbCheckpointPropertyTest.ReopenKeepsEveryAckedWrite", 0xDB5C0);
  for (int round = 0; round < 4; ++round) {
    Random rng(seed + round * 0x9E3779B97F4A7C15ull);
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = 1 << 10;  // GC and WAL truncation find victims
    auto store = std::make_unique<cloud::CloudStore>(copts);
    auto db = std::make_unique<core::GraphDB>(store.get(), PropertyDbOptions());
    // Epoch of the slot last torn: a second tear before a newer manifest
    // replaces it would tear the fallback too (a double fault).
    uint64_t torn_epoch = 0;
    uint64_t next_dst = 0;
    uint64_t next_vid = 0;
    // Guaranteed after a reopen: what the previous reopen restored, plus
    // every write acknowledged since then.
    std::set<Item> restored;
    std::vector<Item> log;  // writes since the last reopen, in ack order.
    const int kSteps = 300;
    for (int step = 0; step <= kSteps; ++step) {
      const std::string where = "seed=" + std::to_string(seed) +
                                " round=" + std::to_string(round) +
                                " step=" + std::to_string(step);
      replication::Checkpointer* ckpt = db->checkpointer();
      const uint32_t dice = step == kSteps ? 99 : rng.Next() % 100;
      if (dice < 45) {
        const Item item{static_cast<int>(rng.Next() % kOwners), next_dst++};
        ASSERT_TRUE(db->AddEdge(item.first, kEdgeType, item.second,
                                ItemValue(item), item.second + 1)
                        .ok())
            << where;
        log.push_back(item);
      } else if (dice < 58) {
        const Item item{-1, next_vid++};
        ASSERT_TRUE(db->AddVertex(item.second, ItemValue(item)).ok()) << where;
        log.push_back(item);
      } else if (dice < 80) {
        ASSERT_TRUE((dice >= 76 ? ckpt->CheckpointNow() : ckpt->Step()).ok())
            << where;
      } else if (dice < 86) {
        ASSERT_TRUE(db->RunGcCycle().ok()) << where;
      } else if (dice < 90) {
        ckpt->TruncateWal(cloud::kInvalidExtent);
      } else {  // destroy and reopen, possibly mid-cut
        // Half the reopens find the newest manifest slot torn.
        const uint64_t newest = ckpt->epoch();
        const std::string scope = ckpt->scope();
        const bool tear = newest > 0 && newest >= torn_epoch && dice % 2 == 0;
        db.reset();
        if (tear) {
          store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, newest),
                             "torn-mid-write");
          torn_epoch = newest;
        }
        db = std::make_unique<core::GraphDB>(store.get(), PropertyDbOptions());
        const std::set<Item> seen = ReadAll(*db, next_dst, next_vid, where);
        std::set<Item> expected = restored;
        expected.insert(log.begin(), log.end());
        for (const Item& item : expected) {
          ASSERT_TRUE(seen.count(item) != 0)
              << where << " lost " << ItemValue(item) << " of owner "
              << item.first;
        }
        restored = seen;
        log.clear();
      }
    }
  }
}

}  // namespace
}  // namespace bg3::replication
