// Crash-recovery tests: an RW node rebuilt from shared storage (manifest
// images + WAL replay) must serve the exact pre-crash state and continue
// the WAL so existing RO nodes keep tailing seamlessly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>

#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "replication/checkpoint.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"
#include "test_seed.h"

namespace bg3::replication {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct CrashFixture {
  explicit CrashFixture(
      size_t flush_group_pages = 8, size_t max_leaf_entries = 32,
      size_t max_pages_per_round = CheckpointerOptions{}.max_pages_per_round) {
    store = std::make_unique<cloud::CloudStore>();
    rw_opts.tree.tree_id = 1;
    rw_opts.tree.max_leaf_entries = max_leaf_entries;
    rw_opts.tree.base_stream = store->CreateStream("base");
    rw_opts.tree.delta_stream = store->CreateStream("delta");
    rw_opts.wal.stream = store->CreateStream("wal");
    rw_opts.flush_group_pages = flush_group_pages;
    rw_opts.checkpoint.max_pages_per_round = max_pages_per_round;
    rw = std::make_unique<RwNode>(store.get(), rw_opts);
  }

  void Crash() { rw.reset(); }

  Status Recover() {
    auto recovered = RwNode::Recover(store.get(), rw_opts);
    BG3_RETURN_IF_ERROR(recovered.status());
    rw = recovered.take();
    return Status::OK();
  }

  std::unique_ptr<cloud::CloudStore> store;
  RwNodeOptions rw_opts;
  std::unique_ptr<RwNode> rw;
};

TEST(RecoveryTest, AllDataSurvivesCrashWithFlushes) {
  CrashFixture f;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(f.rw->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
}

TEST(RecoveryTest, RecoversFromWalOnlyNoFlushEver) {
  CrashFixture f(/*flush_group_pages=*/1'000'000);
  f.rw_opts.flush_group_pages = 1'000'000;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "wal-only").ok());
  }
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(f.rw->Get(Key(i)).ok()) << i;
  }
}

TEST(RecoveryTest, DeletesAndOverwritesSurvive) {
  CrashFixture f;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "v1").ok());
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(f.rw->Delete(Key(i)).ok());
  for (int i = 1; i < 100; i += 2) ASSERT_TRUE(f.rw->Put(Key(i), "v2").ok());
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(f.rw->Get(Key(i)).status().IsNotFound()) << i;
    } else {
      EXPECT_EQ(f.rw->Get(Key(i)).value(), "v2") << i;
    }
  }
}

TEST(RecoveryTest, WritesContinueAndSplitsWorkAfterRecovery) {
  CrashFixture f(/*flush_group_pages=*/8, /*max_leaf_entries=*/8);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "old").ok());
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  // New writes must allocate non-colliding page ids and split correctly.
  for (int i = 100; i < 400; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "new").ok());
  }
  EXPECT_GT(f.rw->tree()->stats().splits.Get(), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "old");
  for (int i = 100; i < 400; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "new");
}

TEST(RecoveryTest, PreCrashRoNodeKeepsTailingAfterRecovery) {
  CrashFixture f;
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = 2;
  RoNode ro(f.store.get(), ro_opts);
  for (int i = 0; i < 150; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "v1").ok());
  // RO observes the pre-crash state.
  EXPECT_EQ(ro.Get(1, Key(7)).value(), "v1");
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 0; i < 150; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "v2").ok());
  // The same RO instance (old WAL cursor) follows the recovered leader.
  for (int i = 0; i < 150; ++i) {
    EXPECT_EQ(ro.Get(1, Key(i)).value(), "v2") << i;
  }
}

TEST(RecoveryTest, FreshRoAfterRecoverySeesEverything) {
  CrashFixture f;
  for (int i = 0; i < 150; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = 2;
  RoNode fresh(f.store.get(), ro_opts);
  for (int i = 0; i < 150; ++i) EXPECT_TRUE(fresh.Get(1, Key(i)).ok()) << i;
}

TEST(RecoveryTest, DoubleCrashDoubleRecover) {
  CrashFixture f;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "a").ok());
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 100; i < 200; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "b").ok());
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "a");
  for (int i = 100; i < 200; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "b");
}

// --- fault matrix: crash + recover under each substrate failure mode ---------
//
// Every write the node acknowledged before the crash must be served after
// recovery, with the fault injector attached the whole time (writes, crash,
// recovery, verification). Default retry budgets absorb the injected
// faults; the seed is printed so any failure replays exactly.

class RecoveryFaultMatrixTest
    : public ::testing::TestWithParam<cloud::FaultClass> {};

cloud::FaultInjectorOptions MatrixOptions(cloud::FaultClass cls,
                                          uint64_t seed) {
  cloud::FaultInjectorOptions fopts;
  fopts.seed = seed;
  switch (cls) {
    case cloud::FaultClass::kTransientError:
      fopts.transient_error_p = 0.03;
      break;
    case cloud::FaultClass::kLatencySpike:
      fopts.latency_spike_p = 0.20;
      break;
    case cloud::FaultClass::kTornAppend:
      fopts.torn_append_p = 0.03;
      break;
    case cloud::FaultClass::kCorruptRead:
      fopts.corrupt_read_p = 0.03;
      break;
  }
  return fopts;
}

TEST_P(RecoveryFaultMatrixTest, NoAcknowledgedWriteLost) {
  const cloud::FaultClass cls = GetParam();
  const std::string name =
      std::string("RecoveryFaultMatrix/") + cloud::FaultClassName(cls);
  cloud::FaultInjector fi(MatrixOptions(
      cls,
      test::AnnouncedSeed(name.c_str(),
                          0xFA0175 + static_cast<uint64_t>(cls))));
  CrashFixture f;
  f.store->SetFaultInjector(&fi);

  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok())
        << "i=" << i << " " << fi.ToString();
  }
  f.Crash();
  ASSERT_TRUE(f.Recover().ok()) << fi.ToString();
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(f.rw->Get(Key(i)).value(), "v" + std::to_string(i))
        << "i=" << i << " " << fi.ToString();
  }
  // An RO follower converges on the same recovered state.
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = f.rw_opts.wal.stream;
  RoNode ro(f.store.get(), ro_opts);
  for (int i = 0; i < 300; i += 7) {
    EXPECT_EQ(ro.Get(1, Key(i)).value(), "v" + std::to_string(i))
        << "i=" << i << " " << fi.ToString();
  }
  EXPECT_GT(f.store->stats().injected_faults.Get(), 0u)
      << "matrix must actually exercise " << cloud::FaultClassName(cls);
  EXPECT_EQ(f.store->stats().retry_exhausted.Get(), 0u) << fi.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultClasses, RecoveryFaultMatrixTest,
    ::testing::Values(cloud::FaultClass::kTransientError,
                      cloud::FaultClass::kLatencySpike,
                      cloud::FaultClass::kTornAppend,
                      cloud::FaultClass::kCorruptRead),
    [](const ::testing::TestParamInfo<cloud::FaultClass>& info) {
      return cloud::FaultClassName(info.param);
    });

// An acknowledgment means the WAL record landed. With WAL retries disabled
// a torn append fails the write (its record may still land, so after a
// crash the key may be present or absent); with default retries the write
// is acknowledged and survives the crash.
TEST(RecoveryFaultTest, TornWalAppendPlusCrashNeverLosesAnAckedWrite) {
  for (const bool retries_enabled : {false, true}) {
    cloud::FaultInjector fi;
    cloud::CloudStoreOptions sopts;
    if (!retries_enabled) sopts.retry.max_attempts = 1;
    auto store = std::make_unique<cloud::CloudStore>(sopts);
    RwNodeOptions opts;
    opts.tree.tree_id = 1;
    opts.tree.base_stream = store->CreateStream("base");
    opts.tree.delta_stream = store->CreateStream("delta");
    opts.wal.stream = store->CreateStream("wal");
    // Durability rests on the WAL alone: no group flush ever triggers.
    opts.flush_group_pages = 1'000'000;
    opts.flush_group_mutations = 1'000'000'000;
    auto rw = std::make_unique<RwNode>(store.get(), opts);
    store->SetFaultInjector(&fi);

    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(rw->Put(Key(i), "durable").ok());
    }
    fi.ArmNext(cloud::FaultOp::kAppend, cloud::FaultClass::kTornAppend);
    const Status put = rw->Put(Key(10), "acked");
    EXPECT_EQ(put.ok(), retries_enabled) << put.ToString();

    rw.reset();  // crash: the buffered (torn, un-retried) batch is gone.
    auto recovered = RwNode::Recover(store.get(), opts);
    ASSERT_TRUE(recovered.ok());
    rw = recovered.take();

    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(rw->Get(Key(i)).value(), "durable") << i;
    }
    auto got = rw->Get(Key(10));
    if (retries_enabled) {
      EXPECT_EQ(got.value(), "acked")
          << "the retried append must make the acked write durable";
    } else {
      // Outcome unknown, never acknowledged: either state is admissible.
      EXPECT_TRUE(got.ok() ? got.value() == "acked"
                           : got.status().IsNotFound())
          << got.status().ToString();
    }
  }
}

// --- mid-checkpoint crashes (DESIGN.md §5.7) ---------------------------------
//
// The fuzzy checkpoint publishes in a fixed order: page images, the WAL
// checkpoint record, the manifest slot, (optionally) WAL truncation. A
// crash between any two of those steps must recover to the exact
// acknowledged state — either from the new checkpoint or from the previous
// one, which the other slot still holds.

TEST(RecoveryCheckpointTest, CrashBetweenManifestPutAndTruncationAdvance) {
  CrashFixture f;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // Publish a durable checkpoint but crash before any WAL truncation (the
  // window where the manifest is durable and the WAL prefix still present).
  Checkpointer& ckpt = *f.rw->checkpointer();
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  ASSERT_GT(ckpt.epoch(), 0u);
  const uint64_t wal_total = f.store->TotalBytes(f.rw_opts.wal.stream);

  // More writes past the checkpoint, then crash.
  for (int i = 300; i < 350; ++i) {
    ASSERT_TRUE(f.rw->Put(Key(i), "suffix").ok());
  }
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(f.rw->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
  for (int i = 300; i < 350; ++i) {
    EXPECT_EQ(f.rw->Get(Key(i)).value(), "suffix") << i;
  }

  // Recovery resumed from the manifest: a fresh follower (which bootstraps
  // the same way) replays only the post-checkpoint suffix.
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = f.rw_opts.wal.stream;
  RoNode fresh(f.store.get(), ro_opts);
  ASSERT_TRUE(fresh.PollWal().ok());
  EXPECT_TRUE(fresh.ResumedFromCheckpoint());
  EXPECT_LT(fresh.WalBytesReplayed(), wal_total);
}

TEST(RecoveryCheckpointTest, CrashAfterTruncationAdvanceStillRecovers) {
  // The complementary window: checkpoint durable AND the covered WAL prefix
  // already reclaimed. Recovery must come up from images + suffix alone.
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 256;  // many small extents so truncation bites
  auto store = std::make_unique<cloud::CloudStore>(copts);
  RwNodeOptions opts;
  opts.tree.tree_id = 1;
  opts.tree.max_leaf_entries = 32;
  opts.tree.base_stream = store->CreateStream("base");
  opts.tree.delta_stream = store->CreateStream("delta");
  opts.wal.stream = store->CreateStream("wal");
  opts.flush_group_pages = 8;
  auto rw = std::make_unique<RwNode>(store.get(), opts);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(rw->Put(Key(i), "pre-truncate").ok());
  }
  Checkpointer& ckpt = *rw->checkpointer();
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  EXPECT_GT(ckpt.TruncateWal(cloud::kInvalidExtent), 0u)
      << "test must actually exercise a truncated prefix";
  for (int i = 400; i < 450; ++i) {
    ASSERT_TRUE(rw->Put(Key(i), "suffix").ok());
  }
  rw.reset();  // crash
  auto recovered = RwNode::Recover(store.get(), opts);
  ASSERT_TRUE(recovered.ok());
  rw = recovered.take();
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(rw->Get(Key(i)).value(), "pre-truncate") << i;
  }
  for (int i = 400; i < 450; ++i) {
    EXPECT_EQ(rw->Get(Key(i)).value(), "suffix") << i;
  }
}

TEST(RecoveryCheckpointTest, TruncationKeepsTheTornSlotFallbacksWal) {
  // WAL truncation frees only behind the older slot's cursor: with the
  // newest slot torn, recovery falls back to the older manifest and needs
  // the WAL from its cursor on.
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 256;  // many small extents so truncation bites
  auto store = std::make_unique<cloud::CloudStore>(copts);
  RwNodeOptions opts;
  opts.tree.tree_id = 1;
  opts.tree.max_leaf_entries = 32;
  opts.tree.base_stream = store->CreateStream("base");
  opts.tree.delta_stream = store->CreateStream("delta");
  opts.wal.stream = store->CreateStream("wal");
  opts.flush_group_pages = 1'000'000;  // the explicit cuts are the manifests
  auto rw = std::make_unique<RwNode>(store.get(), opts);
  Checkpointer& ckpt = *rw->checkpointer();
  const std::string scope = ckpt.scope();
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(rw->Put(Key(i), "epoch1").ok());
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  EXPECT_EQ(ckpt.TruncateWal(cloud::kInvalidExtent), 0u)
      << "one manifest: a torn slot means a full replay";
  for (int i = 300; i < 600; ++i) ASSERT_TRUE(rw->Put(Key(i), "epoch2").ok());
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  ASSERT_EQ(ckpt.epoch(), 2u);
  EXPECT_GT(ckpt.TruncateWal(cloud::kInvalidExtent), 0u)
      << "test must actually exercise a truncated prefix";
  for (int i = 600; i < 650; ++i) ASSERT_TRUE(rw->Put(Key(i), "acked").ok());
  store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, 2), "torn");

  RoNodeOptions ro_opts;
  ro_opts.wal_stream = opts.wal.stream;
  RoNode follower(store.get(), ro_opts);
  ASSERT_TRUE(follower.PollWal().ok());
  EXPECT_TRUE(follower.CheckpointFellBack());
  rw.reset();  // crash
  auto recovered = RwNode::Recover(store.get(), opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  rw = recovered.take();
  EXPECT_TRUE(rw->recovery().checkpoint_fell_back);
  for (int i = 0; i < 650; ++i) {
    const char* want = i < 300 ? "epoch1" : i < 600 ? "epoch2" : "acked";
    auto got = rw->Get(Key(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), want) << i;
    auto seen = follower.Get(1, Key(i));
    ASSERT_TRUE(seen.ok()) << i << ": " << seen.status().ToString();
    EXPECT_EQ(seen.value(), want) << i;
  }
}

TEST(RecoveryCheckpointTest, TornNewestSlotFallsBackToPreviousCheckpoint) {
  // No group flush: the two explicit cuts are the only manifests.
  CrashFixture f(/*flush_group_pages=*/1'000'000);
  const std::string scope = WalScope(f.rw_opts.wal.stream);
  Checkpointer& ckpt = *f.rw->checkpointer();

  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "epoch1").ok());
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  const uint64_t epoch1 = ckpt.epoch();
  for (int i = 100; i < 200; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "epoch2").ok());
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  ASSERT_GT(ckpt.epoch(), epoch1);

  // The newest manifest cut off before its WAL frame identity (term, seq),
  // under a valid CRC: every manifest carries the pair, so this is as
  // corrupt as any other truncation.
  auto newest = LoadCheckpoint(f.store.get(), scope);
  ASSERT_TRUE(newest.ok());
  const CheckpointManifest& m = newest.value().manifest;
  const std::string full = m.Encode();
  std::string truncated = full.substr(
      0, full.size() - 4 - VarintLength(m.wal_term) - VarintLength(m.wal_seq));
  PutFixed32(&truncated, Crc32c(truncated.data(), truncated.size()));
  CheckpointManifest decoded;
  EXPECT_TRUE(CheckpointManifest::Decode(truncated, &decoded).IsCorruption());

  // Tear the newest slot (a torn manifest write crashed mid-publish), with
  // garbage and with the truncated manifest.
  for (const std::string& torn :
       {std::string("torn-garbage-not-a-manifest"), truncated}) {
    f.store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, ckpt.epoch()), torn);
    auto loaded = LoadCheckpoint(f.store.get(), scope);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().fell_back);
    EXPECT_EQ(loaded.value().manifest.epoch, epoch1);
  }

  // A follower bootstrapping now falls back the same way. (It bootstraps
  // before the crash: the recovered node's own cut republishes the slot.)
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = f.rw_opts.wal.stream;
  RoNode follower(f.store.get(), ro_opts);
  ASSERT_TRUE(follower.PollWal().ok());
  EXPECT_TRUE(follower.ResumedFromCheckpoint());
  EXPECT_TRUE(follower.CheckpointFellBack());

  // Recovery still serves everything: the older checkpoint plus a longer
  // WAL suffix replay covers the full acknowledged state.
  f.Crash();
  ASSERT_TRUE(f.Recover().ok());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "epoch1");
  for (int i = 100; i < 200; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "epoch2");
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(follower.Get(1, Key(i)).ok()) << i;
}

TEST(RecoveryCheckpointTest, BothSlotsTornFallsBackToFullReplay) {
  CrashFixture f;
  const std::string scope = WalScope(f.rw_opts.wal.stream);
  Checkpointer& ckpt = *f.rw->checkpointer();
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "a").ok());
  ASSERT_TRUE(ckpt.CheckpointNow().ok());
  for (int i = 100; i < 200; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "b").ok());
  ASSERT_TRUE(ckpt.CheckpointNow().ok());

  f.store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, 0), "torn");
  f.store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, 1), "torn");
  EXPECT_TRUE(LoadCheckpoint(f.store.get(), scope).status().IsNotFound());

  // A follower bootstrapping now replays the full WAL. (It bootstraps
  // before the crash: the recovered node's own cut publishes a new slot.)
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = f.rw_opts.wal.stream;
  RoNode follower(f.store.get(), ro_opts);
  ASSERT_TRUE(follower.PollWal().ok());
  EXPECT_FALSE(follower.ResumedFromCheckpoint());

  f.Crash();
  ASSERT_TRUE(f.Recover().ok());  // full-WAL replay path
  for (int i = 0; i < 100; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "a");
  for (int i = 100; i < 200; ++i) EXPECT_EQ(f.rw->Get(Key(i)).value(), "b");
}

TEST(RecoveryCheckpointTest, NewestCompleteSlotIsUsedWithoutFallBack) {
  // No group flush: the explicit cut is the only manifest this node writes.
  CrashFixture f(/*flush_group_pages=*/1'000'000);
  const std::string scope = WalScope(f.rw_opts.wal.stream);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.rw->Put(Key(i), "v").ok());
  ASSERT_TRUE(f.rw->checkpointer()->CheckpointNow().ok());
  const CheckpointManifest prev =
      LoadCheckpoint(f.store.get(), scope).value().manifest;

  // Epoch N+1, put into its slot on its own: the same coverage, with the
  // cursor moved past the batch of N's checkpoint record (no mutation
  // follows the cut), so it is complete and names a shorter suffix.
  CheckpointManifest next = prev;
  next.epoch = prev.epoch + 1;
  const wal::WalCursor tail = f.rw->wal_writer()->committed_cursor();
  ASSERT_NE(tail.seq, prev.wal_seq) << "the checkpoint record follows the cut";
  next.wal_cursor = tail.ptr;
  next.wal_term = tail.term;
  next.wal_seq = tail.seq;
  f.store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, next.epoch),
                       next.Encode());

  auto loaded = LoadCheckpoint(f.store.get(), scope);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().manifest.epoch, next.epoch);
  EXPECT_FALSE(loaded.value().fell_back);

  // A follower bootstraps from N+1: nothing lies past its cursor.
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = f.rw_opts.wal.stream;
  RoNode follower(f.store.get(), ro_opts);
  ASSERT_TRUE(follower.PollWal().ok());
  EXPECT_TRUE(follower.ResumedFromCheckpoint());
  EXPECT_FALSE(follower.CheckpointFellBack());
  EXPECT_EQ(follower.WalBytesReplayed(), 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(follower.Get(1, Key(i)).value(), "v") << i;
  }
}

TEST(RecoveryCheckpointTest, UnreadSlotsHoldBackTheNextManifest) {
  // A checkpointer whose start-up read of the slots failed does not know
  // which epoch to continue, and a manifest numbered below a surviving one
  // would never be loaded: it reads the slots again before it publishes.
  cloud::CloudStoreOptions copts;
  copts.retry.max_attempts = 1;  // one injected fault fails the read
  cloud::CloudStore store(copts);
  RwNodeOptions opts;
  opts.tree.tree_id = 1;
  opts.tree.max_leaf_entries = 32;
  opts.tree.base_stream = store.CreateStream("base");
  opts.tree.delta_stream = store.CreateStream("delta");
  opts.wal.stream = store.CreateStream("wal");
  opts.flush_group_pages = 1'000'000;
  RwNode rw(&store, opts);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(rw.Put(Key(i), "a").ok());
  ASSERT_TRUE(rw.checkpointer()->CheckpointNow().ok());
  for (int i = 50; i < 100; ++i) ASSERT_TRUE(rw.Put(Key(i), "b").ok());
  ASSERT_TRUE(rw.checkpointer()->CheckpointNow().ok());
  const uint64_t prior_epoch = rw.checkpointer()->epoch();
  ASSERT_GE(prior_epoch, 2u);

  // A second checkpointer of the node stands in for a restarted one.
  cloud::FaultInjector faults;
  store.SetFaultInjector(&faults);
  faults.ArmNext(cloud::FaultOp::kManifestGet,
                 cloud::FaultClass::kTransientError);
  Checkpointer restarted(&store, &rw);
  ASSERT_EQ(faults.stats().Total(), 1u);
  store.SetFaultInjector(nullptr);
  EXPECT_EQ(restarted.epoch(), 0u) << "the start-up read failed";

  for (int i = 100; i < 150; ++i) ASSERT_TRUE(rw.Put(Key(i), "c").ok());
  ASSERT_TRUE(restarted.CheckpointNow().ok());
  EXPECT_EQ(restarted.epoch(), prior_epoch + 1);
  auto loaded = LoadCheckpoint(&store, WalScope(opts.wal.stream));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().manifest.epoch, restarted.epoch());
  EXPECT_EQ(loaded.value().manifest.checkpoint_lsn, restarted.published_lsn());
}

// --- the manifest area's slot protocol ---------------------------------------

/// One record kind of the manifest area, driven through its public encode
/// and load functions.
struct SlotKind {
  std::string_view kind;
  std::string (*encode)(uint64_t epoch);
  /// The newest record's epoch; `*fell_back` as the load reports it.
  Result<uint64_t> (*load)(cloud::CloudStore* store, const std::string& scope,
                           bool* fell_back);
  bool reports_fell_back;
};

const SlotKind kCheckpointKind{
    CheckpointManifest::kKind,
    [](uint64_t epoch) {
      CheckpointManifest m;
      m.epoch = epoch;
      m.checkpoint_lsn = epoch * 10;
      m.trees.push_back({1, epoch * 10});
      return m.Encode();
    },
    [](cloud::CloudStore* store, const std::string& scope,
       bool* fell_back) -> Result<uint64_t> {
      auto loaded = LoadCheckpoint(store, scope);
      BG3_RETURN_IF_ERROR(loaded.status());
      *fell_back = loaded.value().fell_back;
      return loaded.value().manifest.epoch;
    },
    true};

const SlotKind kEpochKind{
    EpochRecord::kKind,
    [](uint64_t epoch) {
      EpochRecord r;
      r.epoch = epoch;
      r.term = epoch * 10;
      return r.Encode();
    },
    [](cloud::CloudStore* store, const std::string& scope,
       bool*) -> Result<uint64_t> {
      auto loaded = LoadEpochRecord(store, scope);
      BG3_RETURN_IF_ERROR(loaded.status());
      return loaded.value().epoch;
    },
    false};

TEST(ManifestSlotTest, EveryKindLoadsTheNewestValidSlot) {
  enum class State { kMissing, kValid, kTorn, kWrongParity };
  const State kStates[] = {State::kMissing, State::kValid, State::kTorn,
                           State::kWrongParity};
  for (const SlotKind* kind : {&kCheckpointKind, &kEpochKind}) {
    // Valid records are epochs {2, 3} (slot 1 newer) or {4, 3} (slot 0).
    for (const uint64_t slot0_epoch : {2u, 4u}) {
      const uint64_t epochs[2] = {slot0_epoch, 3};
      for (const State s0 : kStates) {
        for (const State s1 : kStates) {
          const State states[2] = {s0, s1};
          cloud::CloudStore store;
          const std::string scope = "wal9";
          uint64_t want = 0;
          bool bad = false;
          for (uint64_t parity = 0; parity < 2; ++parity) {
            const std::string key = SlotKey(kind->kind, scope, parity);
            switch (states[parity]) {
              case State::kMissing:
                break;
              case State::kValid:
                store.ManifestPut(key, kind->encode(epochs[parity]));
                want = std::max(want, epochs[parity]);
                break;
              case State::kTorn:
                store.ManifestPut(key, "torn-mid-write");
                bad = true;
                break;
              case State::kWrongParity:
                // A sound record of the newest epoch, in the wrong slot.
                store.ManifestPut(key, kind->encode(epochs[parity] + 1));
                bad = true;
                break;
            }
          }
          SCOPED_TRACE(std::string(kind->kind) + " slot0=" +
                       std::to_string(static_cast<int>(s0)) + " slot1=" +
                       std::to_string(static_cast<int>(s1)) +
                       " slot0_epoch=" + std::to_string(slot0_epoch));
          bool fell_back = false;
          auto got = kind->load(&store, scope, &fell_back);
          if (want == 0) {
            EXPECT_TRUE(got.status().IsNotFound()) << got.status().ToString();
            continue;
          }
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got.value(), want);
          if (kind->reports_fell_back) {
            EXPECT_EQ(fell_back, bad);
          }
        }
      }
    }
  }
}

TEST(ManifestSlotTest, EachPublishWritesExactlyOneManifestKey) {
  cloud::CloudStore store;
  const std::string scope = "wal4";
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    CheckpointManifest m;
    m.epoch = epoch;
    uint64_t before = store.stats().manifest_updates.Get();
    ASSERT_TRUE(PublishCheckpoint(&store, scope, m).ok());
    EXPECT_EQ(store.stats().manifest_updates.Get() - before, 1u) << epoch;

    before = store.stats().manifest_updates.Get();
    ASSERT_TRUE(PublishEpochRecord(&store, scope, epoch * 10, 4).ok());
    EXPECT_EQ(store.stats().manifest_updates.Get() - before, 1u) << epoch;
  }
  // Each kind's records live in its two slots and nowhere else.
  EXPECT_EQ(store.ManifestList("ckpt/").size(), 2u);
  EXPECT_EQ(store.ManifestList("epoch/").size(), 2u);
  EXPECT_EQ(LoadCheckpoint(&store, scope).value().manifest.epoch, 3u);
  EXPECT_EQ(LoadEpochRecord(&store, scope).value().term, 30u);
}

TEST(RecoveryCheckpointTest, CrashAfterEveryCheckpointStep) {
  // Drive the cut one bounded Step at a time and crash after each: every
  // intermediate state (cut open, images partially published, manifest
  // committed) must recover to the full acknowledged state.
  for (int crash_after = 1; crash_after <= 6; ++crash_after) {
    // Two pages per round: many steps per cut.
    CrashFixture f(/*flush_group_pages=*/1'000'000, /*max_leaf_entries=*/8,
                   /*max_pages_per_round=*/2);
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(f.rw->Put(Key(i), "v" + std::to_string(i)).ok());
    }
    for (int s = 0; s < crash_after; ++s) {
      ASSERT_TRUE(f.rw->checkpointer()->Step().ok()) << "step " << s;
    }
    f.Crash();
    ASSERT_TRUE(f.Recover().ok()) << "crash_after=" << crash_after;
    for (int i = 0; i < 120; ++i) {
      EXPECT_EQ(f.rw->Get(Key(i)).value(), "v" + std::to_string(i))
          << "crash_after=" << crash_after << " i=" << i;
    }
  }
}

TEST(RecoveryTest, RecoverEmptyWalFails) {
  cloud::CloudStore store;
  RwNodeOptions opts;
  opts.tree.tree_id = 1;
  opts.tree.base_stream = store.CreateStream("base");
  opts.tree.delta_stream = store.CreateStream("delta");
  opts.wal.stream = store.CreateStream("wal");
  EXPECT_FALSE(RwNode::Recover(&store, opts).ok());
}

}  // namespace
}  // namespace bg3::replication
