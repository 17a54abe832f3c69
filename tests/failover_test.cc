// Failover suite (DESIGN.md §5.10): term-fenced appends, epoch-record CAS
// promotion, zombie-leader drain, cluster promotion / rolling restart, the
// promotion replay bound, and the seeded chaos harness. The
// `failover-smoke` CI job runs everything here under asan and tsan
// (`ctest -L failover`).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "common/debug_server.h"
#include "replication/chaos.h"
#include "replication/checkpoint.h"
#include "replication/cluster.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"
#include "test_seed.h"
#include "wal/reader.h"
#include "wal/record.h"
#include "wal/writer.h"

namespace bg3::replication {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

wal::WalRecord Mutation(bwtree::Lsn lsn, const std::string& key,
                        const std::string& value) {
  wal::WalRecord r;
  r.type = wal::WalRecord::Type::kMutation;
  r.tree_id = 1;
  r.page_id = 7;
  r.lsn = lsn;
  r.entry = {bwtree::DeltaOp::kUpsert, key, value};
  return r;
}

// --- stream-level term fencing ------------------------------------------------

TEST(StreamFencingTest, AppendFencedRejectsStaleTerms) {
  cloud::CloudStore store;
  const cloud::StreamId s = store.CreateStream("wal");
  // Unfenced: any term passes, term is not interpreted.
  ASSERT_TRUE(store.AppendFenced(s, 1, "a").ok());
  ASSERT_TRUE(store.AppendFenced(s, 99, "b").ok());

  store.FenceStream(s, 5);
  EXPECT_EQ(store.StreamFenceTerm(s), 5u);
  EXPECT_TRUE(store.AppendFenced(s, 4, "stale").status().IsFenced());
  EXPECT_TRUE(store.AppendFenced(s, 5, "exact").ok());
  EXPECT_TRUE(store.AppendFenced(s, 6, "newer").ok());
  // Term 0 marks a legacy (pre-fencing) writer: rejected once fenced.
  EXPECT_TRUE(store.AppendFenced(s, 0, "legacy").status().IsFenced());
  // Plain appends never participate in fencing (page-flush / GC streams).
  EXPECT_TRUE(store.Append(s, "plain").ok());

  // The fence only ratchets up.
  store.FenceStream(s, 3);
  EXPECT_EQ(store.StreamFenceTerm(s), 5u);
  store.FenceStream(s, 8);
  EXPECT_EQ(store.StreamFenceTerm(s), 8u);
  EXPECT_TRUE(store.AppendFenced(s, 5, "now stale").status().IsFenced());
}

TEST(StreamFencingTest, FencedRejectionIsNotRetryableAndNotABreakerError) {
  cloud::CloudStore store;
  const cloud::StreamId s = store.CreateStream("wal");
  store.FenceStream(s, 10);
  const Status fenced = store.AppendFenced(s, 2, "x").status();
  ASSERT_TRUE(fenced.IsFenced());
  EXPECT_FALSE(cloud::IsTransient(fenced));
  // A healthy substrate correctly rejecting a deposed writer must not open
  // the circuit breaker: hammer the fence, then check a fresh stream works.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(store.AppendFenced(s, 2, "x").status().IsFenced());
  }
  EXPECT_TRUE(store.Append(store.CreateStream("other"), "ok").ok());
}

// --- epoch records ------------------------------------------------------------

TEST(EpochRecordTest, PublishAndLoadRoundTrip) {
  cloud::CloudStore store;
  const std::string scope = "wal7";
  EXPECT_TRUE(LoadEpochRecord(&store, scope).status().IsNotFound());

  auto first = PublishEpochRecord(&store, scope, 5, 7);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().epoch, 1u);
  EXPECT_EQ(first.value().term, 5u);

  auto second = PublishEpochRecord(&store, scope, 9, 7);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().epoch, 2u);

  auto loaded = LoadEpochRecord(&store, scope);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().epoch, 2u);
  EXPECT_EQ(loaded.value().term, 9u);
  EXPECT_EQ(loaded.value().wal_stream, 7u);

  // A promotion whose term is not strictly newer loses outright.
  EXPECT_TRUE(PublishEpochRecord(&store, scope, 9, 7).status().IsAborted());
  EXPECT_TRUE(PublishEpochRecord(&store, scope, 3, 7).status().IsAborted());
  // The durable record is untouched by the losers.
  EXPECT_EQ(LoadEpochRecord(&store, scope).value().term, 9u);
}

TEST(EpochRecordTest, ConcurrentPromotersHaveExactlyOneWinnerPerRound) {
  // N racing promoters, each with a distinct term, all starting from the
  // same loaded epoch: the slot CAS picks winners; losers get Aborted and
  // never clobber a winner's record.
  cloud::CloudStore store;
  const std::string scope = "wal1";
  constexpr int kThreads = 4;
  std::vector<Status> results(kThreads, Status::OK());
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] =
            PublishEpochRecord(&store, scope, 10 + t, 1).status();
      });
    }
    for (auto& th : threads) th.join();
  }
  int wins = 0;
  uint64_t max_won_term = 0;
  for (int t = 0; t < kThreads; ++t) {
    if (results[t].ok()) {
      ++wins;
      max_won_term = std::max(max_won_term, static_cast<uint64_t>(10 + t));
    } else {
      EXPECT_TRUE(results[t].IsAborted()) << results[t].ToString();
    }
  }
  ASSERT_GE(wins, 1);
  auto loaded = LoadEpochRecord(&store, scope);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().term, max_won_term);
}

// --- writer-side fencing ------------------------------------------------------

TEST(WalWriterFencingTest, DeposedWriterSurfacesFencedAndDrains) {
  cloud::CloudStore store;
  wal::WalWriterOptions w;
  w.stream = store.CreateStream("wal");
  w.group_window_us = 0;
  wal::WalWriter writer(&store, w);
  ASSERT_TRUE(writer.Append(Mutation(1, "a", "1")).ok());
  EXPECT_FALSE(writer.fenced());

  // Promotion elsewhere: the stream moves past this writer's term.
  store.FenceStream(w.stream, writer.term() + 1);

  const Status s = writer.Append(Mutation(2, "b", "2"));
  ASSERT_TRUE(s.IsFenced()) << s.ToString();
  EXPECT_TRUE(writer.fenced());
  EXPECT_GE(writer.fenced_appends(), 1u);
  EXPECT_GE(writer.zombie_drained(), 1u);
  // Drained, not parked: nothing left buffered, nothing acknowledged.
  EXPECT_EQ(writer.BufferedRecords(), 0u);
  EXPECT_EQ(writer.committed_records(), 1u);
  // The latch is permanent.
  EXPECT_TRUE(writer.Append(Mutation(3, "c", "3")).IsFenced());
  EXPECT_TRUE(writer.Flush().IsFenced());
}

TEST(WalWriterFencingTest, ParkedRetryBatchesDrainWhenKickedIntoTheFence) {
  // The zombie-with-parked-batches race: a batch fails (transient error,
  // retry budget exhausted) and parks; the promotion fences the stream
  // while it sits parked; the zombie's next Flush re-kicks it (KickParked)
  // straight into the fence. It must drain — not retry forever, not ack.
  cloud::CloudStoreOptions sopts;
  sopts.retry.max_attempts = 1;
  cloud::CloudStore store(sopts);
  cloud::FaultInjector injector;
  wal::WalWriterOptions w;
  w.stream = store.CreateStream("wal");
  w.group_window_us = 0;
  wal::WalWriter writer(&store, w);
  ASSERT_TRUE(writer.Append(Mutation(1, "a", "1")).ok());

  store.SetFaultInjector(&injector);
  injector.ArmNext(cloud::FaultOp::kAppend, cloud::FaultClass::kTransientError);
  const Status failed = writer.Append(Mutation(2, "b", "2"));
  ASSERT_FALSE(failed.ok());
  ASSERT_FALSE(failed.IsFenced());  // parked on IOError, not yet deposed
  EXPECT_EQ(writer.BufferedRecords(), 1u);

  store.FenceStream(w.stream, writer.term() + 1);
  const Status flushed = writer.Flush();
  ASSERT_TRUE(flushed.IsFenced()) << flushed.ToString();
  EXPECT_TRUE(writer.fenced());
  EXPECT_EQ(writer.BufferedRecords(), 0u);
  EXPECT_GE(writer.zombie_drained(), 1u);
  EXPECT_EQ(writer.committed_records(), 1u);  // the parked batch never acked
}

// --- reader-side epoch boundary -----------------------------------------------

TEST(WalReaderFencingTest, AdvanceTermDropsStaleHeldBatches) {
  cloud::CloudStore store;
  const cloud::StreamId s = store.CreateStream("wal");
  // Term 5's seq 2 lands physically but seq 1 never will (its append was
  // fenced mid-flight): a strict reader holds seq 2 in the gap map.
  ASSERT_TRUE(
      store.Append(s, wal::EncodeFramedBatch(5, 2, {Mutation(2, "b", "2")}))
          .ok());
  wal::WalReader reader(&store, s);
  reader.SeekTo(wal::WalCursor{});  // strict: expect term to open at seq 1
  auto polled = reader.Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());
  EXPECT_EQ(reader.batches_held(), 1u);

  // The promotion publishes term 6: the hold is permanently stale.
  reader.AdvanceTerm(6);
  EXPECT_EQ(reader.batches_held(), 0u);
  EXPECT_GE(reader.batches_deduped(), 1u);

  // The new leader's first batch delivers immediately — no gap outstanding.
  ASSERT_TRUE(
      store.Append(s, wal::EncodeFramedBatch(6, 1, {Mutation(3, "c", "3")}))
          .ok());
  polled = reader.Poll();
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled.value().size(), 1u);
  EXPECT_EQ(polled.value()[0].entry.key, "c");

  // A late-landing duplicate from the dead term is deduped on sight, never
  // parked.
  ASSERT_TRUE(
      store.Append(s, wal::EncodeFramedBatch(5, 1, {Mutation(1, "a", "1")}))
          .ok());
  polled = reader.Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value().empty());
  EXPECT_EQ(reader.batches_held(), 0u);

  // Idempotent; lower terms ignored.
  reader.AdvanceTerm(6);
  reader.AdvanceTerm(2);
  ASSERT_TRUE(
      store.Append(s, wal::EncodeFramedBatch(6, 2, {Mutation(4, "d", "4")}))
          .ok());
  polled = reader.Poll();
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled.value().size(), 1u);
}

// --- cluster promotion --------------------------------------------------------

struct FailoverFixture {
  explicit FailoverFixture(int partitions = 2, int followers = 2) {
    store = std::make_unique<cloud::CloudStore>();
    ClusterOptions opts;
    opts.partitions = partitions;
    opts.followers_per_partition = followers;
    opts.leader.tree.max_leaf_entries = 32;
    opts.leader.flush_group_pages = 8;
    cluster = std::make_unique<Bg3Cluster>(store.get(), opts);
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<Bg3Cluster> cluster;
};

TEST(ClusterFailoverTest, PromotionKeepsEveryAckedWrite) {
  FailoverFixture f;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  std::vector<uint64_t> terms_before;
  for (int p = 0; p < f.cluster->partitions(); ++p) {
    terms_before.push_back(f.cluster->term(p));
    ASSERT_TRUE(f.cluster->PromoteFollower(p, 0).ok()) << "partition " << p;
  }
  EXPECT_EQ(f.cluster->promotions(), 2u);
  for (int p = 0; p < f.cluster->partitions(); ++p) {
    EXPECT_GT(f.cluster->term(p), terms_before[p]) << "partition " << p;
    EXPECT_NE(f.cluster->zombie(p), nullptr);
  }
  // Zero acknowledged-write loss across the failover, on both read paths.
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
    EXPECT_EQ(f.cluster->GetFromLeader(Key(i)).value(),
              "v" + std::to_string(i))
        << i;
  }
  // The new leaders accept writes at the new term.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v2").ok());
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v2") << i;
  }
}

TEST(ClusterFailoverTest, ZombieWritesAreFencedAndNeverVisible) {
  FailoverFixture f(/*partitions=*/1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "good").ok());
  }
  ASSERT_TRUE(f.cluster->PromoteFollower(0, 0).ok());
  RwNode* zombie = f.cluster->zombie(0);
  ASSERT_NE(zombie, nullptr);

  // The deposed leader resumes and tries to write: the WAL rejects its
  // batches, so no follower (and no future node) ever sees them.
  EXPECT_FALSE(zombie->Put(Key(0), "poison").ok());
  BG3_IGNORE_STATUS(zombie->wal_writer()->Flush());
  EXPECT_TRUE(zombie->wal_writer()->fenced());
  EXPECT_GE(f.cluster->fenced_appends(), 1u);
  EXPECT_GE(f.cluster->zombie_drained(), 1u);
  EXPECT_EQ(f.cluster->Get(Key(0)).value(), "good");
  EXPECT_EQ(f.cluster->GetFromLeader(Key(0)).value(), "good");

  // Reaping folds the zombie's counters into the cluster totals.
  const uint64_t fenced_total = f.cluster->fenced_appends();
  f.cluster->ReapZombie(0);
  EXPECT_EQ(f.cluster->zombie(0), nullptr);
  EXPECT_EQ(f.cluster->fenced_appends(), fenced_total);
}

TEST(ClusterFailoverTest, ZombieCheckpointPublishesNoImages) {
  // A deposed leader whose WAL writer has nothing in flight flushes its
  // pages cleanly; its commit must still publish none of their images, or
  // they would overwrite the new leader's in the shared mapping table.
  FailoverFixture f(/*partitions=*/1, /*followers=*/2);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(f.cluster->Put(Key(i), "v1").ok());
  ASSERT_TRUE(f.cluster->PromoteFollower(0, 0).ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(f.cluster->Put(Key(i), "v2").ok());
  ASSERT_TRUE(f.cluster->checkpointer(0)->CheckpointNow().ok());

  const std::string scope = WalScope(f.store->CreateStream("cluster-p0-wal"));
  const uint64_t epoch =
      LoadCheckpoint(f.store.get(), scope).value().manifest.epoch;
  Checkpointer* zombie = f.cluster->zombie(0)->checkpointer();
  const Status s = zombie->CheckpointNow();
  EXPECT_TRUE(s.IsFenced()) << s.ToString();
  EXPECT_GT(zombie->stats().pages_flushed.Get(), 0u)
      << "the zombie must get as far as flushing its stale pages";
  EXPECT_EQ(LoadCheckpoint(f.store.get(), scope).value().manifest.epoch, epoch)
      << "no manifest from the deposed term";

  // Both recovery paths rebuild from the mapping table: each sees v2.
  ASSERT_TRUE(f.cluster->CrashAndRecoverLeader(0).ok());
  ASSERT_TRUE(f.cluster->RestartFollower(0, 1).ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(f.cluster->GetFromLeader(Key(i)).value(), "v2") << i;
    EXPECT_EQ(f.cluster->follower(0, 1)->Get(1, Key(i)).value(), "v2") << i;
  }
}

TEST(ClusterFailoverTest, HealthReportsRolesTermsAndCursors) {
  FailoverFixture f(/*partitions=*/2, /*followers=*/2);
  ASSERT_TRUE(f.cluster->Put(Key(1), "v").ok());
  ASSERT_TRUE(f.cluster->PromoteFollower(0, 0).ok());

  auto health = f.cluster->Health();
  ASSERT_EQ(health.size(), 2u);
  ASSERT_GE(health[0].nodes.size(), 4u);  // leader + 2 followers + zombie
  EXPECT_EQ(health[0].nodes[0].role, "leader");
  EXPECT_EQ(health[0].nodes[0].term, f.cluster->term(0));
  EXPECT_EQ(health[0].nodes.back().role, "zombie");
  EXPECT_LT(health[0].nodes.back().term, health[0].nodes[0].term);

  const std::string json = f.cluster->HealthJson();
  EXPECT_NE(json.find("\"partitions\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"role\": \"leader\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"role\": \"follower\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"role\": \"zombie\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"term\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"committed\": "), std::string::npos) << json;

  // The cluster self-registers with the debug server: /healthz embeds the
  // same per-partition report, and destruction unregisters it.
  const std::string healthz = DebugServer::HandleRequest("/healthz");
  EXPECT_NE(healthz.find("\"status\": \"ok\""), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"partitions\": ["), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"role\": \"zombie\""), std::string::npos)
      << healthz;
  f.cluster.reset();
  const std::string after = DebugServer::HandleRequest("/healthz");
  EXPECT_EQ(after.find("\"partitions\""), std::string::npos) << after;
}

TEST(ClusterFailoverTest, FreshFollowerBootstrapsAcrossTheEpochBoundary) {
  // A follower starts its checkpoint SeekTo against the old term's manifest
  // while a promotion lands: its first poll crosses the epoch boundary and
  // must deliver the new term's batches without replaying stale ones.
  FailoverFixture f(/*partitions=*/1, /*followers=*/2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v1").ok());
  }
  ASSERT_TRUE(f.cluster->checkpointer(0)->CheckpointNow().ok());

  // Replace follower 1 but do NOT read from it: it stays unbootstrapped,
  // holding only the pre-promotion manifest to seek from.
  ASSERT_TRUE(f.cluster->RestartFollower(0, 1).ok());
  // Promotion via follower 0 happens while follower 1 is mid-bootstrap.
  ASSERT_TRUE(f.cluster->PromoteFollower(0, 0).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v2").ok());
  }
  // Follower 1's first read bootstraps now — old-term manifest, new-term
  // suffix — and must see every post-promotion write.
  RoNode* late = f.cluster->follower(0, 1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(late->Get(1, Key(i)).value(), "v2") << i;
  }
  EXPECT_TRUE(late->ResumedFromCheckpoint());
}

TEST(ClusterFailoverTest, SequentialPromotionsStrictlyRaiseTheTerm) {
  FailoverFixture f(/*partitions=*/1);
  ASSERT_TRUE(f.cluster->Put(Key(1), "v").ok());
  uint64_t prev = f.cluster->term(0);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(f.cluster->PromoteFollower(0, round % 2).ok()) << round;
    EXPECT_GT(f.cluster->term(0), prev) << round;
    prev = f.cluster->term(0);
    EXPECT_EQ(f.cluster->Get(Key(1)).value(), "v") << round;
    ASSERT_TRUE(f.cluster->Put(Key(1), "v").ok());
  }
  EXPECT_EQ(f.cluster->promotions(), 3u);
  // The durable epoch record tracked every round.
  auto rec = LoadEpochRecord(
      f.store.get(), WalScope(f.store->CreateStream("cluster-p0-wal")));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().epoch, 3u);
  EXPECT_EQ(rec.value().term, f.cluster->term(0));
}

// --- rolling restart ----------------------------------------------------------

TEST(RollingRestartTest, FollowerRestartPreWarmsFromPeerResidentSet) {
  FailoverFixture f(/*partitions=*/1, /*followers=*/2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v").ok());
  }
  // Warm both followers' caches through reads.
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(f.cluster->Get(Key(i)).ok());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(f.cluster->Get(Key(i)).ok());
  ASSERT_GT(f.cluster->follower(0, 1)->CachedPageCount(), 0u);

  ASSERT_TRUE(f.cluster->RestartFollower(0, 0).ok());
  // The replacement is warm before serving a single read: its pages came
  // from the peer's resident set, not from demand misses.
  EXPECT_GT(f.cluster->follower(0, 0)->CachedPageCount(), 0u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v") << i;
  }
}

TEST(RollingRestartTest, WholeClusterSurvivesARollingRestart) {
  FailoverFixture f(/*partitions=*/2, /*followers=*/2);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 400; i += 7) ASSERT_TRUE(f.cluster->Get(Key(i)).ok());
  std::vector<uint64_t> terms_before;
  for (int p = 0; p < f.cluster->partitions(); ++p) {
    terms_before.push_back(f.cluster->term(p));
    ASSERT_TRUE(f.cluster->checkpointer(p)->CheckpointNow().ok());
  }

  ASSERT_TRUE(f.cluster->RollingRestart().ok());

  EXPECT_EQ(f.cluster->promotions(),
            static_cast<uint64_t>(f.cluster->partitions()));
  for (int p = 0; p < f.cluster->partitions(); ++p) {
    EXPECT_GT(f.cluster->term(p), terms_before[p]) << "partition " << p;
    EXPECT_EQ(f.cluster->zombie(p), nullptr) << "partition " << p;
  }
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v2").ok());
  }
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v2") << i;
  }
}

// --- promotion replay bound -------------------------------------------------

TEST(ClusterFailoverTest, MutationTriggerBoundsColdPromotionReplay) {
  // Every group flush publishes a manifest, so flush_group_mutations bounds
  // the suffix a cold promotion candidate replays by record count: it stays
  // flat while the backlog grows 16x.
  const int scales[3] = {1, 4, 16};
  uint64_t replayed[3] = {0, 0, 0};
  uint64_t total[3] = {0, 0, 0};
  for (int s = 0; s < 3; ++s) {
    cloud::CloudStore store;
    ClusterOptions opts;
    opts.partitions = 1;
    opts.followers_per_partition = 2;
    opts.leader.tree.max_leaf_entries = 64;
    opts.leader.flush_group_pages = 1'000'000;
    opts.leader.flush_group_mutations = 64;
    Bg3Cluster cluster(&store, opts);
    for (int i = 0; i < 400 * scales[s]; ++i) {
      ASSERT_TRUE(cluster.Put(Key(i), "backlog-payload-backlog").ok());
    }
    ASSERT_TRUE(cluster.RestartFollower(0, 0).ok());  // cold candidate
    RoNode* candidate = cluster.follower(0, 0);
    ASSERT_TRUE(candidate->PollWal().ok());
    EXPECT_TRUE(candidate->ResumedFromCheckpoint()) << scales[s];
    replayed[s] = candidate->WalBytesReplayed();
    total[s] = store.TotalBytes(store.CreateStream("cluster-p0-wal"));
    ASSERT_TRUE(cluster.PromoteFollower(0, 0).ok());
    EXPECT_EQ(cluster.Get(Key(0)).value(), "backlog-payload-backlog");
  }
  EXPECT_GT(total[2], 12 * total[0]) << "the backlog must actually grow";
  for (int s = 0; s < 3; ++s) {
    EXPECT_LT(replayed[s], total[0] / 2) << "scale " << scales[s];
  }
}

// --- chaos harness ------------------------------------------------------------

TEST(ChaosScheduleTest, SameSeedSameSchedule) {
  ChaosOptions opts;
  opts.seed = 0xFEED;
  opts.steps = 200;
  const auto a = GenerateChaosSchedule(opts);
  const auto b = GenerateChaosSchedule(opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].partition, b[i].partition) << i;
    EXPECT_EQ(a[i].key, b[i].key) << i;
  }
  opts.seed = 0xBEEF;
  const auto c = GenerateChaosSchedule(opts);
  size_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff += (a[i].kind != c[i].kind || a[i].key != c[i].key) ? 1 : 0;
  }
  EXPECT_GT(diff, 0u);
}

// The three fixed seeds the failover-smoke CI job pins. Keep in sync with
// .github/workflows/ci.yml.
class ChaosSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSeedTest, LinearizableAcrossKillPromoteZombieResume) {
  ChaosOptions opts;
  opts.seed = test::AnnouncedSeed("ChaosSeed", GetParam());
  opts.steps = 400;
  auto report = RunChaos(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ChaosReport& r = report.value();
  SCOPED_TRACE(r.ToString());
  EXPECT_GT(r.puts_acked, 0u);
  EXPECT_GT(r.promotions, 0u);
  EXPECT_GT(r.verified_keys, 0u);
  EXPECT_GT(r.final_term, 0u);
  // Every zombie the schedule resurrected was isolated by the fence.
  EXPECT_EQ(r.zombie_writes_rejected, r.zombie_resumes);
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, ChaosSeedTest,
                         ::testing::Values(0xB64001ull, 0xB64002ull,
                                           0xB64003ull));

TEST(ChaosSeedTest, SubstrateFaultsUnderneathNodeChaos) {
  ChaosOptions opts;
  opts.seed = test::AnnouncedSeed("ChaosSubstrate", 0xB64004ull);
  opts.steps = 250;
  opts.transient_error_p = 0.01;
  auto report = RunChaos(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().puts_acked, 0u);
}

}  // namespace
}  // namespace bg3::replication
