// Tests of the full BG3 deployment topology (§3.1): hashed multi-RW
// partitions, follower pools, leader crash recovery, WAL truncation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "replication/cluster.h"
#include "test_seed.h"

namespace bg3::replication {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct ClusterFixture {
  explicit ClusterFixture(int partitions = 3, int followers = 2,
                          size_t max_leaf_entries = 32) {
    store = std::make_unique<cloud::CloudStore>();
    ClusterOptions opts;
    opts.partitions = partitions;
    opts.followers_per_partition = followers;
    opts.leader.tree.max_leaf_entries = max_leaf_entries;
    opts.leader.flush_group_pages = 8;
    cluster = std::make_unique<Bg3Cluster>(store.get(), opts);
  }
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<Bg3Cluster> cluster;
};

TEST(ClusterTest, WritesSpreadAcrossPartitions) {
  ClusterFixture f;
  std::vector<int> hits(f.cluster->partitions(), 0);
  for (int i = 0; i < 300; ++i) ++hits[f.cluster->PartitionOf(Key(i))];
  for (int p = 0; p < f.cluster->partitions(); ++p) {
    EXPECT_GT(hits[p], 50) << "partition " << p << " starved";
  }
}

TEST(ClusterTest, FollowerReadsAreStronglyConsistent) {
  ClusterFixture f;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v" + std::to_string(i)).ok());
    // Read-your-write through a follower, immediately.
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
}

TEST(ClusterTest, LeaderAndFollowerAgree) {
  ClusterFixture f;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), std::to_string(i)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(f.cluster->Get(Key(i)).value(),
              f.cluster->GetFromLeader(Key(i)).value());
  }
}

TEST(ClusterTest, DeletesReplicateToFollowers) {
  ClusterFixture f;
  ASSERT_TRUE(f.cluster->Put("k", "v").ok());
  ASSERT_TRUE(f.cluster->Delete("k").ok());
  EXPECT_TRUE(f.cluster->Get("k").status().IsNotFound());
}

TEST(ClusterTest, MergedScanIsGloballyOrdered) {
  ClusterFixture f;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), std::to_string(i)).ok());
  }
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.cluster->Scan(Key(50), Key(150), 1000, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out.front().key, Key(50));
  EXPECT_EQ(out.back().key, Key(149));
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);
  }
}

TEST(ClusterTest, ScanLimitAcrossPartitions) {
  ClusterFixture f;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.cluster->Put(Key(i), "v").ok());
  std::vector<bwtree::Entry> out;
  ASSERT_TRUE(f.cluster->Scan("", "", 17, &out).ok());
  EXPECT_EQ(out.size(), 17u);
  EXPECT_EQ(out.front().key, Key(0));
}

TEST(ClusterTest, LeaderCrashRecoveryKeepsServing) {
  ClusterFixture f;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v1").ok());
  }
  for (int p = 0; p < f.cluster->partitions(); ++p) {
    ASSERT_TRUE(f.cluster->CrashAndRecoverLeader(p).ok());
  }
  // All data intact on leaders and followers.
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(f.cluster->GetFromLeader(Key(i)).value(), "v1") << i;
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v1") << i;
  }
  // Writes continue post-recovery.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.cluster->Put(Key(i), "v2").ok());
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), "v2") << i;
  }
}

TEST(ClusterTest, WalTruncationFreesSpaceWithoutBreakingReaders) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 4096;  // many small WAL extents
  auto store = std::make_unique<cloud::CloudStore>(copts);
  ClusterOptions opts;
  opts.partitions = 1;
  opts.followers_per_partition = 2;
  opts.leader.flush_group_pages = 8;
  Bg3Cluster cluster(store.get(), opts);

  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(cluster.Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // Followers consume the log; leader checkpoints.
  for (int i = 0; i < 2000; i += 97) {
    ASSERT_TRUE(cluster.Get(Key(i)).ok());
  }
  ASSERT_TRUE(cluster.FlushAll().ok());
  (void)cluster.follower(0, 0)->PollWal();
  (void)cluster.follower(0, 1)->PollWal();

  const size_t freed = cluster.TruncateWal(0);
  EXPECT_GT(freed, 0u);

  // Existing followers unaffected.
  for (int i = 0; i < 2000; i += 53) {
    EXPECT_EQ(cluster.Get(Key(i)).value(), "v" + std::to_string(i)) << i;
  }
  // A brand-new follower bootstraps from the manifest despite the missing
  // WAL prefix.
  RoNodeOptions ro;
  ro.wal_stream = store->CreateStream("cluster-p0-wal");  // existing id
  RoNode fresh(store.get(), ro);
  for (int i = 0; i < 2000; i += 71) {
    EXPECT_EQ(fresh.Get(1, Key(i)).value(), "v" + std::to_string(i)) << i;
  }
  // Leader recovery also works from the truncated WAL.
  ASSERT_TRUE(cluster.CrashAndRecoverLeader(0).ok());
  for (int i = 0; i < 2000; i += 131) {
    EXPECT_EQ(cluster.GetFromLeader(Key(i)).value(), "v" + std::to_string(i));
  }
}

TEST(ClusterTest, TruncationBlockedByLaggingFollower) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 4096;
  auto store = std::make_unique<cloud::CloudStore>(copts);
  ClusterOptions opts;
  opts.partitions = 1;
  opts.followers_per_partition = 2;
  Bg3Cluster cluster(store.get(), opts);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(cluster.Put(Key(i), "v").ok());
  ASSERT_TRUE(cluster.FlushAll().ok());
  // Only follower 0 polls; follower 1 never did -> truncation refuses.
  (void)cluster.follower(0, 0)->PollWal();
  EXPECT_EQ(cluster.TruncateWal(0), 0u);
}

// --- fault matrix: every leader crashes and recovers under each injected
// substrate failure mode, with followers serving throughout. No
// acknowledged write may be lost anywhere in the topology.

class ClusterFaultMatrixTest
    : public ::testing::TestWithParam<cloud::FaultClass> {};

TEST_P(ClusterFaultMatrixTest, EveryLeaderRecoversAndFollowersConverge) {
  const cloud::FaultClass cls = GetParam();
  const std::string name =
      std::string("ClusterFaultMatrix/") + cloud::FaultClassName(cls);
  cloud::FaultInjectorOptions fopts;
  fopts.seed = test::AnnouncedSeed(name.c_str(),
                                   0xC1A57E + static_cast<uint64_t>(cls));
  ClusterOptions copts;
  copts.partitions = 2;
  copts.followers_per_partition = 2;
  copts.leader.tree.max_leaf_entries = 32;
  copts.leader.flush_group_pages = 8;
  cloud::CloudStoreOptions sopts;
  switch (cls) {
    case cloud::FaultClass::kTransientError:
      fopts.transient_error_p = 0.02;
      break;
    case cloud::FaultClass::kLatencySpike:
      fopts.latency_spike_p = 0.20;
      break;
    case cloud::FaultClass::kTornAppend:
      fopts.torn_append_p = 0.02;
      break;
    case cloud::FaultClass::kCorruptRead:
      // Storage reads are the rarest op in this topology (leaders serve
      // from memory): a higher rate makes sure the class fires, and a
      // deeper budget keeps exhaustion negligible (0.15^6).
      fopts.corrupt_read_p = 0.15;
      sopts.retry.max_attempts = 6;
      break;
  }
  cloud::FaultInjector fi(fopts);
  auto store = std::make_unique<cloud::CloudStore>(sopts);
  Bg3Cluster cluster(store.get(), copts);
  store->SetFaultInjector(&fi);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.Put(Key(i), "v" + std::to_string(i)).ok())
        << "i=" << i << " " << fi.ToString();
  }
  for (int p = 0; p < cluster.partitions(); ++p) {
    ASSERT_TRUE(cluster.CrashAndRecoverLeader(p).ok())
        << "partition " << p << " " << fi.ToString();
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(cluster.GetFromLeader(Key(i)).value(), "v" + std::to_string(i))
        << "i=" << i << " " << fi.ToString();
    EXPECT_EQ(cluster.Get(Key(i)).value(), "v" + std::to_string(i))
        << "i=" << i << " " << fi.ToString();
  }
  // Writes continue under the same fault schedule after recovery.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.Put(Key(i), "v2").ok())
        << "i=" << i << " " << fi.ToString();
    EXPECT_EQ(cluster.Get(Key(i)).value(), "v2") << fi.ToString();
  }
  EXPECT_GT(store->stats().injected_faults.Get(), 0u)
      << "matrix must actually exercise " << cloud::FaultClassName(cls);
  EXPECT_EQ(store->stats().retry_exhausted.Get(), 0u) << fi.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultClasses, ClusterFaultMatrixTest,
    ::testing::Values(cloud::FaultClass::kTransientError,
                      cloud::FaultClass::kLatencySpike,
                      cloud::FaultClass::kTornAppend,
                      cloud::FaultClass::kCorruptRead),
    [](const ::testing::TestParamInfo<cloud::FaultClass>& info) {
      return cloud::FaultClassName(info.param);
    });

TEST(ClusterTest, ConcurrentWritersAndFollowerReaders) {
  ClusterFixture f(/*partitions=*/2, /*followers=*/2);
  std::thread writer([&] {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(f.cluster->Put(Key(i), std::to_string(i)).ok());
    }
  });
  std::thread reader([&] {
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 1000; i += 37) {
        auto v = f.cluster->Get(Key(i));
        if (v.ok()) {
          EXPECT_EQ(v.value(), std::to_string(i));
        }
      }
    }
  });
  writer.join();
  reader.join();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(f.cluster->Get(Key(i)).value(), std::to_string(i)) << i;
  }
}

}  // namespace
}  // namespace bg3::replication
