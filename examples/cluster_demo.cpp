// Full deployment topology demo (§3.1 / Fig. 2): hashed multi-RW
// partitions over one shared store, strongly consistent follower reads, a
// leader crash + recovery from shared storage, and WAL truncation bounded
// by the slowest follower.
//
//   $ ./cluster_demo
#include <cstdio>

#include "cloud/cloud_store.h"
#include "replication/cluster.h"

int main() {
  using namespace bg3;

  cloud::CloudStoreOptions store_opts;
  store_opts.extent_capacity = 16 << 10;  // small extents: visible truncation
  cloud::CloudStore store(store_opts);

  replication::ClusterOptions opts;
  opts.partitions = 3;               // 3 RW nodes, writes hash-distributed
  opts.followers_per_partition = 2;  // 2 RO nodes each
  opts.leader.flush_group_pages = 16;
  replication::Bg3Cluster cluster(&store, opts);

  printf("cluster: %d RW partitions x %d followers over one shared store\n",
         opts.partitions, opts.followers_per_partition);

  const int kKeys = 5'000;
  for (int i = 0; i < kKeys; ++i) {
    BG3_CHECK(cluster.Put("user:" + std::to_string(i), "profile-v1").ok());
  }
  int follower_hits = 0;
  for (int i = 0; i < kKeys; i += 7) {
    follower_hits += cluster.Get("user:" + std::to_string(i)).ok() ? 1 : 0;
  }
  printf("follower reads (strongly consistent): %d/%d visible\n",
         follower_hits, (kKeys + 6) / 7);

  // Kill and rebuild partition 1's leader purely from shared storage.
  printf("crashing leader of partition 1...\n");
  if (!cluster.CrashAndRecoverLeader(1).ok()) return 1;
  int intact = 0;
  for (int i = 0; i < kKeys; ++i) {
    intact += cluster.GetFromLeader("user:" + std::to_string(i)).ok() ? 1 : 0;
  }
  printf("after recovery: %d/%d keys intact across all leaders\n", intact,
         kKeys);

  // Writes keep flowing; followers keep following.
  for (int i = 0; i < kKeys; ++i) {
    BG3_CHECK(cluster.Put("user:" + std::to_string(i), "profile-v2").ok());
  }
  printf("post-recovery update visible on follower: %s\n",
         cluster.Get("user:42").value().c_str());

  // Globally ordered scan across the hash partitions.
  std::vector<bwtree::Entry> page;
  BG3_CHECK(cluster.Scan("user:100", "user:101", 5, &page).ok());
  printf("merged scan from 'user:100': %zu keys, first=%s\n", page.size(),
         page.empty() ? "-" : page.front().key.c_str());

  // WAL truncation: checkpoint everywhere, let followers catch up, drop the
  // consumed prefix.
  BG3_CHECK(cluster.FlushAll().ok());
  for (int p = 0; p < opts.partitions; ++p) {
    for (int f = 0; f < opts.followers_per_partition; ++f) {
      BG3_CHECK(cluster.follower(p, f)->PollWal().ok());
    }
  }
  const uint64_t before = store.TotalBytes();
  size_t freed = 0;
  for (int p = 0; p < opts.partitions; ++p) freed += cluster.TruncateWal(p);
  printf("WAL truncation: %zu extents freed (%.1f KB -> %.1f KB total)\n",
         freed, before / 1e3, store.TotalBytes() / 1e3);
  return 0;
}
