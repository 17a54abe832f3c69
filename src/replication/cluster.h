#ifndef BG3_REPLICATION_CLUSTER_H_
#define BG3_REPLICATION_CLUSTER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/metrics.h"
#include "replication/checkpoint.h"
#include "replication/ro_node.h"
#include "replication/rw_node.h"

namespace bg3::replication {

struct ClusterOptions {
  /// "It's feasible to deploy multiple RW nodes, as we can distribute write
  /// requests across distinct RW nodes using hashing" (§3.1).
  int partitions = 2;
  /// RO nodes per partition (the 1M1F / 1M2F / ... setups of Fig. 14).
  int followers_per_partition = 1;

  /// Template of every partition leader; its tree id and streams are
  /// assigned per partition. The leader's Checkpointer (`checkpoint`)
  /// publishes the wal<stream>-scope manifests leader recovery and fresh
  /// followers resume from, so they replay only the WAL suffix and
  /// TruncateWal can reclaim the covered prefix. Group flushes run it
  /// synchronously; background threads run only after StartCheckpointers().
  RwNodeOptions leader;
  RoNodeOptions ro;  ///< template; wal_stream assigned per partition.
};

/// A full BG3 deployment over one shared cloud store (Fig. 2): hashed write
/// partitions, each a RW node with its own WAL and Bw-tree, replicated to a
/// pool of strongly consistent RO nodes; plus the operational machinery the
/// topology needs — leader crash recovery and WAL truncation bounded by the
/// slowest follower.
class Bg3Cluster {
 public:
  Bg3Cluster(cloud::CloudStore* store, const ClusterOptions& options);

  Bg3Cluster(const Bg3Cluster&) = delete;
  Bg3Cluster& operator=(const Bg3Cluster&) = delete;

  // --- data path -------------------------------------------------------------
  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);

  /// Strongly consistent read served by a follower (round-robin across the
  /// key's partition pool).
  Result<std::string> Get(const Slice& key);
  /// Read served by the partition leader.
  Result<std::string> GetFromLeader(const Slice& key);

  /// Globally ordered scan of [start, end): per-partition scans merged
  /// (keys are hash-partitioned, so every partition may hold range pieces).
  Status Scan(const Slice& start_key, const Slice& end_key, size_t limit,
              std::vector<bwtree::Entry>* out);

  // --- operations --------------------------------------------------------------
  /// Checkpoints every partition leader (CheckpointNow on each).
  Status FlushAll();

  /// Simulates a leader crash on `partition` and rebuilds it from shared
  /// storage (manifest + WAL). Followers keep serving throughout.
  Status CrashAndRecoverLeader(int partition);

  // --- failover (DESIGN.md §5.10) ------------------------------------------
  /// Promotes follower `follower_index` of `partition` to RW leader:
  /// allocates a term past every term ever observed, CAS-publishes the
  /// epoch record (the double-promotion loser fails here with Aborted),
  /// fences the WAL stream at the new term — from that instant the old
  /// leader's in-flight pipelined groups land nowhere — catches the
  /// follower up to the now-final WAL tail, drops stale-term holds, and
  /// reopens the follower's state as the leader (RwNode::FromExport: its
  /// cached pages as they are, untouched ones demand-paged), whose
  /// install-time cut publishes a manifest at the promotion point. The old
  /// leader's checkpointer thread is stopped once the term is crowned. The
  /// old leader is *not* destroyed: it becomes the partition's zombie
  /// (`zombie(partition)`), still alive and still trying to append, which
  /// is exactly the failure mode term fencing exists for. The promoted
  /// follower's pool slot is refilled with a fresh node bootstrapped from
  /// the checkpoint manifest (suffix-only replay).
  Status PromoteFollower(int partition, int follower_index = 0);

  /// The deposed leader of the latest PromoteFollower on `partition`
  /// (nullptr when none). Tests poke it — Put/Flush on a zombie surface
  /// Status::Fenced and drain its pipeline. ReapZombie destroys it, folding
  /// its fenced-append counters into the cluster totals.
  RwNode* zombie(int partition) { return parts_[partition]->zombie.get(); }
  void ReapZombie(int partition);

  /// Tears down follower `index` of `partition` and rebuilds it pre-warmed
  /// from a peer follower's resident page set (its own set, captured before
  /// teardown, when the pool has no peer) instead of a cold-storage sweep.
  /// The rest of the pool keeps serving throughout.
  Status RestartFollower(int partition, int index);

  /// Orchestrated whole-cluster restart: per partition, each follower is
  /// restarted one at a time (RestartFollower) and the leader is failed
  /// over *last* via PromoteFollower, so the partition is never without a
  /// serving majority and the write outage is one promotion wide.
  Status RollingRestart();

  // --- failover telemetry ---------------------------------------------------
  /// Promotions completed.
  uint64_t promotions() const { return promotions_.Get(); }
  /// Fenced-append rejections / records drained across every deposed
  /// leader, live zombies included.
  uint64_t fenced_appends() const;
  uint64_t zombie_drained() const;
  /// Current leadership term of `partition`.
  uint64_t term(int partition) const {
    return parts_[partition]->term.load(std::memory_order_relaxed);
  }

  /// One node's health entry (the /healthz payload, DESIGN.md §5.10).
  struct NodeHealth {
    std::string role;  ///< "leader" | "follower" | "zombie"
    uint64_t term = 0;           ///< leadership term (leader/zombie only).
    wal::WalCursor committed;    ///< leader: committed WAL cursor.
    cloud::PagePointer cursor;   ///< follower: WAL consume position.
  };
  struct PartitionHealth {
    int partition = 0;
    std::vector<NodeHealth> nodes;
  };
  std::vector<PartitionHealth> Health() const;
  /// Health() rendered as the JSON fragment the debug server's /healthz
  /// embeds: `"partitions": [...]`.
  std::string HealthJson() const;

  /// Frees the WAL extents the leader's reclaim horizon no longer pins,
  /// with the slowest follower's cursor as the reader floor (fresh
  /// followers bootstrap from a manifest). Returns extents freed.
  size_t TruncateWal(int partition);

  // --- introspection -------------------------------------------------------------
  /// Starts/stops every current leader's checkpoint thread. A leader that
  /// replaces one later (recovery, promotion) starts with its thread off.
  void StartCheckpointers();
  void StopCheckpointers();

  int partitions() const { return static_cast<int>(parts_.size()); }
  RwNode* leader(int partition) { return parts_[partition]->leader.get(); }
  /// The partition leader's checkpointer.
  Checkpointer* checkpointer(int partition) {
    return parts_[partition]->leader->checkpointer();
  }
  RoNode* follower(int partition, int index) {
    return parts_[partition]->followers[index].get();
  }
  int PartitionOf(const Slice& key) const;

  ~Bg3Cluster();

 private:
  struct Partition {
    bwtree::TreeId tree_id = 0;
    cloud::StreamId wal_stream = 0;
    std::unique_ptr<RwNode> leader;
    std::unique_ptr<RwNode> zombie;  ///< latest deposed leader, until reaped.
    std::vector<std::unique_ptr<RoNode>> followers;
    /// Current leadership term (atomic: read by metric callbacks / Health()
    /// while promotions swap the leader).
    std::atomic<uint64_t> term{0};
    /// Fenced-append counters folded out of reaped zombies (guarded by
    /// zombie_mu_).
    uint64_t retired_fenced = 0;
    uint64_t retired_drained = 0;
  };

  RwNodeOptions LeaderOptions(const Partition& part) const;
  std::unique_ptr<RoNode> MakeFollower(const Partition& part, int index) const;
  void RegisterMetrics();

  cloud::CloudStore* const store_;
  const ClusterOptions opts_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::atomic<uint64_t> read_rr_{0};

  /// Guards zombie pointers + retired counters against the metrics
  /// callbacks; leaf lock (never nests inside ranked locks).
  mutable std::mutex zombie_mu_;
  Counter promotions_;
  std::string metrics_prefix_;
  /// Name under which HealthJson() is registered with the debug server's
  /// /healthz (unregistered, as a barrier, in the destructor).
  std::string health_source_;
};

}  // namespace bg3::replication

#endif  // BG3_REPLICATION_CLUSTER_H_
