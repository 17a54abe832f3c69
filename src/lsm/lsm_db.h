#ifndef BG3_LSM_LSM_DB_H_
#define BG3_LSM_LSM_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/metrics.h"
#include "common/result.h"
#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "lsm/version.h"

namespace bg3::lsm {

struct LsmOptions {
  cloud::StreamId stream = 0;
  size_t memtable_bytes = 1u << 20;
  int max_levels = 6;
  CompactionOptions compaction;
};

struct LsmStats {
  Counter puts;
  Counter gets;
  /// SSTables probed per Get beyond the first — the result-combination
  /// overhead of the multi-layer design (§2.4).
  Counter tables_probed;
  Counter memtable_flushes;
};

/// One LSM-tree shard: memtable + leveled SSTables on the cloud store.
/// Thread safe via a shard-wide mutex; production deployments shard by key
/// (see ShardedLsm below), which is where LSM write scalability comes from.
class LsmDb {
 public:
  LsmDb(cloud::CloudStore* store, const LsmOptions& options);

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  Result<std::string> Get(const Slice& key);

  /// Ordered scan of [start, end) up to `limit` records (tombstones
  /// filtered). end empty = unbounded.
  Status Scan(const Slice& start, const Slice& end, size_t limit,
              std::vector<KvRecord>* out);

  /// Forces the memtable out and compacts to invariant.
  Status Flush();

  uint64_t TotalDataBytes() const;
  LsmStats& stats() { return stats_; }
  CompactionStats& compaction_stats() { return compactor_.stats(); }

 private:
  Status MaybeFlushLocked();

  cloud::CloudStore* const store_;
  const LsmOptions opts_;

  mutable std::mutex mu_;
  MemTable mem_;
  VersionSet versions_;
  Compactor compactor_;
  LsmStats stats_;
};

/// Hash-sharded LSM front end, modelling the distributed KV layer of
/// ByteGraph (§2.1's "distributed LSM-based KV storage engine"): writes
/// scale across shards while each read still pays the per-shard multi-level
/// cost.
class ShardedLsm {
 public:
  ShardedLsm(cloud::CloudStore* store, const LsmOptions& options,
             size_t shards);

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  Result<std::string> Get(const Slice& key);
  Status Flush();

  uint64_t TotalDataBytes() const;
  uint64_t TotalCompactionBytesWritten() const;
  LsmDb* shard(size_t i) { return shards_[i].get(); }

 private:
  LsmDb* Route(const Slice& key);

  std::vector<std::unique_ptr<LsmDb>> shards_;
};

}  // namespace bg3::lsm

#endif  // BG3_LSM_LSM_DB_H_
