#ifndef BG3_REPLICATION_RO_NODE_H_
#define BG3_REPLICATION_RO_NODE_H_

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "wal/reader.h"

namespace bg3::replication {

struct RoNodeOptions {
  cloud::StreamId wal_stream = 0;
  /// Page cache capacity; eviction is LRU ("the cache on RO node
  /// dynamically evicts pages from DRAM based on the read requests").
  size_t cache_capacity_pages = 4096;
  /// Simulated WAL tail interval; a record waits Uniform(0, interval) to be
  /// noticed (feeds the leader-follower latency of Figs. 13/14).
  uint64_t poll_interval_us = 50'000;
  /// Pending-log vectors longer than this are merged in place ("we
  /// regularly merge multiple modifications of the same page in the log
  /// area in the background").
  size_t pending_compact_threshold = 128;
  uint64_t seed = 0x20;
  /// Bootstrap from the durable checkpoint manifest when one exists: seek
  /// the WAL reader past the checkpoint cursor so only the suffix is read
  /// (DESIGN.md §5.7). With no checkpoint published (or the manifest
  /// unusable and both slots torn), behavior is the historical full-WAL
  /// replay. Disable to force full replay (bench baselines).
  bool resume_from_checkpoint = true;
};

/// Aggregated RO-node counters.
struct RoNodeStats {
  Counter cache_hits;
  Counter cache_misses;
  Counter wal_mutations;   ///< mutation records consumed from the WAL.
  Counter replayed;        ///< pending records applied onto cached pages.
  Counter discarded;       ///< pending records dropped by checkpoints.
  Counter storage_reads;   ///< base/delta images fetched on cache misses.
  Counter pending_merges;  ///< background pending-log compactions.
  /// WAL polls abandoned after retry exhaustion: the node fell behind and
  /// will catch up once the substrate recovers.
  Counter poll_degraded;
  /// 1 while the node is serving stale-but-consistent state because its
  /// last WAL poll degraded; 0 once a poll fully succeeds again. Exported
  /// as `overload.degraded` so operators see degradation as a level, not
  /// just an episode count (DESIGN.md §5.5).
  Gauge degraded;
};

/// A Read-Only node of §3.4 / Fig. 7: tails the WAL into an in-memory
/// lazy-replay log indexed by page id, serves reads from a page cache, and
/// reconstructs missing pages from the *old* storage mapping plus replay —
/// the mechanism that gives BG3 strong leader-follower consistency without
/// blocking the RW node.
///
/// Thread safe via a single node latch. Every read tails the WAL and then
/// walks its pages under the exclusive hold (Walk), so each read sees every
/// write published before it. Read scaling in Fig. 14 comes from adding RO
/// nodes, as in the paper.
class RoNode {
 public:
  RoNode(cloud::CloudStore* store, const RoNodeOptions& options);
  ~RoNode();

  RoNode(const RoNode&) = delete;
  RoNode& operator=(const RoNode&) = delete;

  /// Consumes newly appended WAL records (route/meta updates, pending-log
  /// growth, checkpoint-based discard); every read does this first.
  Status PollWal();

  /// Strongly consistent point read: reflects every write the RW node
  /// WAL-published before this call. The optional OpContext deadline rides
  /// every store read the node issues on behalf of this request (cache
  /// fills, manifest gets); background catch-up polls stay deadline-free.
  Result<std::string> Get(bwtree::TreeId tree, const Slice& key,
                          const OpContext* ctx = nullptr);

  /// Ordered range scan (multi-hop graph reads on RO nodes).
  Status Scan(bwtree::TreeId tree, const Slice& start_key,
              const Slice& end_key, size_t limit,
              std::vector<bwtree::Entry>* out, const OpContext* ctx = nullptr);

  /// Background maintenance: merge pending logs page by page.
  void CompactPendingLogs();

  /// What building a node's state from shared storage replayed.
  struct ReplayStats {
    /// WAL payload bytes read vs the stream's total: with a checkpoint
    /// resume, only the suffix past the checkpoint cursor.
    uint64_t wal_bytes_replayed = 0;
    uint64_t total_wal_bytes = 0;
    bool resumed_from_checkpoint = false;
    bool checkpoint_fell_back = false;  ///< newest slot torn; other used.
  };

  /// Layout of one tree as of the latest WAL state, for building an RW
  /// node (RwNode::Recover, RwNode::FromExport): every leaf's key range,
  /// and its content or a demand-paged stand-in. A page that is not cached
  /// and whose published image is its whole content (no deltas, same key
  /// range, no newer replayed mutation) is exported non-resident and clean
  /// with its base pointer, without reading it; every other page is built
  /// from storage plus replay. An export thus reads only the pages the WAL
  /// suffix touched.
  struct ExportedTree {
    bwtree::TreeId tree_id = 0;
    std::vector<bwtree::RecoveredPage> pages;  ///< key order.
    bwtree::Lsn max_lsn = 0;                   ///< newest LSN in the WAL.
    wal::WalCursor wal_cursor;  ///< WAL position the export covers through.
    ReplayStats replay;
  };
  Result<ExportedTree> ExportTree(bwtree::TreeId tree);

  size_t PendingRecordCount() const;
  size_t CachedPageCount() const;
  /// Heap bytes the cached pages hold (EntryRun::MemoryBytes summed).
  size_t CacheBytes() const;

  /// WAL position this node has consumed through; the minimum across all
  /// readers bounds safe WAL truncation.
  cloud::PagePointer WalCursor() const;

  /// WAL payload bytes this node has read — with a checkpoint resume,
  /// exactly the replayed suffix (compare to the stream's total bytes for
  /// the replayed_bytes < total_wal_bytes restart assertion).
  uint64_t WalBytesReplayed() const;

  /// True once bootstrap found a usable checkpoint manifest and seeked the
  /// WAL reader past its cursor.
  bool ResumedFromCheckpoint() const;
  /// True when a checkpoint slot held a torn or invalid manifest and the
  /// other slot's was used instead.
  bool CheckpointFellBack() const;

  /// Snapshot of the cache's resident (tree, page) set — what a rolling
  /// restart hands the replacement node so it pre-warms the peer's working
  /// set instead of sweeping cold storage (DESIGN.md §5.10).
  std::vector<std::pair<bwtree::TreeId, bwtree::PageId>> ResidentPages() const;

  /// Targeted pre-warm: materializes exactly the listed pages (skipping
  /// ones already cached or no longer present in the layout). Returns how
  /// many were newly materialized.
  Result<size_t> WarmPageSet(
      const std::vector<std::pair<bwtree::TreeId, bwtree::PageId>>& pages);

  /// Failover epoch boundary: a promotion published `term`, so stale-term
  /// WAL batches still held in the reader's seq-gap map are dropped and
  /// future stale arrivals are deduped on sight (wal::WalReader::AdvanceTerm).
  void AdvanceWalTerm(uint64_t term);

  /// Simulated leader-follower latency samples (publish + poll + log read).
  Histogram& sync_latency() { return sync_latency_; }
  RoNodeStats& stats() { return stats_; }

 private:
  struct PageMeta {
    std::string low_key;
    std::string high_key;
    bool has_high_key = false;
    bwtree::PageId parent = bwtree::kInvalidPage;
    bwtree::Lsn split_lsn = 0;
  };

  struct PendingLog {
    std::vector<wal::WalRecord> records;  ///< LSN-ascending.
    /// Size after the last merge; compaction re-runs only once the log has
    /// grown meaningfully past it (merging can't shrink unique-key logs).
    size_t last_compacted_size = 0;
  };

  struct TreeState {
    std::map<std::string, bwtree::PageId> route;
    std::unordered_map<bwtree::PageId, PageMeta> meta;
    /// The lazy-replay log area, indexed by page number (§3.4 "to improve
    /// the efficiency of searching the log area ... an index keyed by page
    /// number").
    std::unordered_map<bwtree::PageId, PendingLog> pending;
  };

  struct CachedPage {
    /// The page's merged content, which replay edits in place.
    bwtree::EntryRun base;
    bwtree::Lsn applied_lsn = 0;
    uint64_t last_use = 0;  ///< LRU tick.
  };

  using CacheKey = std::pair<bwtree::TreeId, bwtree::PageId>;

  /// The one read path (Fig. 7): under the exclusive latch, tails the WAL,
  /// then walks `tree`'s pages in key order from the one owning
  /// `start_key`, materializing each through the cache, and hands `visit`
  /// at most `limit` entries of [start_key, end_key) (an empty end_key is
  /// unbounded) as views into the cached pages. False when the tree has not
  /// been replicated yet.
  Result<bool> Walk(bwtree::TreeId tree, const Slice& start_key,
                    const Slice& end_key, size_t limit,
                    const bwtree::EntryVisitor& visit, const OpContext* ctx);

  Status PollWalLocked() BG3_REQUIRES(mu_);
  Status ApplyWalRecordLocked(const wal::WalRecord& record) BG3_REQUIRES(mu_);

  /// Seeds route/meta from the shared mapping table, so a node can come up
  /// against a truncated WAL (images + ranges substitute for the dropped
  /// prefix of TreeInit/Split records).
  void BootstrapFromManifestLocked() BG3_REQUIRES(mu_);

  /// Returns the cached page, building it from storage + replay on a miss.
  Result<CachedPage*> GetPageLocked(bwtree::TreeId tree, bwtree::PageId page,
                                    const OpContext* ctx = nullptr)
      BG3_REQUIRES(mu_);
  Status BuildViewLocked(bwtree::TreeId tree, bwtree::PageId page,
                         CachedPage* out, const OpContext* ctx = nullptr)
      BG3_REQUIRES(mu_);
  /// Applies pending records newer than the page's applied_lsn.
  void ApplyPendingLocked(TreeState& ts, bwtree::TreeId tree,
                          bwtree::PageId page, CachedPage* cp)
      BG3_REQUIRES(mu_);
  void EvictIfNeededLocked() BG3_REQUIRES(mu_);

  static void CompactPendingVector(std::vector<wal::WalRecord>* recs);

  cloud::CloudStore* const store_;
  const RoNodeOptions opts_;
  wal::WalReader reader_;

  mutable SharedMutex mu_;
  bool bootstrapped_ BG3_GUARDED_BY(mu_) = false;
  bool resumed_from_checkpoint_ BG3_GUARDED_BY(mu_) = false;
  bool checkpoint_fell_back_ BG3_GUARDED_BY(mu_) = false;
  bwtree::Lsn max_lsn_seen_ BG3_GUARDED_BY(mu_) = 0;
  std::map<bwtree::TreeId, TreeState> trees_ BG3_GUARDED_BY(mu_);
  std::map<CacheKey, CachedPage> cache_ BG3_GUARDED_BY(mu_);
  uint64_t use_tick_ BG3_GUARDED_BY(mu_) = 0;  ///< LRU clock.
  Random rng_ BG3_GUARDED_BY(mu_);

  Histogram sync_latency_;
  RoNodeStats stats_;
  /// Per-instance registry prefix (`bg3.replication.ro<N>.`) the node's
  /// sync-latency histogram and counters are registered under.
  std::string metrics_prefix_;
};

}  // namespace bg3::replication

#endif  // BG3_REPLICATION_RO_NODE_H_
