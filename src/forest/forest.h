#ifndef BG3_FOREST_FOREST_H_
#define BG3_FOREST_FOREST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bwtree/bwtree.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "forest/buffer_pool.h"
#include "forest/owner_table.h"

namespace bg3::forest {

struct ForestOptions {
  /// Once an owner accumulates more than this many entries in the INIT
  /// tree, its data is split out into a dedicated Bw-tree ("each workload
  /// can be configured with a threshold", §3.2.1). 0 dedicates owners on
  /// their first write.
  size_t split_out_threshold = 1024;

  /// When the INIT tree's total entry count exceeds this, the owner with
  /// the most INIT entries is evicted into a dedicated tree ("when the
  /// total size of Bw-tree (INIT) exceeds the threshold, we select the user
  /// with the most edges", §3.2.1).
  size_t init_tree_capacity = 4u << 20;

  /// Template for every tree the forest creates; tree_id is managed by the
  /// forest itself, and so are lsn_source / page_id_source unless set.
  bwtree::BwTreeOptions tree_options;

  /// Shard count of the owner table (each shard has its own lock and index).
  size_t owner_shards = 64;
};

struct ForestStats {
  LightCounter split_outs;  ///< owners moved to dedicated trees by threshold.
  LightCounter evictions;   ///< owners evicted by INIT-capacity pressure.
};

/// Space Optimized Bw-tree Forest (§3.2.1): a hash table of owners whose
/// values point at either the shared INIT Bw-tree (small owners, stored
/// with composite [owner|sort] keys) or a dedicated per-owner Bw-tree
/// (hot owners, stored with shortened [sort]-only keys — the key shrinking
/// that saves space once all of a tree's edges share one source).
///
/// Owner routing is data: a small directory tree holds one row per
/// dedicated owner (owner -> tree id), written as a split-out's commit
/// point. Being a tree, it is logged, checkpointed, GC-relocated and
/// recovered like every other tree (Recover rebuilds the routing from it).
///
/// The owner table (owner_table.h) keeps each owner in one 24-byte record
/// (tree pointer, entry count, split-out flag) in an append-only per-shard
/// arena behind a flat index; records never move, so lookups hand out raw
/// pointers that stay valid for the forest's lifetime. The forest owns
/// every dedicated tree.
///
/// Thread safety: an owner lock, one of a fixed process-wide array indexed
/// by the owner hash, serializes *mutations* of an owner (consistent with
/// §3.2.1 Observation 2: one user never likes two videos at the same
/// moment); owners sharing a lock serialize their writes, and cross-owner
/// writes otherwise only contend on the INIT tree's internal page latches
/// — the contention the forest exists to reduce. Reads never take an owner lock:
/// a dedicated tree pointer is published once (atomically, never cleared)
/// at split-out, and the Bw-tree itself is reader-concurrent via shared
/// leaf latches — so fan-out reads of one hot owner scale across cores. A
/// split-out holds no owner lock across its copy: writers of the owner
/// wait for it outside the lock, and INIT keeps the owner's entries until
/// the dedicated tree is published.
class BwTreeForest {
 public:
  BwTreeForest(cloud::CloudStore* store, const ForestOptions& options);

  /// Restart (DESIGN.md §5.7): rebuilds INIT, the owner directory and every
  /// dedicated tree a directory row routes to from `source`, demand-paged.
  /// A tree the directory does not name (an aborted split-out) is never
  /// opened; a tree the source lacks starts empty, except a routed one,
  /// which is Corruption. Owner entry counts restart from zero.
  static Result<std::unique_ptr<BwTreeForest>> Recover(
      cloud::CloudStore* store, const ForestOptions& options,
      const bwtree::RecoveredTreeSource& source);

  BwTreeForest(const BwTreeForest&) = delete;
  BwTreeForest& operator=(const BwTreeForest&) = delete;

  /// Inserts/updates one entry of `owner`'s list, keyed by `sort_key`.
  /// Every foreground op forwards the optional OpContext deadline to the
  /// owning Bw-tree (null = no deadline; see DESIGN.md §5.5).
  Status Upsert(OwnerId owner, const Slice& sort_key, const Slice& value,
                const OpContext* ctx = nullptr);
  Status Delete(OwnerId owner, const Slice& sort_key,
                const OpContext* ctx = nullptr);
  Result<std::string> Get(OwnerId owner, const Slice& sort_key,
                          const OpContext* ctx = nullptr);

  /// Ordered scan of one owner's entries from `start_sort_key`, handed to
  /// `visit` as views under a leaf latch (the bwtree::BwTree::Visit
  /// contract); keys are sort keys (the owner prefix is stripped on the view
  /// for INIT-tree residents). A split-out that publishes the owner's tree
  /// while the INIT pass runs makes that pass stale: `reset` is called, and
  /// the scan is redone on the tree, so the caller must drop everything the
  /// visits so far delivered.
  Status ScanOwner(OwnerId owner, const Slice& start_sort_key, size_t limit,
                   const bwtree::EntryVisitor& visit,
                   const std::function<void()>& reset,
                   const OpContext* ctx = nullptr);
  /// ScanOwner that appends a copy of every entry to `out`.
  Status ScanOwner(OwnerId owner, const Slice& start_sort_key, size_t limit,
                   std::vector<bwtree::Entry>* out,
                   const OpContext* ctx = nullptr);

  /// Entries currently attributed to `owner` (tracked count).
  size_t OwnerEntryCount(OwnerId owner) const;
  /// Owners with a record in the owner table.
  size_t OwnerCount() const { return owners_.size(); }
  /// Heap bytes of the owner table (part of ApproxMemoryBytes).
  size_t OwnerTableBytes() const { return owners_.MemoryBytes(); }

  /// Forces `owner` into a dedicated tree immediately (workloads that know
  /// their hot set up front; also how Fig. 11 controls the tree count).
  /// No-op if the owner is already dedicated.
  Status DedicateOwner(OwnerId owner);

  // --- introspection -------------------------------------------------------
  size_t DedicatedTreeCount() const;
  /// Total Bw-trees (dedicated + INIT).
  size_t TreeCount() const { return DedicatedTreeCount() + 1; }
  size_t InitEntryCount() const {
    return init_entries_.load(std::memory_order_relaxed);
  }
  /// INIT + dedicated trees + owner-table overhead (Fig. 11 space axis).
  size_t ApproxMemoryBytes() const;

  /// Total resident payload bytes across every tree in the forest.
  size_t TotalResidentBytes() const;

  /// Appends every tree (INIT, the directory and the dedicated trees) to
  /// `out`, for callers that act on more than one forest/tree (GraphDB
  /// pools the vertex tree with the forest, and checkpoints them all).
  void AppendTrees(std::vector<bwtree::BwTree*>* out) const;

  /// Resolves a tree id to its tree (GC relocation, checkpoint flushes);
  /// nullptr if unknown.
  bwtree::BwTree* ResolveTree(bwtree::TreeId id) const;
  bwtree::BwTree* init_tree() { return init_tree_.get(); }

  ForestStats& stats() { return stats_; }
  const ForestOptions& options() const { return opts_; }

  /// Aggregate of per-tree latch counters (the Fig. 11 contention signal).
  struct LatchCounters {
    uint64_t shared_acquires = 0;
    uint64_t exclusive_acquires = 0;
    uint64_t shared_conflicts = 0;
    uint64_t exclusive_conflicts = 0;
  };
  LatchCounters AggregateLatchCounters() const;

  /// INIT-tree composite key helpers, exposed for tests.
  static std::string MakeInitKey(OwnerId owner, const Slice& sort_key);
  static std::string OwnerPrefix(OwnerId owner);

  /// Debug invariant walker (BG3_CHECK-aborts on violation): the registry
  /// resolves the INIT tree at id 0, and every dedicated owner's tree is
  /// registered under its id. Called from BG3_DCHECK hooks at split-out
  /// boundaries and from tests.
  void CheckInvariants() const;

 private:
  /// Tree id of the owner directory, outside the dedicated trees' ids.
  static constexpr bwtree::TreeId kDirectoryTreeId = ~bwtree::TreeId{0} >> 2;

  /// `fresh`: create an empty INIT tree and directory (Recover opens them
  /// instead).
  BwTreeForest(cloud::CloudStore* store, const ForestOptions& options,
               bool fresh);

  /// The owner's dedicated tree once published; null for INIT residents
  /// and for a null state.
  static bwtree::BwTree* PublishedTree(const OwnerState* state);

  /// The one owner read, behind Get and ScanOwner (DESIGN.md §5.4): runs
  /// `read(tree, in_init)` — Status(bwtree::BwTree*, bool) — on the owner's
  /// published tree, or on INIT (`in_init`: keys carry the owner prefix),
  /// where a pass that raced a split-out publishing the owner's tree is
  /// followed by `reset()` and redone on that tree. An owner this forest
  /// has no record of, and no recovered INIT entries could belong to, is
  /// not read at all.
  template <typename Read, typename Reset>
  Status ReadOwner(OwnerId owner, const Read& read, const Reset& reset);

  /// Moves the owner's INIT entries into a fresh dedicated tree unless it
  /// is dedicated already (waiting out a split-out in flight). Holds no
  /// latch across the copy.
  Status SplitOut(OwnerState* state, LightCounter* reason);

  /// Creates and registers a tree under a fresh id; the forest owns it.
  bwtree::BwTree* NewDedicatedTree();
  /// Unregisters a tree whose split-out failed; it stays allocated (GC or a
  /// checkpoint may still hold it) but is never routed or listed again.
  void AbandonTree(bwtree::BwTree* tree);

  /// INIT-capacity eviction: splits out the INIT-resident owner with the
  /// most entries. One runs at a time; later callers leave it the pressure.
  void MaybeEvictFromInit();

  bwtree::BwTreeOptions MakeTreeOptions(bwtree::TreeId id,
                                        bool bootstrap = false) const;

  cloud::CloudStore* const store_;
  const ForestOptions opts_;
  /// Built by Recover: an owner untouched since may have INIT entries but
  /// no state, so a read finding no state still looks in INIT.
  const bool init_has_stateless_owners_;
  ForestStats stats_;

  std::atomic<bwtree::Lsn> lsn_source_{0};
  std::atomic<bwtree::PageId> page_id_source_{0};
  /// Shared LRU clock for every tree in the forest (comparable ticks are
  /// what make the forest-wide eviction order meaningful). GraphDB overrides
  /// this with a process-wide source so the vertex tree joins the pool.
  mutable std::atomic<uint64_t> tick_source_{0};
  std::atomic<bwtree::TreeId> next_tree_id_{1};  // 0 is the INIT tree.

  std::unique_ptr<bwtree::BwTree> init_tree_;
  std::atomic<size_t> init_entries_{0};
  /// Owner directory: owner -> dedicated tree id rows, plus a row counting
  /// restarts (the high half of the tree ids minted since).
  std::unique_ptr<bwtree::BwTree> directory_;

  OwnerTable owners_;

  mutable Mutex registry_mu_;
  std::unordered_map<bwtree::TreeId, bwtree::BwTree*> registry_
      BG3_GUARDED_BY(registry_mu_);
  /// Every dedicated tree minted, routed or abandoned; freed only with the
  /// forest.
  std::vector<std::unique_ptr<bwtree::BwTree>> dedicated_
      BG3_GUARDED_BY(registry_mu_);

  std::atomic<bool> init_evicting_{false};  // an INIT-capacity eviction runs.
};

}  // namespace bg3::forest

#endif  // BG3_FOREST_FOREST_H_
