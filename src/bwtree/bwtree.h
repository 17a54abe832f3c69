#ifndef BG3_BWTREE_BWTREE_H_
#define BG3_BWTREE_BWTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bwtree/listener.h"
#include "bwtree/mapping_table.h"
#include "common/thread_annotations.h"
#include "bwtree/page.h"
#include "cloud/cloud_store.h"
#include "common/metrics.h"
#include "common/result.h"

namespace bg3::bwtree {

/// Delta maintenance policy of §3.2.2.
enum class DeltaMode {
  /// Classic Bw-tree (the SLED baseline of §4.3.1): every write appends one
  /// single-entry delta; chains grow to the consolidation threshold.
  kTraditional,
  /// BG3's Read Optimized Bw-tree (Algorithm 1): each write merges the
  /// page's existing delta with the update, so a page carries at most one
  /// delta and a cache-miss read costs at most two storage reads.
  kReadOptimized,
};

/// Durability policy for page images.
enum class FlushMode {
  /// Every write flushes its base/delta record before returning (§3.2.2:
  /// "both the base page and the delta data have to be flushed").
  kSync,
  /// Writes only mutate memory and mark pages dirty; a background flusher
  /// (the RW node of §3.4) persists dirty pages in groups, with the WAL
  /// carrying durability in between.
  kDeferred,
};

/// Read path cache policy.
enum class ReadCacheMode {
  /// Serve reads from the in-memory page state (full cache hit).
  kFull,
  /// Every read fetches the page's storage images (base + deltas), as in
  /// the zero-cache read-amplification experiment of Fig. 9.
  kNone,
};

struct BwTreeOptions {
  TreeId tree_id = 0;
  DeltaMode delta_mode = DeltaMode::kReadOptimized;
  /// Consolidate a page once its delta count would exceed this (both
  /// systems in §4.3.1 use 10).
  uint32_t consolidate_threshold = 10;
  /// Split a leaf once its merged entry count exceeds this.
  size_t max_leaf_entries = 256;
  ReadCacheMode read_cache = ReadCacheMode::kFull;
  FlushMode flush_mode = FlushMode::kSync;
  /// Treat reads hitting freed extents as absent data instead of IOError
  /// (TTL workloads where whole extents expire, §3.3 Observation 2).
  bool tolerate_missing_extents = false;

  cloud::StreamId base_stream = 0;
  cloud::StreamId delta_stream = 0;

  /// Shared LSN/page-id allocators (a forest or replicated node passes
  /// node-global counters); nullptr uses tree-local counters.
  std::atomic<Lsn>* lsn_source = nullptr;
  std::atomic<PageId>* page_id_source = nullptr;
  /// Shared access-tick allocator for LRU eviction. A forest passes one
  /// counter for all its trees so last-access ages are comparable
  /// forest-wide (the forest::EvictTreesToBudget ordering); nullptr uses a
  /// tree-local counter.
  std::atomic<uint64_t>* tick_source = nullptr;
  /// Counts clean -> dirty page transitions (an RW node's group-flush
  /// trigger, shared by its trees); nullptr counts nothing.
  std::atomic<size_t>* dirtied_pages = nullptr;

  /// Crash recovery: skip creating the initial page (and its OnTreeInit
  /// notification); the caller installs the recovered layout via
  /// InstallRecoveredPages before serving any request.
  bool bootstrap = false;

  TreeListener* listener = nullptr;
};

/// One leaf of a recovered tree layout (see BwTree::InstallRecoveredPages).
struct RecoveredPage {
  PageId id = kInvalidPage;
  std::string low_key;
  std::string high_key;
  bool has_high_key = false;
  /// Full logical content (storage image + replayed WAL) as a base run,
  /// which the install moves into the leaf as is.
  EntryRun base;
  /// Newest mutation LSN reflected in `base`.
  Lsn last_lsn = 0;
  /// Current storage image, if any (so the first post-recovery flush can
  /// invalidate it); null when the page was never flushed pre-crash.
  cloud::PagePointer base_ptr;
  /// Content exactly matches the published base image at `base_ptr` (same
  /// key range, no deltas, no newer replayed mutation). Clean pages install
  /// with dirty = false, so the post-recovery flush republishes only what
  /// the WAL suffix touched — bounded restart instead of O(DB).
  bool clean = false;
  /// Install with content materialized (the default). False installs only
  /// the metadata + base_ptr; the first access (or the tree's warm sweep,
  /// BwTree::WarmRestoredPages) demand-loads the base image, so reads go
  /// live before every page is fetched. Requires `clean` with a non-null
  /// base_ptr.
  bool resident = true;
};

/// Where a restart gets each tree's recovered layout (RwNode::Recover's
/// WAL export): the tree's pages, or NotFound when the log holds no such
/// tree.
using RecoveredTreeSource =
    std::function<Result<std::vector<RecoveredPage>>(TreeId)>;

/// Latch, structure and residency counters of one tree. Operation counts
/// are the bg3.bwtree.{write,get,scan} timed scopes' histogram counts.
struct BwTreeStats {
  /// Leaf-latch acquisition counters, split by mode (exported through the
  /// registry as bg3.db<N>.bwtree.latch.*). The conflict counters count
  /// acquisitions whose try-lock failed because an incompatible holder was
  /// present: exclusive conflicts are the write contention the Bw-tree
  /// forest is designed to reduce (§3.2.1 Observation 1, Fig. 11); shared
  /// conflicts measure readers stalled behind writers.
  LightCounter latch_shared_acquires;
  LightCounter latch_exclusive_acquires;
  LightCounter latch_shared_conflicts;
  LightCounter latch_exclusive_conflicts;
  LightCounter consolidations;
  LightCounter splits;
  /// Base pages reloaded from storage after eviction (cache misses of the
  /// memory layer).
  LightCounter page_reloads;
  LightCounter page_evictions;
};

/// A single Bw-tree over append-only cloud storage: BG3's unit of graph
/// adjacency storage (§3.2). Thread-safe; per-leaf latching.
class BwTree {
 public:
  BwTree(cloud::CloudStore* store, const BwTreeOptions& options);

  BwTree(const BwTree&) = delete;
  BwTree& operator=(const BwTree&) = delete;

  /// All foreground ops take an optional OpContext (DESIGN.md §5.5): its
  /// deadline is checked at entry, per leaf hop (scans), and before every
  /// store I/O the op issues, and it rides the store's retry loop so an expired
  /// request stops burning attempts. Null = exact historical behavior.
  /// A write whose listener failed to log it stays applied in memory and
  /// returns the listener's error (see TreeListener::OnMutation).
  Status Upsert(const Slice& key, const Slice& value,
                const OpContext* ctx = nullptr);
  Status Delete(const Slice& key, const OpContext* ctx = nullptr);

  /// Point lookup: the read walk over [key, key + '\0') with limit 1, so
  /// it takes the latches and issues the storage reads of a one-key Visit.
  /// NotFound if absent or deleted.
  Result<std::string> Get(const Slice& key, const OpContext* ctx = nullptr);

  struct ScanOptions {
    std::string start_key;          ///< inclusive; empty = from the start.
    std::string end_key;            ///< exclusive; empty = to the end.
    size_t limit = std::numeric_limits<size_t>::max();
  };
  /// Ordered range scan: hands each merged live entry of the range to
  /// `visit`, in key order, and stops after `limit` entries or when `visit`
  /// returns false. The key and value views point into the leaf (or into
  /// the storage images a zero-cache read parses) and die when `visit`
  /// returns: copy what must outlive the call. `visit` runs under the
  /// leaf's latch (shared, or exclusive on the reload path), so it must not
  /// call back into this or any other tree.
  Status Visit(const ScanOptions& options, const EntryVisitor& visit,
               const OpContext* ctx = nullptr);
  /// Visit that appends a copy of every entry to `out`.
  Status Scan(const ScanOptions& options, std::vector<Entry>* out,
              const OpContext* ctx = nullptr);

  // --- dirty pages: the group flush of §3.4, retries after a failed append

  /// Ids of pages whose memory state is ahead of their storage images.
  std::vector<PageId> DirtyPageIds() const;
  /// Folds one page's chain and publishes its base image; no-op if not
  /// dirty.
  Status FlushPage(PageId id);

  // --- memory-bounded caching -----------------------------------------------

  size_t ResidentPageCount() const;

  /// One leaf's residency record for the forest-wide byte budget (see
  /// forest::EvictTreesToBudget). `bytes` is the heap the resident base holds
  /// (EntryRun::MemoryBytes); `evictable` marks clean pages, whose images
  /// hold their whole content.
  struct PageResidency {
    PageId id = kInvalidPage;
    uint64_t tick = 0;
    size_t bytes = 0;
    bool evictable = false;
  };
  /// Appends one record per resident leaf (shared latches only; safe to
  /// call concurrently with reads and writes) and returns this tree's
  /// total resident payload bytes.
  size_t CollectResidency(std::vector<PageResidency>* out) const;
  /// Total resident payload bytes: the sum of CollectResidency's `bytes`,
  /// which is what evicting every such page frees.
  size_t ResidentBytes() const;
  /// Forest-budget eviction of a single page: drops the page's base
  /// after re-validating (clean, resident) under the exclusive latch.
  /// Returns bytes freed — 0 if the page vanished, was dirtied, or was
  /// reloaded/evicted concurrently.
  size_t EvictPage(PageId id);

  // --- crash recovery (bootstrap mode) --------------------------------------

  /// Installs a recovered leaf layout into a tree constructed with
  /// `bootstrap = true`. Pages must tile the key space (first low_key empty,
  /// contiguous ranges). Pages not marked `clean` come up dirty so the next
  /// group flush republishes fresh images; clean pages keep their published
  /// image authoritative. Pages installed non-resident join the tree's
  /// restore queue (WarmRestoredPages). Call once, before any other
  /// operation.
  Status InstallRecoveredPages(std::vector<RecoveredPage> pages);

  /// Materializes one non-resident page. Returns the storage bytes read —
  /// 0 if the page was already resident (demand reads may win the race).
  Result<size_t> WarmPage(PageId id, const OpContext* ctx = nullptr);

  /// The restore warm sweep: materializes up to `max` pages off the queue
  /// of pages InstallRecoveredPages installed non-resident, in key order,
  /// and returns how many queue entries remain (0 = every restored page
  /// has been fetched; `max` 0 just counts). Demand reads warm their own
  /// pages meanwhile. Adds the storage bytes read to `*bytes_read` when
  /// given. A failed fetch stays queued and is retried by the next call.
  Result<size_t> WarmRestoredPages(size_t max, uint64_t* bytes_read = nullptr);

  // --- space-reclamation support (GC, §3.3) --------------------------------

  /// Re-installs a still-valid record (self-describing bytes read from a
  /// victim extent) at a fresh location; a stale `old_ptr` is invalidated
  /// instead. A moved `old_ptr` stays valid: until its extent is freed, a
  /// restart may start from a manifest naming it, and that incarnation's
  /// GC must move it again. Returns the bytes rewritten (0 if stale).
  Result<uint64_t> Relocate(const cloud::PagePointer& old_ptr,
                            const Slice& record_bytes);

  // --- introspection --------------------------------------------------------
  size_t LeafCount() const { return index_.PageCount(); }
  /// Heap footprint: index structures + the capacity of every leaf's
  /// buffers. The Fig. 11 space-cost axis sums this across the forest.
  size_t ApproxMemoryBytes() const;

  BwTreeStats& stats() { return stats_; }
  const BwTreeOptions& options() const { return opts_; }
  cloud::CloudStore* store() { return store_; }

 private:
  Lsn NextLsn() {
    return lsn_source_->fetch_add(1, std::memory_order_relaxed) + 1;
  }
  PageId NextPageId() {
    return page_id_source_->fetch_add(1, std::memory_order_relaxed);
  }

  /// Routes to the leaf owning `key`, latches it in `Lock`'s mode
  /// (std::unique_lock: exclusive, std::shared_lock: shared), and
  /// re-validates the key range (retrying — with a forced route-snapshot
  /// refresh — if the leaf split concurrently). Returns the latched leaf;
  /// `lock` holds the latch. Callers must follow up with
  /// `leaf->latch.AssertHeld()` (or `AssertReaderHeld()`) so the
  /// thread-safety analysis learns about the acquisition it cannot see
  /// through the std lock holder.
  template <typename Lock>
  LeafPage* FindAndLatchLeaf(const Slice& key, Lock* lock);

  /// The tree's one read loop, behind Get and Visit: per leaf hop, route
  /// to the leaf owning the cursor, latch it shared (exclusive, to reload
  /// an evicted leaf first), hand its entries of [cursor, end) to `visit`
  /// (CollectRangeLocked), then advance to the leaf's high key. Stops
  /// after `limit` entries, when `visit` returns false, or at `end`
  /// (empty = the key space's end).
  Status Walk(const Slice& start, const Slice& end, size_t limit,
              const EntryVisitor& visit, const OpContext* ctx);

  Status Write(const EntryView& entry, const OpContext* ctx);
  /// A write's memory step in the tree's delta mode (§3.2.2), then its
  /// publication in sync mode.
  Status ApplyLocked(LeafPage* leaf, const EntryView& entry,
                     const OpContext* ctx) BG3_REQUIRES(leaf->latch);

  /// Sets the page's dirty bit; counts a clean -> dirty transition in
  /// options().dirtied_pages.
  void SetDirtyLocked(LeafPage* leaf, bool dirty) BG3_REQUIRES(leaf->latch);
  /// Folds the delta chain into the base (memory only); marks the base
  /// changed and the page dirty.
  void FoldChainLocked(LeafPage* leaf) BG3_REQUIRES(leaf->latch);
  /// FoldChainLocked, then the publication step in sync mode.
  Status ConsolidateLocked(LeafPage* leaf, const OpContext* ctx = nullptr)
      BG3_REQUIRES(leaf->latch);
  Status MaybeSplitLocked(LeafPage* leaf, const OpContext* ctx = nullptr)
      BG3_REQUIRES(leaf->latch);

  /// Reloads an evicted page's base from its storage image.
  Status EnsureResidentLocked(LeafPage* leaf, const OpContext* ctx = nullptr)
      BG3_REQUIRES(leaf->latch);

  /// The one publication step: appends a changed base (superseding every
  /// old image), then the delta images memory has and storage lacks
  /// (read-optimized: its delta; traditional: the unpublished tail). Each
  /// append moves base_ptr/delta_ptrs and invalidates what it replaces
  /// only once it lands, so a failed append leaves the page dirty and its
  /// old images authoritative. On success the page is clean; the caller
  /// tells the listener once the operation is done (a split's sibling only
  /// after it is routed).
  Status PublishLocked(LeafPage* leaf, const OpContext* ctx = nullptr)
      BG3_REQUIRES(leaf->latch);
  /// PublishLocked in sync mode; deferred pages wait for FlushPage.
  Status PublishIfSyncLocked(LeafPage* leaf, const OpContext* ctx)
      BG3_REQUIRES(leaf->latch);
  /// Appends the image of `run` (one of the leaf's runs) to `stream`.
  Result<cloud::PagePointer> AppendImageLocked(LeafPage* leaf,
                                               const EntryRun& run,
                                               cloud::StreamId stream,
                                               const OpContext* ctx)
      BG3_REQUIRES(leaf->latch);
  void NotifyFlushedLocked(LeafPage* leaf) BG3_REQUIRES(leaf->latch);

  /// Reads a page's storage images for a cache-miss read (Fig. 9 path):
  /// the base image into `base` (left empty if the page has none) and one
  /// image per flushed delta into `deltas`, oldest first, each parsed in
  /// place; `deltas` starts empty. Read-only on the leaf — runs under a
  /// shared latch so zero-cache reads scale (an exclusive holder satisfies
  /// the shared requirement too).
  Status ReadImagesLocked(LeafPage* leaf, EntryRun* base,
                          std::vector<EntryRun>* deltas, const OpContext* ctx)
      BG3_REQUIRES_SHARED(leaf->latch);
  /// Hands the merged live entries of [start, end) in this leaf to `visit`
  /// as views, at most `*remaining` of them (see MergeRuns). A cached leaf
  /// supplies its own runs; zero-cache mode supplies the storage images it
  /// fetches. Read-only: in full-cache mode the caller must have made the
  /// leaf resident first (Walk's exclusive-reload fallback does this on a
  /// cache miss).
  Status CollectRangeLocked(LeafPage* leaf, const Slice& start,
                            const Slice& end, size_t* remaining,
                            const EntryVisitor& visit,
                            const OpContext* ctx = nullptr)
      BG3_REQUIRES_SHARED(leaf->latch);

  /// Debug invariant check for one latched leaf, called after every write
  /// (on the leaf and a split's sibling) and every flush (BG3_DCHECK —
  /// compiled out when BG3_ENABLE_DCHECKS is off). Read-only, so a shared
  /// latch suffices:
  ///  - read-optimized mode carries at most one delta (Alg. 1);
  ///  - every run's keys are strictly sorted;
  ///  - flushed_lsn never exceeds last_lsn;
  ///  - clean implies the images cover memory;
  ///  - the key range is not inverted.
  void CheckLeafInvariantsLocked(LeafPage* leaf)
      BG3_REQUIRES_SHARED(leaf->latch);

  cloud::CloudStore* const store_;
  const BwTreeOptions opts_;
  PageIndex index_;
  BwTreeStats stats_;

  std::atomic<uint64_t> local_tick_{0};
  std::atomic<Lsn> local_lsn_{0};
  std::atomic<PageId> local_page_id_{0};
  std::atomic<Lsn>* lsn_source_;
  std::atomic<PageId>* page_id_source_;
  std::atomic<uint64_t>* tick_source_;

  /// Pages InstallRecoveredPages installed non-resident, and the warm
  /// sweep's cursor into them. Null unless a restore installed any (one
  /// pointer per tree: forests hold many trees).
  struct RestoreQueue {
    std::mutex mu;  ///< serializes sweeps; held across each fetch.
    std::vector<PageId> ids;  ///< fixed at install.
    size_t next = 0;          ///< guarded by mu.
  };
  std::unique_ptr<RestoreQueue> restore_queue_;
};

}  // namespace bg3::bwtree

#endif  // BG3_BWTREE_BWTREE_H_
