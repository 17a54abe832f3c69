#ifndef BG3_BWTREE_MAPPING_TABLE_H_
#define BG3_BWTREE_MAPPING_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bwtree/page.h"
#include "cloud/types.h"
#include "common/thread_annotations.h"

namespace bg3::bwtree {

/// In-memory state of one Bw-tree leaf ("Edge Node"). The base plus the
/// delta chain are the authoritative content on the writer node, each held
/// as the payload of its storage image (EntryRun); the PagePointers record
/// where the current storage images live.
///
/// Guarded by `latch` — a reader-writer latch standing in for the "classic
/// lightweight locking mechanism [20]" the paper uses to serialize
/// concurrent modifications of one page. Mutations, consolidation, split
/// and eviction take it exclusive; Get/Scan take it shared so readers never
/// serialize behind each other (the read-side scaling of Figs. 9/11/14).
/// Exclusive acquisitions are the unit of write contention measured in
/// Fig. 11.
struct LeafPage {
  explicit LeafPage(PageId id_in) : id(id_in) {}

  SharedMutex latch;
  const PageId id;
  /// Inclusive lower bound of this leaf's key range. Immutable once the
  /// page is published through PageIndex (a split never moves a leaf's low
  /// key; the sibling takes the upper half), so it is readable without the
  /// latch — PageIndex::NextLeaf and the per-thread leaf hint rely on this.
  std::string low_key;
  /// Exclusive upper bound; empty = +infinity. Shrinks on split.
  std::string high_key BG3_GUARDED_BY(latch);
  bool has_high_key BG3_GUARDED_BY(latch) = false;

  /// The base page as of the last consolidation, held as its storage
  /// payload (empty while the page is not resident).
  EntryRun base BG3_GUARDED_BY(latch);
  /// Storage location of the base image (null before first flush).
  cloud::PagePointer base_ptr BG3_GUARDED_BY(latch);

  /// The delta chain, oldest first, each delta as its storage payload.
  /// Read-optimized mode keeps at most one (§3.2.2).
  std::vector<EntryRun> deltas BG3_GUARDED_BY(latch);
  /// Delta images on storage, oldest first: of a prefix of `deltas`
  /// (read-optimized: of its delta, perhaps an earlier version), or, while
  /// base_changed, of the folded deltas the next base image supersedes.
  std::vector<cloud::PagePointer> delta_ptrs BG3_GUARDED_BY(latch);
  /// Algorithm 1's delta.count: updates folded into the chain since the
  /// last consolidation (not its unique-key cardinality) — the
  /// consolidation trigger compares against it.
  uint32_t delta_updates BG3_GUARDED_BY(latch) = 0;

  /// LSN of the newest mutation applied in memory.
  Lsn last_lsn BG3_GUARDED_BY(latch) = 0;
  /// LSN covered by the storage images.
  Lsn flushed_lsn BG3_GUARDED_BY(latch) = 0;
  /// Memory is ahead of the storage images, in either flush mode; the
  /// images stay authoritative until a publication clears it.
  bool dirty BG3_GUARDED_BY(latch) = false;
  /// The base changed since its image (a fold or a split's cut).
  bool base_changed BG3_GUARDED_BY(latch) = false;

  /// False when the base was dropped under memory pressure; the base
  /// image at base_ptr is then the authoritative copy and gets reloaded on
  /// the next access (the BGS layer is a cache, not the store, §2.1).
  bool resident BG3_GUARDED_BY(latch) = true;
  /// Access tick for LRU eviction, drawn from the tree's tick source (which
  /// a forest shares across its trees so ticks are comparable forest-wide).
  /// Atomic rather than latch-guarded: shared-latch readers update it too.
  std::atomic<uint64_t> last_access_tick{0};
};

/// Immutable published view of the route table: leaf low keys in sorted
/// order plus the pages they resolve to (parallel vectors, binary-searched).
/// A new snapshot is published on every split; readers binary-search a
/// thread-locally cached snapshot without taking any lock. `pages[i]` may be
/// null only if the route was inserted for a page id the mapping table does
/// not know (a corruption the invariant walker and FindLeaf both abort on).
struct RouteSnapshot {
  std::vector<std::string> keys;
  std::vector<PageId> ids;
  std::vector<LeafPage*> pages;
};

/// Page directory of one tree: the mapping table (page id -> page) plus the
/// route table (leaf low key -> page) standing in for the Root/Meta levels
/// of the paper's edge tree.
///
/// Routing is lock-light: the route table is published as an immutable
/// RouteSnapshot under a version counter. FindLeaf validates a thread-local
/// cached snapshot against the version with one atomic load and
/// binary-searches it without taking `mu_`; only snapshot refreshes (first
/// use per thread, or after a split bumped the version) touch the shared
/// lock. A per-thread last-leaf hint — validated against the immutable
/// `low_key` and a cached copy of the upper bound — skips even the binary
/// search on key-locality workloads. Structure modifications (page/route
/// inserts) take the exclusive lock and publish a fresh snapshot.
///
/// Lock ordering: callers must NOT hold any leaf latch while calling
/// methods that take the exclusive lock, except InsertRoute/InsertPage
/// which are explicitly designed to be called while latching the splitting
/// leaf (no reader ever waits on a leaf latch while holding the index
/// lock, and snapshot refreshes never run with a latch held).
class PageIndex {
 public:
  PageIndex();
  PageIndex(const PageIndex&) = delete;
  PageIndex& operator=(const PageIndex&) = delete;

  /// Registers a new page (takes ownership).
  LeafPage* InsertPage(std::unique_ptr<LeafPage> page);

  /// Adds a route entry low_key -> page (split completion) and publishes a
  /// fresh route snapshot.
  void InsertRoute(const std::string& low_key, PageId page);

  /// Page responsible for `key` per the (thread-locally cached) route
  /// snapshot, or nullptr if the tree has no pages yet. Lock-free on the
  /// fast path. The caller must re-validate the key range after latching
  /// (the page may have split in between) and fall back to FindLeafFresh
  /// on a failed validation.
  LeafPage* FindLeaf(const Slice& key) const;

  /// FindLeaf with a forced refresh: drops the thread's leaf hint, reloads
  /// the route snapshot under the shared lock, then searches. Used after a
  /// range validation failed (stale snapshot or stale hint); guarantees the
  /// result reflects every split published before the call.
  LeafPage* FindLeafFresh(const Slice& key) const;

  /// Records `leaf` as this thread's last-leaf hint. `upper`/`has_upper`
  /// are the leaf's current high key, which the caller reads under the
  /// latch; the hint matches only keys inside [low_key, upper).
  void NoteLeafHint(LeafPage* leaf, const std::string& upper,
                    bool has_upper) const;

  LeafPage* FindPage(PageId id) const;

  /// Leaf following `page` in key order (nullptr if last).
  LeafPage* NextLeaf(const LeafPage& page) const;

  /// Leaves published in the route table: the set ForEachPage visits. A
  /// split sibling counts once its route is published, not when its page
  /// is inserted, so a count read before a ForEachPage pass differs from
  /// one read after it whenever that pass may have missed a leaf.
  size_t PageCount() const;

  /// Published snapshot version; bumps on every route change.
  uint64_t RouteVersion() const {
    return route_version_.load(std::memory_order_acquire);
  }

  /// Applies `fn` to every page, in key order, without holding any latch.
  void ForEachPage(const std::function<void(LeafPage*)>& fn) const;

  /// Approximate heap footprint of the directory structures themselves
  /// (route snapshot + hash buckets), excluding page payloads.
  size_t ApproxIndexBytes() const;

  /// Debug invariant walker (aborts via BG3_CHECK on violation):
  ///  - the route snapshot is empty or starts at the empty (minimal) key;
  ///  - every route entry resolves to a live page in the mapping table;
  ///  - a route entry's key equals its page's low key (checked
  ///    opportunistically with a shared try-lock so the walker can run
  ///    while writers hold latches — it must never introduce a
  ///    latch->index lock-order inversion).
  /// Called from BG3_DCHECK hooks at split boundaries and from tests.
  void CheckInvariants() const;

 private:
  /// Binary-searches `snap` for the leaf owning `key`.
  static LeafPage* Lookup(const RouteSnapshot& snap, const Slice& key);

  /// Process-unique id keying the thread-local snapshot cache (so a cache
  /// slot warmed by a destroyed index can never be mistaken for this one).
  const uint64_t instance_id_;
  /// Bumped (release) after each snapshot publication; readers validate
  /// their cached snapshot against it with one acquire load.
  std::atomic<uint64_t> route_version_{0};

  mutable SharedMutex mu_;
  std::shared_ptr<const RouteSnapshot> snapshot_ BG3_GUARDED_BY(mu_);
  std::unordered_map<PageId, std::unique_ptr<LeafPage>> pages_
      BG3_GUARDED_BY(mu_);
};

}  // namespace bg3::bwtree

#endif  // BG3_BWTREE_MAPPING_TABLE_H_
