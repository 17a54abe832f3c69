#ifndef BG3_GC_SPACE_RECLAIMER_H_
#define BG3_GC_SPACE_RECLAIMER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/metrics.h"
#include "gc/extent_usage.h"
#include "gc/policy.h"

namespace bg3::gc {

/// The reclaim horizon (DESIGN.md §5.7), the one place outside the store
/// that frees storage. A restart starts from either manifest slot and
/// replays the WAL from that slot's cursor, so a pinned horizon (an RW
/// node's checkpointer) frees a relocated GC victim once both slots hold
/// manifests whose cuts began after its hand-over, and the WAL only before
/// the older slot's cursor. TTL-expired extents (every tree that can point
/// at them tolerates missing extents) and every victim of an unpinned
/// horizon (a tree set with no restart path) are freed at once.
class ReclaimHorizon {
 public:
  ReclaimHorizon(cloud::CloudStore* store, bool pinned)
      : store_(store), pinned_(pinned) {}

  /// GC hands back an extent it emptied (`expired`: by TTL). An error is
  /// that of a free made at once; GC retries it.
  Status Retire(cloud::StreamId stream, cloud::ExtentId extent,
                uint64_t bytes, bool expired);
  /// True while `extent` is retired but not yet freed.
  bool Holds(cloud::StreamId stream, cloud::ExtentId extent) const;

  /// The checkpointer's pins: a cut began (returns its number, from 1);
  /// cut `cut` (0: an earlier incarnation's) published the manifest of
  /// `epoch`, which frees what both slots now pass.
  uint64_t BeginCut();
  void Publish(uint64_t epoch, uint64_t cut,
               const cloud::PagePointer& wal_cursor);
  /// Frees the sealed extents of WAL `stream` before min(the older slot's
  /// cursor, `reader_floor`); returns how many.
  size_t TruncateWal(cloud::StreamId stream, cloud::ExtentId reader_floor);

  const Gauge& retired_extents() const { return retired_extents_; }
  const Gauge& retired_bytes() const { return retired_bytes_; }

 private:
  /// One GC-emptied extent, or every sealed WAL extent before `extent`.
  struct Retired {
    enum Kind { kRelocated, kExpired, kWalPrefix };
    Kind kind = kRelocated;
    cloud::StreamId stream = 0;
    cloud::ExtentId extent = 0;
    uint64_t bytes = 0;
    uint64_t cut = 0;  ///< cuts begun when it was handed over.
  };
  struct Slot {
    uint64_t epoch = 0;
    uint64_t cut = 0;
    cloud::PagePointer wal_cursor;
  };

  /// The one decision whether storage may be freed: frees `r` when no
  /// restart can read it and returns the extents freed (0: it must wait).
  Result<size_t> FreeIfBehindLocked(const Retired& r);

  cloud::CloudStore* const store_;
  const bool pinned_;
  mutable std::mutex mu_;
  uint64_t cuts_begun_ = 0;
  Slot slots_[2];  ///< by epoch parity; epoch 0 is an empty slot.
  std::vector<Retired> retired_;
  Gauge retired_extents_;
  Gauge retired_bytes_;
};

/// A set of trees: maps a record's tree id to the tree that owns it (GC
/// relocation) and lists the set (an RW node's checkpoints). Implemented
/// by GraphDB over its vertex tree and forest, or a single-tree adapter.
class TreeResolver {
 public:
  virtual ~TreeResolver() = default;
  virtual bwtree::BwTree* Resolve(bwtree::TreeId id) = 0;
  /// Appends every tree of the set to `out`.
  virtual void AppendTrees(std::vector<bwtree::BwTree*>* out) = 0;
  /// The set owner's reclaim horizon, which GC hands emptied extents to.
  virtual ReclaimHorizon* horizon() = 0;
};

/// Adapter exposing a single BwTree as a resolver. With no `horizon` the
/// tree has no restart path, and its victims are freed at once.
class SingleTreeResolver : public TreeResolver {
 public:
  explicit SingleTreeResolver(bwtree::BwTree* tree,
                              ReclaimHorizon* horizon = nullptr)
      : tree_(tree),
        unpinned_(tree->store(), /*pinned=*/false),
        horizon_(horizon != nullptr ? horizon : &unpinned_) {}
  bwtree::BwTree* Resolve(bwtree::TreeId id) override {
    return id == tree_->options().tree_id ? tree_ : nullptr;
  }
  void AppendTrees(std::vector<bwtree::BwTree*>* out) override {
    out->push_back(tree_);
  }
  ReclaimHorizon* horizon() override { return horizon_; }

 private:
  bwtree::BwTree* const tree_;
  ReclaimHorizon unpinned_;
  ReclaimHorizon* const horizon_;
};

struct ReclaimOptions {
  /// TTL of this stream's data (0 = none). Extents whose deadline passed
  /// are freed in place, no relocation (§3.3 Observation 2 / Fig. 5 B@t2).
  uint64_t ttl_us = 0;
  /// Trigger threshold: a cycle relocates only while the stream's dead-byte
  /// ratio exceeds this (background GC runs ahead of space pressure).
  double target_dead_ratio = 0.10;
};

/// Outcome of one reclamation cycle; Table 2's "Write Amplification Bwd
/// Occupation (MB/s)" is bytes_moved summed over cycles divided by the
/// workload's (virtual) duration.
struct CycleResult {
  size_t extents_examined = 0;
  size_t extents_reclaimed = 0;
  size_t extents_expired = 0;
  /// Victims skipped after their I/O retry budget ran out; they remain
  /// candidates for the next cycle (relocation is idempotent: records
  /// already moved are stale at their old location).
  size_t extents_deferred = 0;
  uint64_t bytes_moved = 0;   ///< valid data rewritten to new extents.
  /// Capacity of the extents handed to the reclaim horizon.
  uint64_t bytes_freed = 0;
};

/// Executes space reclamation cycles against one stream of the cloud store,
/// relocating still-valid records through their owning trees (§3.3).
class SpaceReclaimer {
 public:
  SpaceReclaimer(cloud::CloudStore* store, TreeResolver* resolver,
                 GcPolicy* policy, ExtentUsageTracker* tracker,
                 const ReclaimOptions& options);

  /// One cycle over `stream`: free expired extents, then relocate up to
  /// `max_extents` victims chosen by the policy.
  Result<CycleResult> RunCycle(cloud::StreamId stream, size_t max_extents);

  /// Cumulative counters across cycles, read safely beside a running cycle.
  CycleResult totals() const;
  const ReclaimOptions& options() const { return opts_; }

 private:
  Result<uint64_t> RelocateExtent(cloud::StreamId stream,
                                  cloud::ExtentId extent, uint64_t used_bytes);

  cloud::CloudStore* const store_;
  TreeResolver* const resolver_;
  GcPolicy* const policy_;
  ExtentUsageTracker* const tracker_;
  const ReclaimOptions opts_;
  /// CycleResult's fields summed over cycles; atomic, since metrics renders
  /// read them while a cycle adds to them.
  struct Totals {
    LightCounter extents_examined;
    LightCounter extents_reclaimed;
    LightCounter extents_expired;
    LightCounter extents_deferred;
    LightCounter bytes_moved;
    LightCounter bytes_freed;
  } totals_;
};

}  // namespace bg3::gc

#endif  // BG3_GC_SPACE_RECLAIMER_H_
