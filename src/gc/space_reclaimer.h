#ifndef BG3_GC_SPACE_RECLAIMER_H_
#define BG3_GC_SPACE_RECLAIMER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "gc/extent_usage.h"
#include "gc/policy.h"

namespace bg3::gc {

/// A set of trees: maps a record's tree id to the tree that owns it (GC
/// relocation) and lists the set (an RW node's checkpoints). Implemented
/// by GraphDB over its vertex tree and forest, or a single-tree adapter.
class TreeResolver {
 public:
  virtual ~TreeResolver() = default;
  virtual bwtree::BwTree* Resolve(bwtree::TreeId id) = 0;
  /// Appends every tree of the set to `out`.
  virtual void AppendTrees(std::vector<bwtree::BwTree*>* out) = 0;
};

/// Adapter exposing a single BwTree as a resolver.
class SingleTreeResolver : public TreeResolver {
 public:
  explicit SingleTreeResolver(bwtree::BwTree* tree) : tree_(tree) {}
  bwtree::BwTree* Resolve(bwtree::TreeId id) override {
    return id == tree_->options().tree_id ? tree_ : nullptr;
  }
  void AppendTrees(std::vector<bwtree::BwTree*>* out) override {
    out->push_back(tree_);
  }

 private:
  bwtree::BwTree* const tree_;
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
  /// already moved were invalidated at their old location).
  size_t extents_deferred = 0;
  uint64_t bytes_moved = 0;   ///< valid data rewritten to new extents.
  uint64_t bytes_freed = 0;   ///< total capacity returned to the store.
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

  /// Cumulative counters across cycles.
  const CycleResult& totals() const { return totals_; }
  const ReclaimOptions& options() const { return opts_; }

 private:
  Result<uint64_t> RelocateExtent(cloud::StreamId stream,
                                  cloud::ExtentId extent);

  cloud::CloudStore* const store_;
  TreeResolver* const resolver_;
  GcPolicy* const policy_;
  ExtentUsageTracker* const tracker_;
  const ReclaimOptions opts_;
  CycleResult totals_;
};

}  // namespace bg3::gc

#endif  // BG3_GC_SPACE_RECLAIMER_H_
