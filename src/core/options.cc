#include "core/options.h"

namespace bg3::core {

Status GraphDBOptions::Validate() const {
  if (gc_min_fragmentation < 0.0 || gc_min_fragmentation > 1.0) {
    return Status::InvalidArgument("gc_min_fragmentation out of [0,1]");
  }
  if (gc_target_dead_ratio < 0.0 || gc_target_dead_ratio > 1.0) {
    return Status::InvalidArgument("gc_target_dead_ratio out of [0,1]");
  }
  if (forest.owner_shards == 0) {
    return Status::InvalidArgument("owner_shards must be > 0");
  }
  if (vertex_tree_max_leaf_entries == 0) {
    return Status::InvalidArgument("vertex_tree_max_leaf_entries must be > 0");
  }
  if (checkpoint.enabled && checkpoint.max_pages_per_round == 0) {
    return Status::InvalidArgument("max_pages_per_round must be > 0");
  }
  // Tree settings the engine could not honor: a durable DB's trees log
  // through its RW node, which serves every read from memory; without the
  // node nothing flushes deferred pages, so they never reach storage and
  // eviction can never drop them.
  if (checkpoint.enabled &&
      forest.tree_options.read_cache == bwtree::ReadCacheMode::kNone) {
    return Status::InvalidArgument(
        "a durable GraphDB serves reads from memory: read_cache kNone "
        "needs checkpoint.enabled = false");
  }
  if (!checkpoint.enabled &&
      forest.tree_options.flush_mode == bwtree::FlushMode::kDeferred) {
    return Status::InvalidArgument(
        "deferred flushing needs checkpoint.enabled: nothing else flushes "
        "the pages");
  }
  if (admission.enabled) {
    if (admission.memory_throttle_ratio > 1.0) {
      return Status::InvalidArgument("memory_throttle_ratio out of (0,1]");
    }
    if (admission.poll_granularity_us == 0) {
      return Status::InvalidArgument("poll_granularity_us must be > 0");
    }
  }
  return Status::OK();
}

std::unique_ptr<gc::GcPolicy> MakeGcPolicy(GcPolicyKind kind,
                                           double min_fragmentation,
                                           uint64_t ttl_bypass_window_us) {
  switch (kind) {
    case GcPolicyKind::kNone:
      return nullptr;
    case GcPolicyKind::kFifo:
      return std::make_unique<gc::FifoPolicy>();
    case GcPolicyKind::kDirtyRatio:
      return std::make_unique<gc::DirtyRatioPolicy>(min_fragmentation);
    case GcPolicyKind::kWorkloadAware:
      return std::make_unique<gc::WorkloadAwarePolicy>(ttl_bypass_window_us,
                                                       min_fragmentation);
  }
  return nullptr;
}

}  // namespace bg3::core
