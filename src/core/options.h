#ifndef BG3_CORE_OPTIONS_H_
#define BG3_CORE_OPTIONS_H_

#include <cstdint>
#include <memory>

#include "cloud/types.h"
#include "common/debug_server.h"
#include "core/admission.h"
#include "forest/forest.h"
#include "gc/policy.h"
#include "replication/checkpoint.h"

namespace bg3::core {

/// Which space-reclamation strategy a GraphDB runs (§3.3 / Table 2).
enum class GcPolicyKind {
  kNone,           ///< never reclaim (pure append).
  kFifo,           ///< traditional Bw-tree FIFO queue.
  kDirtyRatio,     ///< ArkDB-style fragmentation-rate baseline.
  /// BG3's Algorithm 2: coldest, most fragmented extents first; TTL'd
  /// extents within gc_ttl_bypass_window_us of their deadline expire in
  /// place instead (§3.3, narrowed as §4.4 proposes).
  kWorkloadAware,
};

/// Top-level configuration of a BG3 GraphDB instance.
struct GraphDBOptions {
  /// Bw-tree forest configuration (split-out threshold, INIT capacity,
  /// per-tree delta mode / consolidation / leaf size).
  forest::ForestOptions forest;

  GcPolicyKind gc_policy = GcPolicyKind::kWorkloadAware;
  size_t gc_extents_per_cycle = 4;
  double gc_min_fragmentation = 0.05;
  /// kWorkloadAware: TTL'd extents whose deadline is within this window are
  /// left to expire in place; the rest stay reclamation candidates, so a
  /// TTL longer than the window does not strand dead space for the whole
  /// TTL. gc::WorkloadAwarePolicy::kUnboundedWindow never relocates a TTL'd
  /// extent (§3.3's pure bypass).
  uint64_t gc_ttl_bypass_window_us = 60ull * 1'000'000;
  /// Reclamation runs only above this dead-space ratio.
  double gc_target_dead_ratio = 0.10;

  /// Edge TTL (0 = edges never expire). With a TTL, reads filter expired
  /// edges and the reclaimer frees whole extents whose deadline passed,
  /// without moving them (§3.3 Observation 2).
  uint64_t edge_ttl_us = 0;

  /// Time source for TTL/gradient bookkeeping; nullptr = wall clock.
  /// Benches inject a ManualTimeSource to fast-forward expiry.
  const cloud::TimeSource* time_source = nullptr;

  /// Leaf capacity of the vertex-property tree.
  size_t vertex_tree_max_leaf_entries = 256;

  /// Overload protection (DESIGN.md §5.5): per-class admission limits and
  /// bounded queues, plus the memory-pressure write throttle. Disabled by
  /// default; the deadline/breaker machinery beneath works either way.
  AdmissionOptions admission;

  /// Soft memory budget for the engine's page state (0 = unlimited). The
  /// maintenance loop treats all trees (forest + vertex) as one buffer
  /// pool: once ApproxMemoryBytes exceeds the budget it evicts the
  /// globally coldest clean leaves — ranked by a process-wide LRU tick —
  /// until resident payload fits. Total footprint is bounded by the budget
  /// regardless of how many trees the forest splits out; the memory layer
  /// behaves as the cache it is in the paper's architecture (§2.1).
  size_t memory_budget_bytes = 0;

  /// WAL-backed durability (DESIGN.md §5.7). When enabled, the DB runs on
  /// a replication::RwNode: the vertex tree is the node's own tree, every
  /// forest tree logs through it, and a write is acknowledged only once its
  /// WAL record landed — an acknowledged write survives a crash. Pages
  /// flush in group flushes (cuts of the node's checkpointer,
  /// GraphDB::checkpointer()) that publish page images and a checkpoint
  /// manifest under the WAL's scope. Construction restarts through
  /// RwNode::Recover: the manifest bounds the WAL replay to its suffix and
  /// untouched pages come up demand-paged, so reads go live after I/O
  /// proportional to the suffix, not the database. Disabled, every write
  /// flushes its page image synchronously and construction recovers
  /// nothing.
  ///
  /// The RW node's CheckpointerOptions: checkpointer()->Start()'s cadence
  /// and the dirty pages each Step flushes, by default 200 ms and 64.
  struct CheckpointPolicy : replication::CheckpointerOptions {
    CheckpointPolicy()
        : CheckpointerOptions{.interval_ms = 200, .max_pages_per_round = 64} {}
    bool enabled = false;
  };
  CheckpointPolicy checkpoint;

  /// In-process debug/observability HTTP endpoint (DESIGN.md §5.8):
  /// `/metrics` (Prometheus), `/healthz`, `/tracez` (slow-op span trees),
  /// `/costz` (cloud cost accounting). Off by default; port 0 binds an
  /// ephemeral port readable via GraphDB::debug_server_port().
  DebugServerOptions debug_server;

  /// Validates ranges; returns InvalidArgument on nonsense combinations.
  Status Validate() const;
};

/// Builds the policy object matching `kind` (nullptr for kNone).
std::unique_ptr<gc::GcPolicy> MakeGcPolicy(GcPolicyKind kind,
                                           double min_fragmentation,
                                           uint64_t ttl_bypass_window_us);

}  // namespace bg3::core

#endif  // BG3_CORE_OPTIONS_H_
