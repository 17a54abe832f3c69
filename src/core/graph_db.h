#ifndef BG3_CORE_GRAPH_DB_H_
#define BG3_CORE_GRAPH_DB_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "core/admission.h"
#include "core/options.h"
#include "forest/forest.h"
#include "gc/extent_usage.h"
#include "gc/space_reclaimer.h"
#include "graph/engine.h"
#include "replication/checkpoint.h"
#include "replication/page_image.h"

namespace bg3::core {

/// BG3's public database facade: a property-graph engine backed by the
/// Space-Optimized Bw-tree Forest over append-only cloud storage, with
/// workload-aware space reclamation (the single-node storage engine of
/// Fig. 2; leader-follower deployment lives in bg3::replication).
///
/// One GraphDB installs itself as the CloudStore's observer for extent
/// usage tracking — create at most one GraphDB per CloudStore.
///
/// With options.checkpoint.enabled, the DB is the target of a
/// replication::Checkpointer (privately: only its checkpointer drives the
/// CheckpointTarget calls).
class GraphDB : public graph::GraphEngine,
                private replication::CheckpointTarget {
 public:
  /// `store` must outlive the GraphDB. Aborts on invalid options (validate
  /// beforehand for graceful handling).
  GraphDB(cloud::CloudStore* store, const GraphDBOptions& options);
  ~GraphDB() override;

  GraphDB(const GraphDB&) = delete;
  GraphDB& operator=(const GraphDB&) = delete;

  std::string name() const override { return "BG3"; }

  // --- graph::GraphEngine ---------------------------------------------------
  // Every op passes admission control (per-class limits, bounded queues,
  // write throttling — no-ops unless options.admission.enabled) and
  // threads its OpContext deadline down through forest/tree/cloud I/O.
  Status AddVertex(graph::VertexId id, const Slice& properties,
                   const OpContext* ctx = nullptr) override;
  Result<std::string> GetVertex(graph::VertexId id,
                                const OpContext* ctx = nullptr) override;
  Status DeleteVertex(graph::VertexId id, graph::EdgeType type,
                      const OpContext* ctx = nullptr) override;
  Status AddEdge(graph::VertexId src, graph::EdgeType type,
                 graph::VertexId dst, const Slice& properties,
                 graph::TimestampUs created_us,
                 const OpContext* ctx = nullptr) override;
  Status DeleteEdge(graph::VertexId src, graph::EdgeType type,
                    graph::VertexId dst,
                    const OpContext* ctx = nullptr) override;
  Result<std::string> GetEdge(graph::VertexId src, graph::EdgeType type,
                              graph::VertexId dst,
                              const OpContext* ctx = nullptr) override;
  Status GetNeighbors(graph::VertexId src, graph::EdgeType type, size_t limit,
                      std::vector<graph::Neighbor>* out,
                      const OpContext* ctx = nullptr) override;

  // --- maintenance -----------------------------------------------------------
  /// One space-reclamation cycle over the base and delta streams. Call
  /// periodically (or use StartMaintenance; the benches call it explicitly
  /// for determinism).
  Status RunGcCycle();

  /// Starts a background thread running, every `interval_ms`, RunGcCycle
  /// and a restore warm of up to 32 pages per tree.
  /// Idempotent; stopped automatically at destruction.
  void StartMaintenance(uint64_t interval_ms);
  /// Stops the background maintenance thread (blocks until joined).
  void StopMaintenance();

  // --- continuous fuzzy checkpointing (DESIGN.md §5.7) ----------------------

  /// The checkpoint state machine over every tree (forest + vertex):
  /// Step/CheckpointNow drive it deterministically, Start/Stop run it on
  /// its own thread at options.checkpoint.interval_ms. Null unless
  /// options.checkpoint.enabled.
  replication::Checkpointer* checkpointer() { return checkpointer_.get(); }

  /// Warms up to `max` restored pages of each tree (each tree's
  /// BwTree::WarmRestoredPages; demand reads warm their own pages
  /// concurrently, StartMaintenance drains them in the background); returns
  /// how many remain queued. 0 = restore fully materialized.
  Result<size_t> WarmRestoredPages(size_t max);

  /// True when construction found a usable "db" checkpoint manifest and
  /// restored the engine from it.
  bool RestoredFromCheckpoint() const { return restored_from_checkpoint_; }
  /// True when the head manifest slot was torn and the previous epoch's
  /// slot was restored instead.
  bool CheckpointFellBack() const { return checkpoint_fell_back_; }
  /// Storage bytes fetched rematerializing restored pages (warm sweep +
  /// nothing else; demand-read fills count through the store's read stats).
  uint64_t checkpoint_replay_bytes() const {
    return ckpt_replay_bytes_.Get();
  }

  /// Checkpoint-manifest scope of GraphDB-level checkpoints.
  static constexpr const char* kCheckpointScope = "db";

  /// Per-instance metric-name prefix this DB registered its forest and GC
  /// stats under (`bg3.db<N>.`) in MetricsRegistry::Default(), the one
  /// read-out of DB internals.
  const std::string& metrics_prefix() const { return metrics_prefix_; }

  /// Front-door admission controller (see AdmissionOptions). Exposed so
  /// replication facades and tests can share / inspect it.
  AdmissionController& admission() { return admission_; }

  /// Re-evaluates the graceful-degradation watermark (resident memory vs.
  /// budget) and updates the write throttle. Runs inline every few hundred writes and
  /// on each RunGcCycle; cheap enough for both.
  void RefreshOverloadState();


  /// Port of the in-process debug HTTP server (options.debug_server), 0
  /// when disabled or the bind failed. With port 0 in the options this is
  /// the ephemeral port the kernel assigned.
  uint16_t debug_server_port() const { return debug_server_.port(); }
  DebugServer& debug_server() { return debug_server_; }

  forest::BwTreeForest* forest() { return forest_.get(); }
  bwtree::BwTree* vertex_tree() { return vertex_tree_.get(); }
  cloud::CloudStore* store() { return store_; }
  gc::SpaceReclaimer* reclaimer() { return reclaimer_.get(); }
  const GraphDBOptions& options() const { return opts_; }
  uint64_t NowUs() const { return time_source_->NowUs(); }

 private:
  class ResolverImpl : public gc::TreeResolver {
   public:
    explicit ResolverImpl(GraphDB* db) : db_(db) {}
    bwtree::BwTree* Resolve(bwtree::TreeId id) override;

   private:
    GraphDB* const db_;
  };

  static constexpr bwtree::TreeId kVertexTreeId = 1ull << 62;

  // --- replication::CheckpointTarget -----------------------------------------
  Scope CheckpointScope() const override;
  bwtree::Lsn CurrentLsn() const override {
    return lsn_.load(std::memory_order_acquire);
  }
  bool HasPendingImages() const override { return stager_.HasStaged(); }
  /// No WAL: the cut is the DB LSN plus every tree's dirty snapshot.
  Status BeginCut(CutStart* cut) override;
  Status FlushPage(bwtree::TreeId tree, bwtree::PageId page) override;
  /// Makes the images tile every tree the manifest names (see the
  /// definition), publishes them, and fills the manifest with one owner
  /// snapshot. checkpoint_lsn is the highest LSN the images cover.
  Status CommitCheckpoint(bwtree::Lsn cut_lsn,
                          replication::CheckpointManifest* manifest) override;

  /// Loads every published page image of `tree` as a demand-paged
  /// (non-resident) recovered layout and raises the LSN floor past it;
  /// empty if any image is unusable (the caller falls back to a fresh
  /// tree).
  std::vector<bwtree::RecoveredPage> LoadTreeImages(bwtree::TreeId tree);
  /// Restores forest/vertex state from `manifest`; called from the ctor.
  void RestoreFromManifest(const replication::CheckpointManifest& manifest);

  bool EdgeExpired(graph::TimestampUs created_us) const;
  /// Forest + vertex-tree memory footprint the budget and the memory
  /// watermark act on (also exported as `approx_memory_bytes`).
  size_t ApproxMemoryBytes() const;
  /// Boundary validation + admission for one public op; on success the
  /// permit holds the op's concurrency slot until it returns.
  Status AdmitOp(OpClass cls, const OpContext* ctx,
                 AdmissionController::Permit* permit);

  cloud::CloudStore* const store_;
  const GraphDBOptions opts_;
  std::string metrics_prefix_;
  cloud::WallTimeSource wall_time_;
  const cloud::TimeSource* time_source_;

  cloud::StreamId base_stream_ = 0;
  cloud::StreamId delta_stream_ = 0;

  /// Process-wide LRU clock shared by the vertex tree and every forest tree
  /// (via BwTreeOptions::tick_source), so the memory budget can rank leaf
  /// coldness across all of them with comparable ticks.
  mutable std::atomic<uint64_t> access_tick_{0};
  /// The one LSN order of the DB: the vertex tree and every forest tree
  /// draw from it, so "no LSN since the last manifest" means no write. Its
  /// own cache line: every leaf access bumps access_tick_.
  alignas(64) std::atomic<bwtree::Lsn> lsn_{0};

  std::unique_ptr<gc::ExtentUsageTracker> tracker_;
  std::unique_ptr<bwtree::BwTree> vertex_tree_;
  std::unique_ptr<forest::BwTreeForest> forest_;
  std::unique_ptr<ResolverImpl> resolver_;
  std::unique_ptr<gc::GcPolicy> gc_policy_;
  std::unique_ptr<gc::SpaceReclaimer> reclaimer_;

  AdmissionController admission_;
  /// Writes since the last watermark refresh (RefreshOverloadState cadence).
  std::atomic<uint64_t> writes_since_refresh_{0};

  /// Debug/observability HTTP endpoint (started in the ctor when
  /// options.debug_server.enabled; stopped before teardown).
  DebugServer debug_server_;

  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
  std::thread maint_thread_;

  // --- checkpoint state (options.checkpoint.enabled) ------------------------

  /// Every tree's listener: stages flushed images for CommitCheckpoint.
  replication::ImageStager stager_;
  /// Leaf count per tree at cut begin — trees absent here were born during
  /// the cut. Touched only by the checkpointer's (serialized) calls.
  std::unordered_map<bwtree::TreeId, size_t> cut_leaves_;

  bool restored_from_checkpoint_ = false;
  bool checkpoint_fell_back_ = false;
  LightCounter ckpt_replay_bytes_;

  std::unique_ptr<replication::Checkpointer> checkpointer_;
};

}  // namespace bg3::core

#endif  // BG3_CORE_GRAPH_DB_H_
