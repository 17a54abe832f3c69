#ifndef BG3_CORE_GRAPH_DB_H_
#define BG3_CORE_GRAPH_DB_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
#include "replication/rw_node.h"

namespace bg3::core {

/// BG3's public database facade: a property-graph engine backed by the
/// Space-Optimized Bw-tree Forest over append-only cloud storage, with
/// workload-aware space reclamation (the single-node storage engine of
/// Fig. 2; leader-follower deployment lives in bg3::replication).
///
/// One GraphDB installs itself as the CloudStore's observer for extent
/// usage tracking — create at most one GraphDB per CloudStore.
///
/// With options.checkpoint.enabled the DB is durable per write: it runs on
/// a replication::RwNode whose own tree is the vertex tree and which logs
/// every forest tree too, so each acknowledged write is in the WAL, group
/// flushes are cuts of the node's checkpointer, and construction restarts
/// through RwNode::Recover (DESIGN.md §5.7). Otherwise every tree flushes
/// each write synchronously and nothing is recovered at construction.
class GraphDB : public graph::GraphEngine {
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
  /// One space-reclamation cycle over the base and delta streams; a durable
  /// DB also truncates its WAL before the older manifest slot's cursor.
  /// Call periodically (or use StartMaintenance; the benches call it
  /// explicitly for determinism).
  Status RunGcCycle();

  /// Starts a background thread running, every `interval_ms`, RunGcCycle
  /// and a restore warm of up to 32 pages per tree.
  /// Idempotent; stopped automatically at destruction.
  void StartMaintenance(uint64_t interval_ms);
  /// Stops the background maintenance thread (blocks until joined).
  void StopMaintenance();

  // --- WAL-backed durability (DESIGN.md §5.7) -------------------------------

  /// The RW node's checkpoint state machine over every tree (forest +
  /// vertex): Step/CheckpointNow drive it deterministically, Start/Stop run
  /// it on its own thread at options.checkpoint.interval_ms; writes run its
  /// group flushes. Null unless options.checkpoint.enabled.
  replication::Checkpointer* checkpointer() {
    return rw_ == nullptr ? nullptr : rw_->checkpointer();
  }

  /// Warms up to `max` restored pages of each tree (each tree's
  /// BwTree::WarmRestoredPages; demand reads warm their own pages
  /// concurrently, StartMaintenance drains them in the background); returns
  /// how many remain queued. 0 = restore fully materialized.
  Result<size_t> WarmRestoredPages(size_t max);

  /// True when construction recovered from a usable checkpoint manifest
  /// plus the WAL suffix past it.
  bool RestoredFromCheckpoint() const {
    return rw_ != nullptr && rw_->recovery().resumed_from_checkpoint;
  }
  /// True when a manifest slot was torn and the other slot's manifest
  /// bounded the WAL replay instead.
  bool CheckpointFellBack() const {
    return rw_ != nullptr && rw_->recovery().checkpoint_fell_back;
  }
  /// Storage bytes fetched rematerializing restored pages (warm sweep +
  /// nothing else; demand-read fills count through the store's read stats).
  uint64_t checkpoint_replay_bytes() const {
    return ckpt_replay_bytes_.Get();
  }

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
  bwtree::BwTree* vertex_tree() { return vertex_tree_; }
  cloud::CloudStore* store() { return store_; }
  gc::SpaceReclaimer* reclaimer() { return reclaimer_.get(); }
  const GraphDBOptions& options() const { return opts_; }
  uint64_t NowUs() const { return time_source_->NowUs(); }

 private:
  /// Every tree of the DB: GC relocation resolves through it, and it is
  /// the RW node's tree set. GC's victims go to the RW node's reclaim
  /// horizon; without one the DB has no restart path and frees them at once.
  class ResolverImpl : public gc::TreeResolver {
   public:
    explicit ResolverImpl(GraphDB* db)
        : db_(db), unpinned_(db->store_, /*pinned=*/false) {}
    bwtree::BwTree* Resolve(bwtree::TreeId id) override;
    void AppendTrees(std::vector<bwtree::BwTree*>* out) override;
    gc::ReclaimHorizon* horizon() override {
      return db_->rw_ != nullptr ? db_->rw_->checkpointer()->horizon()
                                 : &unpinned_;
    }

   private:
    GraphDB* const db_;
    gc::ReclaimHorizon unpinned_;
  };

  static constexpr bwtree::TreeId kVertexTreeId = 1ull << 62;

  /// options.checkpoint.enabled: brings up the RW node with the vertex tree
  /// as its own tree and the forest logging through it — recovered from
  /// the WAL when it holds anything, fresh otherwise.
  void OpenLogged(const bwtree::BwTreeOptions& vertex_opts,
                  forest::ForestOptions forest_opts);
  /// Runs the RW node's group-flush triggers after a successful write (a
  /// no-op without one).
  Status FinishWrite(Status written);

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

  std::unique_ptr<gc::ExtentUsageTracker> tracker_;
  ResolverImpl resolver_{this};
  /// The WAL-backed RW node (options.checkpoint.enabled); it owns the
  /// vertex tree then, and holds the one LSN counter of every tree.
  std::unique_ptr<replication::RwNode> rw_;
  /// The vertex tree when there is no RW node.
  std::unique_ptr<bwtree::BwTree> own_vertex_tree_;
  bwtree::BwTree* vertex_tree_ = nullptr;
  std::unique_ptr<forest::BwTreeForest> forest_;
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

  LightCounter ckpt_replay_bytes_;
};

}  // namespace bg3::core

#endif  // BG3_CORE_GRAPH_DB_H_
