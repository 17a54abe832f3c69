#include "core/graph_db.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/timed_scope.h"
#include "graph/edge.h"

namespace bg3::core {

namespace {

/// Restored pages per tree the maintenance thread warms each tick.
constexpr size_t kWarmPagesPerTick = 32;

/// The admission controller's queue-wait clock defaults to the DB's own
/// time source, so benches driving a ManualTimeSource get consistent
/// service-time estimates.
AdmissionOptions AdmissionWithDbClock(AdmissionOptions a,
                                      const cloud::TimeSource* db_clock) {
  if (a.time_source == nullptr) a.time_source = db_clock;
  return a;
}

/// Watermark refresh cadence: cheap enough to run inline, rare enough to
/// stay off the per-op fast path.
constexpr uint64_t kWritesPerOverloadRefresh = 256;

}  // namespace

bwtree::BwTree* GraphDB::ResolverImpl::Resolve(bwtree::TreeId id) {
  if (id == kVertexTreeId) return db_->vertex_tree_;
  return db_->forest_->ResolveTree(id);
}

void GraphDB::ResolverImpl::AppendTrees(std::vector<bwtree::BwTree*>* out) {
  out->push_back(db_->vertex_tree_);
  db_->forest_->AppendTrees(out);
}

GraphDB::GraphDB(cloud::CloudStore* store, const GraphDBOptions& options)
    : store_(store),
      opts_(options),
      admission_(AdmissionWithDbClock(options.admission,
                                      options.time_source)) {
  BG3_CHECK(opts_.Validate().ok()) << opts_.Validate().ToString();
  time_source_ =
      opts_.time_source != nullptr ? opts_.time_source : &wall_time_;

  base_stream_ = store_->CreateStream("bg3-base");
  delta_stream_ = store_->CreateStream("bg3-delta");

  tracker_ = std::make_unique<gc::ExtentUsageTracker>(time_source_);
  store_->SetObserver(tracker_.get());

  bwtree::BwTreeOptions vertex_opts;
  vertex_opts.tree_id = kVertexTreeId;
  vertex_opts.base_stream = base_stream_;
  vertex_opts.delta_stream = delta_stream_;
  vertex_opts.max_leaf_entries = opts_.vertex_tree_max_leaf_entries;
  vertex_opts.delta_mode = opts_.forest.tree_options.delta_mode;
  vertex_opts.consolidate_threshold =
      opts_.forest.tree_options.consolidate_threshold;
  vertex_opts.flush_mode = opts_.forest.tree_options.flush_mode;
  vertex_opts.tolerate_missing_extents = opts_.edge_ttl_us != 0;
  vertex_opts.tick_source = &access_tick_;

  forest::ForestOptions forest_opts = opts_.forest;
  forest_opts.tree_options.base_stream = base_stream_;
  forest_opts.tree_options.delta_stream = delta_stream_;
  forest_opts.tree_options.tolerate_missing_extents = opts_.edge_ttl_us != 0;
  forest_opts.tree_options.tick_source = &access_tick_;
  if (opts_.checkpoint.enabled) {
    OpenLogged(vertex_opts, forest_opts);
  } else {
    own_vertex_tree_ = std::make_unique<bwtree::BwTree>(store_, vertex_opts);
    vertex_tree_ = own_vertex_tree_.get();
    forest_ = std::make_unique<forest::BwTreeForest>(store_, forest_opts);
  }

  gc_policy_ = MakeGcPolicy(opts_.gc_policy, opts_.gc_min_fragmentation,
                            opts_.gc_ttl_bypass_window_us);
  if (gc_policy_ != nullptr) {
    gc::ReclaimOptions reclaim;
    reclaim.ttl_us = opts_.edge_ttl_us;
    reclaim.target_dead_ratio = opts_.gc_target_dead_ratio;
    reclaimer_ = std::make_unique<gc::SpaceReclaimer>(
        store_, &resolver_, gc_policy_.get(), tracker_.get(), reclaim);
  }

  // Publish forest/GC internals in the process-wide registry, the one
  // read-out of engine state (RenderJson, RenderPrometheus, DebugServer
  // /metrics). Per-instance prefix: tests and benches routinely run several
  // GraphDBs per process.
  metrics_prefix_ =
      "bg3.db" + std::to_string(MetricsRegistry::NextInstanceId("db")) + ".";
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.RegisterLightCounter(metrics_prefix_ + "forest.split_outs",
                           &forest_->stats().split_outs);
  reg.RegisterLightCounter(metrics_prefix_ + "forest.evictions",
                           &forest_->stats().evictions);
  reg.RegisterLightCounter(metrics_prefix_ + "checkpoint.replay_bytes",
                           &ckpt_replay_bytes_);
  reg.RegisterCallback(metrics_prefix_ + "forest.tree_count",
                       [this] { return uint64_t{forest_->TreeCount()}; });
  reg.RegisterCallback(metrics_prefix_ + "forest.init_entries",
                       [this] { return uint64_t{forest_->InitEntryCount()}; });
  reg.RegisterCallback(metrics_prefix_ + "forest.owner_count",
                       [this] { return uint64_t{forest_->OwnerCount()}; });
  reg.RegisterCallback(metrics_prefix_ + "forest.owner_table_bytes",
                       [this] { return uint64_t{forest_->OwnerTableBytes()}; });
  // Leaf-latch traffic across the whole DB (forest trees + vertex tree),
  // split by mode: the shared/exclusive ratio is the read-path scalability
  // signal, conflicts are the contention signal.
  auto latch_counters = [this] {
    forest::BwTreeForest::LatchCounters agg =
        forest_->AggregateLatchCounters();
    const bwtree::BwTreeStats& vs = vertex_tree_->stats();
    agg.shared_acquires += vs.latch_shared_acquires.Get();
    agg.exclusive_acquires += vs.latch_exclusive_acquires.Get();
    agg.shared_conflicts += vs.latch_shared_conflicts.Get();
    agg.exclusive_conflicts += vs.latch_exclusive_conflicts.Get();
    return agg;
  };
  reg.RegisterCallback(metrics_prefix_ + "bwtree.latch.shared_acquires",
                       [latch_counters] {
                         return latch_counters().shared_acquires;
                       });
  reg.RegisterCallback(metrics_prefix_ + "bwtree.latch.exclusive_acquires",
                       [latch_counters] {
                         return latch_counters().exclusive_acquires;
                       });
  reg.RegisterCallback(metrics_prefix_ + "bwtree.latch.shared_conflicts",
                       [latch_counters] {
                         return latch_counters().shared_conflicts;
                       });
  reg.RegisterCallback(metrics_prefix_ + "bwtree.latch.exclusive_conflicts",
                       [latch_counters] {
                         return latch_counters().exclusive_conflicts;
                       });
  reg.RegisterCallback(metrics_prefix_ + "approx_memory_bytes",
                       [this] { return uint64_t{ApproxMemoryBytes()}; });
  reg.RegisterCallback(metrics_prefix_ + "bwtree.resident_bytes", [this] {
    return uint64_t{forest_->TotalResidentBytes() +
                    vertex_tree_->ResidentBytes()};
  });
  // Overload-protection surface (DESIGN.md §5.5): admission outcomes, the
  // shared queue depth, and the cloud breaker state, all under one prefix
  // so a single dashboard shows whether the DB is shedding and why.
  reg.RegisterCounter(metrics_prefix_ + "overload.admitted",
                      &admission_.admitted());
  reg.RegisterCounter(metrics_prefix_ + "overload.shed", &admission_.shed());
  reg.RegisterCounter(metrics_prefix_ + "overload.deadline_exceeded",
                      &admission_.deadline_exceeded());
  reg.RegisterGauge(metrics_prefix_ + "overload.queue_depth",
                    &admission_.queue_depth());
  reg.RegisterGauge(metrics_prefix_ + "overload.breaker_state",
                    &store_->breaker().state_gauge());
  reg.RegisterCallback(metrics_prefix_ + "overload.write_throttle", [this] {
    return uint64_t{admission_.write_throttle_reasons()};
  });
  if (reclaimer_ != nullptr) {
    reg.RegisterCallback(metrics_prefix_ + "gc.extents_reclaimed", [this] {
      return reclaimer_->totals().extents_reclaimed;
    });
    reg.RegisterCallback(metrics_prefix_ + "gc.extents_expired", [this] {
      return reclaimer_->totals().extents_expired;
    });
    reg.RegisterCallback(metrics_prefix_ + "gc.bytes_freed",
                         [this] { return reclaimer_->totals().bytes_freed; });
  }

  if (opts_.debug_server.enabled) {
    // Best effort: a debug endpoint that cannot bind (port in use) must
    // not fail database startup. debug_server_port() stays 0.
    Status s = debug_server_.Start(opts_.debug_server);
    if (!s.ok()) {
      std::fprintf(stderr, "[bg3] debug server not started: %s\n",
                   s.ToString().c_str());
    }
  }
}

GraphDB::~GraphDB() {
  // Stop serving before engine teardown so no handler renders metrics while
  // callbacks registered against this instance are being torn down.
  debug_server_.Stop();
  // Stops the checkpoint thread before the trees it flushes go away.
  if (rw_ != nullptr) rw_->checkpointer()->Stop();
  StopMaintenance();
  MetricsRegistry::Default().DeregisterPrefix(metrics_prefix_);
  store_->SetObserver(nullptr);
}

void GraphDB::StartMaintenance(uint64_t interval_ms) {
  std::lock_guard<std::mutex> lock(maint_mu_);
  if (maint_thread_.joinable()) return;
  maint_stop_ = false;
  maint_thread_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(maint_mu_);
    while (!maint_stop_) {
      maint_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return maint_stop_; });
      if (maint_stop_) return;
      lock.unlock();
      // Best-effort background cycle; failures surface via gc stats and the
      // next foreground RunGcCycle caller. A failed restore warm stays
      // queued, so the next tick retries it.
      BG3_IGNORE_STATUS(RunGcCycle());
      BG3_IGNORE_STATUS(WarmRestoredPages(kWarmPagesPerTick).status());
      lock.lock();
    }
  });
}

void GraphDB::StopMaintenance() {
  std::thread joinee;
  {
    std::lock_guard<std::mutex> lock(maint_mu_);
    if (!maint_thread_.joinable()) return;
    maint_stop_ = true;
    joinee = std::move(maint_thread_);
  }
  maint_cv_.notify_all();
  joinee.join();
}

void GraphDB::OpenLogged(const bwtree::BwTreeOptions& vertex_opts,
                         forest::ForestOptions forest_opts) {
  replication::RwNodeOptions rw_opts;
  rw_opts.tree = vertex_opts;
  rw_opts.wal.stream = store_->CreateStream("bg3-wal");
  rw_opts.checkpoint = opts_.checkpoint;
  // The node's own tree is the vertex tree; the forest's trees log through
  // the node. `source` is null on a fresh start.
  const auto open_forest =
      [this, &forest_opts](replication::RwNode* node,
                           const bwtree::RecoveredTreeSource* source) {
        vertex_tree_ = node->tree();
        forest_opts.tree_options =
            node->LoggedTreeOptions(forest_opts.tree_options);
        if (source == nullptr) {
          forest_ = std::make_unique<forest::BwTreeForest>(store_, forest_opts);
          return Status::OK();
        }
        BG3_ASSIGN_OR_RETURN(forest_, forest::BwTreeForest::Recover(
                                          store_, forest_opts, *source));
        return Status::OK();
      };
  if (store_->TotalBytes(rw_opts.wal.stream) == 0) {
    rw_ = std::make_unique<replication::RwNode>(store_, rw_opts, &resolver_);
    BG3_CHECK(open_forest(rw_.get(), nullptr).ok());
    return;
  }
  auto recovered = replication::RwNode::Recover(
      store_, rw_opts, &resolver_,
      [&open_forest](replication::RwNode* node,
                     const bwtree::RecoveredTreeSource& source) {
        return open_forest(node, &source);
      });
  BG3_CHECK(recovered.ok()) << "GraphDB restart from the WAL failed: "
                            << recovered.status().ToString();
  rw_ = recovered.take();
}

Status GraphDB::FinishWrite(Status written) {
  if (!written.ok() || rw_ == nullptr) return written;
  return rw_->MaybeCheckpoint();
}

Result<size_t> GraphDB::WarmRestoredPages(size_t max) {
  if (rw_ == nullptr) return size_t{0};  // nothing is ever restored then
  std::vector<bwtree::BwTree*> trees;
  resolver_.AppendTrees(&trees);
  size_t remaining = 0;
  for (bwtree::BwTree* tree : trees) {
    uint64_t bytes = 0;
    auto left = tree->WarmRestoredPages(max, &bytes);
    ckpt_replay_bytes_.Add(bytes);
    BG3_RETURN_IF_ERROR(left.status());
    remaining += left.value();
  }
  return remaining;
}

bool GraphDB::EdgeExpired(graph::TimestampUs created_us) const {
  return opts_.edge_ttl_us != 0 &&
         created_us + opts_.edge_ttl_us <= time_source_->NowUs();
}

Status GraphDB::AdmitOp(OpClass cls, const OpContext* ctx,
                        AdmissionController::Permit* permit) {
  // A deadline already dead at the boundary is the caller's bug
  // (InvalidArgument), not a DeadlineExceeded — see ValidateOpContext.
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  BG3_RETURN_IF_ERROR(admission_.Admit(cls, ctx, permit));
  if (cls == OpClass::kWrite && admission_.enabled() &&
      writes_since_refresh_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          kWritesPerOverloadRefresh) {
    RefreshOverloadState();
  }
  return Status::OK();
}

void GraphDB::RefreshOverloadState() {
  writes_since_refresh_.store(0, std::memory_order_relaxed);
  if (!admission_.enabled()) return;
  uint32_t reasons = admission_.write_throttle_reasons();
  if (opts_.memory_budget_bytes != 0 &&
      opts_.admission.memory_throttle_ratio > 0) {
    const size_t memory = ApproxMemoryBytes();
    const double limit =
        opts_.admission.memory_throttle_ratio *
        static_cast<double>(opts_.memory_budget_bytes);
    if (static_cast<double>(memory) > limit) {
      reasons |= ThrottleReason::kMemoryPressure;
    } else {
      reasons &= ~ThrottleReason::kMemoryPressure;
    }
  }
  admission_.SetWriteThrottle(reasons);
}

Status GraphDB::AddVertex(graph::VertexId id, const Slice& properties,
                          const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.add_vertex", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kWrite, ctx, &permit));
  return FinishWrite(
      vertex_tree_->Upsert(graph::EncodeDstKey(id), properties, ctx));
}

Result<std::string> GraphDB::GetVertex(graph::VertexId id,
                                       const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.get_vertex", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kRead, ctx, &permit));
  return vertex_tree_->Get(graph::EncodeDstKey(id), ctx);
}

Status GraphDB::DeleteVertex(graph::VertexId id, graph::EdgeType type,
                             const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.delete_vertex", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kWrite, ctx, &permit));
  {
    // The vertex row may never have been materialized; only NotFound is
    // ignorable — a real storage error must fail the delete.
    Status s = vertex_tree_->Delete(graph::EncodeDstKey(id), ctx);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  const uint64_t owner = graph::MakeOwnerId(id, type);
  std::vector<bwtree::Entry> entries;
  BG3_RETURN_IF_ERROR(forest_->ScanOwner(owner, Slice(), ~0ull, &entries,
                                         ctx));
  for (const bwtree::Entry& e : entries) {
    BG3_RETURN_IF_ERROR(forest_->Delete(owner, e.key, ctx));
  }
  return FinishWrite(Status::OK());
}

Status GraphDB::AddEdge(graph::VertexId src, graph::EdgeType type,
                        graph::VertexId dst, const Slice& properties,
                        graph::TimestampUs created_us, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.add_edge", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kWrite, ctx, &permit));
  if (created_us == 0) created_us = time_source_->NowUs();
  return FinishWrite(forest_->Upsert(
      graph::MakeOwnerId(src, type), graph::EncodeDstKey(dst),
      graph::EncodeEdgeValue(created_us, properties), ctx));
}

Status GraphDB::DeleteEdge(graph::VertexId src, graph::EdgeType type,
                           graph::VertexId dst, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.delete_edge", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kWrite, ctx, &permit));
  return FinishWrite(forest_->Delete(graph::MakeOwnerId(src, type),
                                     graph::EncodeDstKey(dst), ctx));
}

Result<std::string> GraphDB::GetEdge(graph::VertexId src, graph::EdgeType type,
                                     graph::VertexId dst,
                                     const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.get_edge", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kRead, ctx, &permit));
  auto value = forest_->Get(graph::MakeOwnerId(src, type),
                            graph::EncodeDstKey(dst), ctx);
  BG3_RETURN_IF_ERROR(value.status());
  graph::TimestampUs created_us;
  Slice properties;
  if (!graph::DecodeEdgeValue(Slice(value.value()), &created_us,
                              &properties)) {
    return Status::Corruption("edge value");
  }
  if (EdgeExpired(created_us)) return Status::NotFound("edge expired");
  return properties.ToString();
}

Status GraphDB::GetNeighbors(graph::VertexId src, graph::EdgeType type,
                             size_t limit,
                             std::vector<graph::Neighbor>* out,
                             const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.get_neighbors", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kRead, ctx, &permit));
  // Each stored entry is decoded in place, under the leaf latch: only the
  // properties are copied. `limit` counts stored entries, expired ones
  // included. On failure `out` is left as it was.
  // Both callbacks capture one pointer to this frame's state, so each fits
  // std::function's inline buffer and the call allocates no closure.
  struct ScanState {
    const GraphDB* db;
    std::vector<graph::Neighbor>* out;
    size_t size_at_entry;
    bool corrupt;
  } st{this, out, out->size(), false};
  Status s = forest_->ScanOwner(
      graph::MakeOwnerId(src, type), Slice(), limit,
      [&st](const Slice& key, const Slice& value) {
        graph::VertexId dst;
        graph::TimestampUs created_us;
        Slice properties;
        if (!graph::DecodeDstKey(key, &dst) ||
            !graph::DecodeEdgeValue(value, &created_us, &properties)) {
          st.corrupt = true;
          return false;
        }
        if (!st.db->EdgeExpired(created_us)) {
          st.out->push_back(
              graph::Neighbor{dst, created_us, properties.ToString()});
        }
        return true;
      },
      [&st] {
        st.out->resize(st.size_at_entry);
        st.corrupt = false;
      },
      ctx);
  if (s.ok() && st.corrupt) s = Status::Corruption("adjacency entry");
  if (!s.ok()) out->resize(st.size_at_entry);
  return s;
}

Status GraphDB::RunGcCycle() {
  BG3_TIMED_SCOPE("bg3.api.run_gc_cycle");
  // GC competes under its own (small) admission class so a maintenance
  // storm cannot crowd out foreground work; it never carries a deadline.
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(admission_.Admit(OpClass::kBackground, nullptr,
                                       &permit));
  if (opts_.memory_budget_bytes != 0) {
    const size_t memory = ApproxMemoryBytes();
    if (memory > opts_.memory_budget_bytes) {
      // One buffer pool over every tree (forest + vertex): evict the
      // globally coldest clean leaves until resident payload fits in the
      // budget minus the structural overhead eviction cannot shrink. The
      // old per-tree target made the footprint scale with the tree count
      // as the forest split owners out; a byte budget does not.
      std::vector<bwtree::BwTree*> trees;
      resolver_.AppendTrees(&trees);
      const size_t resident = forest::TotalResidentBytesAcross(trees);
      const size_t overhead = memory > resident ? memory - resident : 0;
      const size_t payload_budget = opts_.memory_budget_bytes > overhead
                                        ? opts_.memory_budget_bytes - overhead
                                        : 0;
      // Eviction is advisory here: the cycle still reports success when the
      // budget cannot be met (the write throttle reacts to the watermark).
      BG3_IGNORE_STATUS(forest::EvictTreesToBudget(trees, payload_budget));
    }
  }
  // Eviction just ran, so the memory watermark is freshest here — the GC
  // cycle is what clears a memory-pressure write throttle.
  RefreshOverloadState();
  if (rw_ != nullptr) {
    // One node has no follower floor: the WAL goes up to the reclaim
    // horizon, the older manifest slot's cursor.
    rw_->checkpointer()->TruncateWal(cloud::kInvalidExtent);
  }
  if (reclaimer_ == nullptr) return Status::OK();
  BG3_RETURN_IF_ERROR(
      reclaimer_->RunCycle(base_stream_, opts_.gc_extents_per_cycle).status());
  BG3_RETURN_IF_ERROR(
      reclaimer_->RunCycle(delta_stream_, opts_.gc_extents_per_cycle)
          .status());
  return Status::OK();
}

size_t GraphDB::ApproxMemoryBytes() const {
  return forest_->ApproxMemoryBytes() + vertex_tree_->ApproxMemoryBytes();
}

}  // namespace bg3::core
