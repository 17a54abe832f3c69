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

/// Raises `lsn` to at least `floor`, so post-restore mutations keep
/// flushed_lsn <= last_lsn on every restored page.
void RaiseLsnFloor(std::atomic<bwtree::Lsn>* lsn, bwtree::Lsn floor) {
  bwtree::Lsn cur = lsn->load(std::memory_order_relaxed);
  while (cur < floor &&
         !lsn->compare_exchange_weak(cur, floor, std::memory_order_relaxed)) {
  }
}

}  // namespace

bwtree::BwTree* GraphDB::ResolverImpl::Resolve(bwtree::TreeId id) {
  if (id == kVertexTreeId) return db_->vertex_tree_.get();
  return db_->forest_->ResolveTree(id);
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

  // Checkpoint restore happens before the trees exist: the manifest decides
  // which trees come up in bootstrap mode with their checkpointed layout.
  replication::CheckpointManifest restore_manifest;
  bool restoring = false;
  if (opts_.checkpoint.enabled) {
    auto loaded = replication::LoadCheckpoint(store_, kCheckpointScope);
    if (loaded.ok()) {
      restore_manifest = std::move(loaded.value().manifest);
      checkpoint_fell_back_ = loaded.value().fell_back;
      restoring = true;
      RaiseLsnFloor(&lsn_, restore_manifest.checkpoint_lsn);
    }
  }
  std::vector<bwtree::RecoveredPage> vertex_pages;
  if (restoring) vertex_pages = LoadTreeImages(kVertexTreeId);

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
  vertex_opts.lsn_source = &lsn_;
  if (opts_.checkpoint.enabled) {
    // Checkpointing owns durability: writes stay in memory and the
    // checkpointer's bounded flush rounds persist them (the images publish
    // through the stager at each commit).
    vertex_opts.flush_mode = bwtree::FlushMode::kDeferred;
    vertex_opts.listener = &stager_;
  }
  vertex_opts.bootstrap = !vertex_pages.empty();
  vertex_tree_ = std::make_unique<bwtree::BwTree>(store_, vertex_opts);
  if (vertex_opts.bootstrap &&
      !vertex_tree_->InstallRecoveredPages(std::move(vertex_pages)).ok()) {
    // Unusable layout (e.g. a crash tore a split's image pair): fall back
    // to a fresh tree — the vertex data beyond the last coherent images is
    // past the restore horizon.
    vertex_opts.bootstrap = false;
    vertex_tree_ = std::make_unique<bwtree::BwTree>(store_, vertex_opts);
  }

  forest::ForestOptions forest_opts = opts_.forest;
  forest_opts.tree_options.base_stream = base_stream_;
  forest_opts.tree_options.delta_stream = delta_stream_;
  forest_opts.tree_options.tolerate_missing_extents = opts_.edge_ttl_us != 0;
  forest_opts.tree_options.tick_source = &access_tick_;
  forest_opts.tree_options.lsn_source = &lsn_;
  if (opts_.checkpoint.enabled) {
    forest_opts.tree_options.flush_mode = bwtree::FlushMode::kDeferred;
    forest_opts.tree_options.listener = &stager_;
  }
  std::vector<bwtree::RecoveredPage> init_pages;
  if (restoring) init_pages = LoadTreeImages(0);
  forest_opts.bootstrap_init = !init_pages.empty();
  forest_ = std::make_unique<forest::BwTreeForest>(store_, forest_opts);
  if (forest_opts.bootstrap_init &&
      !forest_->InstallInitPages(std::move(init_pages)).ok()) {
    forest_opts.bootstrap_init = false;
    forest_ = std::make_unique<forest::BwTreeForest>(store_, forest_opts);
  }
  if (restoring) RestoreFromManifest(restore_manifest);

  resolver_ = std::make_unique<ResolverImpl>(this);
  gc_policy_ = MakeGcPolicy(opts_.gc_policy, opts_.gc_min_fragmentation,
                            opts_.gc_ttl_bypass_window_us);
  if (gc_policy_ != nullptr) {
    gc::ReclaimOptions reclaim;
    reclaim.ttl_us = opts_.edge_ttl_us;
    reclaim.target_dead_ratio = opts_.gc_target_dead_ratio;
    reclaimer_ = std::make_unique<gc::SpaceReclaimer>(
        store_, resolver_.get(), gc_policy_.get(), tracker_.get(), reclaim);
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

  if (opts_.checkpoint.enabled) {
    replication::CheckpointerOptions ckpt_opts;
    ckpt_opts.interval_ms = opts_.checkpoint.interval_ms;
    ckpt_opts.max_pages_per_round = opts_.checkpoint.max_pages_per_cycle;
    // The cast happens here, where the private base is accessible.
    replication::CheckpointTarget* target = this;
    checkpointer_ =
        std::make_unique<replication::Checkpointer>(store_, target, ckpt_opts);
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
  checkpointer_.reset();  // stops its thread before the trees go away
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

std::vector<bwtree::RecoveredPage> GraphDB::LoadTreeImages(
    bwtree::TreeId tree) {
  std::vector<bwtree::RecoveredPage> pages;
  for (const auto& [key, value] :
       store_->ManifestList(replication::PageImagePrefix(tree))) {
    bwtree::TreeId parsed_tree;
    bwtree::PageId page;
    if (!replication::ParsePageImageKey(key, &parsed_tree, &page) ||
        parsed_tree != tree) {
      continue;
    }
    replication::PageImageMeta meta;
    if (!replication::PageImageMeta::Decode(Slice(value), &meta).ok() ||
        !meta.delta_ptrs.empty()) {
      // A corrupt or delta-carrying image cannot be demand-paged; treat the
      // whole tree as unrestorable (fresh-tree fallback) rather than
      // resurrecting a partial layout.
      return {};
    }
    pages.push_back(replication::RecoveredPageFromImage(page, meta));
  }
  // Images of a cut that never reached its manifest may sit past the
  // manifest's LSN; they are installed all the same.
  for (const auto& rp : pages) RaiseLsnFloor(&lsn_, rp.last_lsn);
  return pages;
}

void GraphDB::RestoreFromManifest(
    const replication::CheckpointManifest& manifest) {
  for (const auto& owner : manifest.owners) {
    forest::OwnerRecord rec;
    rec.owner = owner.owner;
    rec.tree_id = owner.tree_id;
    rec.entry_count = owner.entry_count;
    std::vector<bwtree::RecoveredPage> pages;
    if (rec.tree_id != 0) pages = LoadTreeImages(rec.tree_id);
    if (!forest_->RestoreOwner(rec, std::move(pages)).ok()) {
      // Dedicated layout unusable: restore the owner empty, INIT-resident.
      BG3_IGNORE_STATUS(forest_->RestoreOwner(rec, {}));
    }
  }
  restored_from_checkpoint_ = true;
}

replication::CheckpointTarget::Scope GraphDB::CheckpointScope() const {
  return Scope{kCheckpointScope, std::nullopt};
}

Status GraphDB::BeginCut(CutStart* cut) {
  cut->lsn = CurrentLsn();
  // Trees a cut begins with: the vertex tree, INIT, and the dedicated trees
  // of the owner registry (a tree still being populated by a split-out is
  // not yet in it, and is treated as born during the cut).
  std::vector<bwtree::BwTree*> trees = {vertex_tree_.get(),
                                        forest_->ResolveTree(0)};
  for (const forest::OwnerRecord& rec : forest_->ExportOwners()) {
    if (rec.tree_id != 0) trees.push_back(forest_->ResolveTree(rec.tree_id));
  }
  cut_leaves_.clear();
  for (bwtree::BwTree* t : trees) {
    const bwtree::TreeId id = t->options().tree_id;
    cut_leaves_[id] = t->LeafCount();
    for (bwtree::PageId page : t->DirtyPageIds()) {
      cut->dirty.emplace_back(id, page);
    }
  }
  return Status::OK();
}

Status GraphDB::FlushPage(bwtree::TreeId tree, bwtree::PageId page) {
  bwtree::BwTree* t = resolver_->Resolve(tree);
  return t == nullptr ? Status::NotFound("tree") : t->FlushPage(page);
}

Status GraphDB::CommitCheckpoint(bwtree::Lsn cut_lsn,
                                 replication::CheckpointManifest* manifest) {
  // Without a WAL the images alone must rebuild each tree, so they must
  // tile it. The cut's rounds flushed a snapshot page by page; a split
  // during the cut can leave a narrowed page flushed without its new
  // sibling. Re-flush every tree that split since the cut began.
  for (const auto& [id, leaves] : cut_leaves_) {
    bwtree::BwTree* tree = resolver_->Resolve(id);
    if (tree != nullptr && tree->LeafCount() != leaves) {
      BG3_RETURN_IF_ERROR(replication::FlushTreeUntilStable(tree));
    }
  }
  // One owner snapshot, taken after INIT's last flush: an owner it places
  // in INIT left INIT, if at all, after those images. A dedicated tree born
  // during the cut (a split-out) had no page in the cut, so flush it now —
  // otherwise the manifest would route its owner to a tree with no images
  // while INIT's images already lack the owner's edges.
  const std::vector<forest::OwnerRecord> owners = forest_->ExportOwners();
  for (const forest::OwnerRecord& rec : owners) {
    if (rec.tree_id == 0 || cut_leaves_.count(rec.tree_id) != 0) continue;
    bwtree::BwTree* tree = forest_->ResolveTree(rec.tree_id);
    if (tree != nullptr) BG3_RETURN_IF_ERROR(replication::FlushTreeUntilStable(tree));
  }
  // Images first, manifest last (the Checkpointer publishes it after this
  // returns). Every image published so far carries an LSN at or below the
  // cut's, or is in this batch, so the max is the highest LSN any image
  // covers — restore raises the LSN floor to it.
  manifest->checkpoint_lsn = cut_lsn;
  for (const auto& [tree_id, lsn] : stager_.Publish(store_)) {
    manifest->trees.push_back(replication::CheckpointTree{tree_id, lsn});
    manifest->checkpoint_lsn = std::max(manifest->checkpoint_lsn, lsn);
  }
  for (const forest::OwnerRecord& rec : owners) {
    manifest->owners.push_back(
        replication::CheckpointOwner{rec.owner, rec.tree_id, rec.entry_count});
  }
  return Status::OK();
}

Result<size_t> GraphDB::WarmRestoredPages(size_t max) {
  if (!restored_from_checkpoint_) return size_t{0};
  std::vector<bwtree::BwTree*> trees = {vertex_tree_.get()};
  forest_->AppendTrees(&trees);
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
  return vertex_tree_->Upsert(graph::EncodeDstKey(id), properties, ctx);
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
  return Status::OK();
}

Status GraphDB::AddEdge(graph::VertexId src, graph::EdgeType type,
                        graph::VertexId dst, const Slice& properties,
                        graph::TimestampUs created_us, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.add_edge", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kWrite, ctx, &permit));
  if (created_us == 0) created_us = time_source_->NowUs();
  return forest_->Upsert(graph::MakeOwnerId(src, type),
                         graph::EncodeDstKey(dst),
                         graph::EncodeEdgeValue(created_us, properties), ctx);
}

Status GraphDB::DeleteEdge(graph::VertexId src, graph::EdgeType type,
                           graph::VertexId dst, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.delete_edge", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kWrite, ctx, &permit));
  return forest_->Delete(graph::MakeOwnerId(src, type),
                         graph::EncodeDstKey(dst), ctx);
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
  std::string properties;
  if (!graph::DecodeEdgeValue(Slice(value.value()), &created_us,
                              &properties)) {
    return Status::Corruption("edge value");
  }
  if (EdgeExpired(created_us)) return Status::NotFound("edge expired");
  return properties;
}

Status GraphDB::GetNeighbors(graph::VertexId src, graph::EdgeType type,
                             size_t limit,
                             std::vector<graph::Neighbor>* out,
                             const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.api.get_neighbors", OpLayer::kApi, ctx);
  AdmissionController::Permit permit;
  BG3_RETURN_IF_ERROR(AdmitOp(OpClass::kRead, ctx, &permit));
  std::vector<bwtree::Entry> entries;
  BG3_RETURN_IF_ERROR(forest_->ScanOwner(graph::MakeOwnerId(src, type),
                                         Slice(), limit, &entries, ctx));
  out->reserve(out->size() + entries.size());
  for (const bwtree::Entry& e : entries) {
    graph::VertexId dst;
    graph::TimestampUs created_us;
    std::string properties;
    if (!graph::DecodeDstKey(Slice(e.key), &dst) ||
        !graph::DecodeEdgeValue(Slice(e.value), &created_us, &properties)) {
      return Status::Corruption("adjacency entry");
    }
    if (EdgeExpired(created_us)) continue;
    out->push_back(graph::Neighbor{dst, created_us, std::move(properties)});
  }
  return Status::OK();
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
      forest_->AppendTrees(&trees);
      trees.push_back(vertex_tree_.get());
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
