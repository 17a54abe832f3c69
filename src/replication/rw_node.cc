#include "replication/rw_node.h"

#include "common/logging.h"
#include "replication/ro_node.h"

namespace bg3::replication {

RwNode::RwNode(cloud::CloudStore* store, const RwNodeOptions& options)
    : store_(store), opts_(options), wal_(store, options.wal) {
  SetLockRanks();
  bwtree::BwTreeOptions tree_opts = opts_.tree;
  tree_opts.flush_mode = bwtree::FlushMode::kDeferred;
  tree_opts.read_cache = bwtree::ReadCacheMode::kFull;
  tree_opts.listener = this;
  if (tree_opts.lsn_source == nullptr) tree_opts.lsn_source = &lsn_source_;
  tree_ = std::make_unique<bwtree::BwTree>(store_, tree_opts);
}

RwNode::RwNode(BootstrapTag, cloud::CloudStore* store,
               const RwNodeOptions& options)
    : store_(store), opts_(options), wal_(store, options.wal) {
  SetLockRanks();
  bwtree::BwTreeOptions tree_opts = opts_.tree;
  tree_opts.flush_mode = bwtree::FlushMode::kDeferred;
  tree_opts.read_cache = bwtree::ReadCacheMode::kFull;
  tree_opts.listener = this;
  tree_opts.bootstrap = true;  // layout installed by Recover()
  if (tree_opts.lsn_source == nullptr) tree_opts.lsn_source = &lsn_source_;
  tree_ = std::make_unique<bwtree::BwTree>(store_, tree_opts);
}

void RwNode::SetLockRanks() {
  flush_mu_.SetRank(lock_rank::kRwNode_flush_mu, "RwNode::flush_mu_");
  ckpt_ptr_mu_.SetRank(lock_rank::kRwNode_ckpt_ptr_mu, "RwNode::ckpt_ptr_mu_");
}

Result<std::unique_ptr<RwNode>> RwNode::Recover(cloud::CloudStore* store,
                                                const RwNodeOptions& options) {
  // Materialize the full tree state the way an RO node would: the durable
  // checkpoint (if any) bounds the WAL scan to the suffix past its cursor;
  // manifest images ("old mapping") supply everything the prefix held.
  RoNodeOptions ro_opts;
  ro_opts.wal_stream = options.wal.stream;
  ro_opts.cache_capacity_pages = ~0ull;
  RoNode builder(store, ro_opts);
  auto exported = builder.ExportTree(options.tree.tree_id);
  BG3_RETURN_IF_ERROR(exported.status());
  return FromExport(store, options, std::move(exported.value()));
}

Result<std::unique_ptr<RwNode>> RwNode::FromExport(
    cloud::CloudStore* store, const RwNodeOptions& options,
    RoNode::ExportedTree&& exported) {
  auto node = std::unique_ptr<RwNode>(new RwNode(BootstrapTag{}, store, options));
  // Resume the LSN sequence after everything already in the WAL, so the
  // recovered node's records extend the same total order.
  node->lsn_source_.store(exported.max_lsn, std::memory_order_release);
  node->last_checkpoint_.store(exported.max_lsn, std::memory_order_release);
  BG3_RETURN_IF_ERROR(
      node->tree_->InstallRecoveredPages(std::move(exported.pages)));
  // Republish images for pages the WAL suffix touched and checkpoint, so RO
  // replay logs can be discarded and the WAL prefix becomes logically dead.
  // Pages whose exported content still matches their published image were
  // installed clean — this flush is bounded by the suffix, not the DB size.
  BG3_RETURN_IF_ERROR(node->FlushGroup());
  return node;
}

namespace {

/// Write-degradation watermark (DESIGN.md §5.5): a growing WAL flush
/// backlog means appends keep failing; piling more mutations onto it turns
/// a substrate blip into unbounded memory growth and an unbounded
/// recovery-replay window. Writes shed, reads never come through here.
Status CheckWalBacklog(const wal::WalWriter& wal, size_t watermark,
                       LightCounter* shed) {
  if (watermark == 0 || wal.BufferedRecords() < watermark) return Status::OK();
  shed->Inc();
  return Status::Overloaded("WAL flush backlog over watermark; write shed");
}

}  // namespace

Status RwNode::Put(const Slice& key, const Slice& value,
                   const OpContext* ctx) {
  BG3_RETURN_IF_ERROR(
      CheckWalBacklog(wal_, opts_.wal_backlog_watermark, &writes_shed_));
  BG3_RETURN_IF_ERROR(tree_->Upsert(key, value, ctx));
  return MaybeFlushGroup();
}

Status RwNode::Delete(const Slice& key, const OpContext* ctx) {
  BG3_RETURN_IF_ERROR(
      CheckWalBacklog(wal_, opts_.wal_backlog_watermark, &writes_shed_));
  BG3_RETURN_IF_ERROR(tree_->Delete(key, ctx));
  return MaybeFlushGroup();
}

Result<std::string> RwNode::Get(const Slice& key, const OpContext* ctx) {
  return tree_->Get(key, ctx);
}

Status RwNode::Scan(const bwtree::BwTree::ScanOptions& options,
                    std::vector<bwtree::Entry>* out, const OpContext* ctx) {
  return tree_->Scan(options, out, ctx);
}

Status RwNode::MaybeFlushGroup() {
  const bwtree::Lsn lsn = lsn_source_.load(std::memory_order_relaxed);
  const bool mutation_pressure =
      lsn - last_checkpoint_.load(std::memory_order_relaxed) >=
      opts_.flush_group_mutations;
  // Cheap dirty-count probe; exact flush happens under flush_mu_.
  if (!mutation_pressure &&
      tree_->DirtyPageIds().size() < opts_.flush_group_pages) {
    return Status::OK();
  }
  return FlushGroup();
}

Status RwNode::FlushGroup() {
  MutexLock flush_lock(&flush_mu_);
  // Every mutation with LSN <= checkpoint will be covered by the images we
  // are about to flush (all currently dirty pages are flushed; later
  // mutations may also sneak into the images, which is harmless — RO replay
  // is LSN-gated per page).
  const bwtree::Lsn checkpoint =
      lsn_source_.load(std::memory_order_acquire);
  const std::vector<bwtree::PageId> dirty = tree_->DirtyPageIds();
  for (bwtree::PageId id : dirty) {
    BG3_RETURN_IF_ERROR(tree_->FlushPage(id));
  }
  return PublishStagedLocked(checkpoint, /*force_record=*/!dirty.empty());
}

CheckpointTarget::Scope RwNode::CheckpointScope() const {
  return Scope{WalCheckpointScope(opts_.wal.stream), opts_.wal.stream};
}

Status RwNode::BeginCut(CutStart* cut) {
  cut->lsn = CurrentLsn();
  BG3_RETURN_IF_ERROR(wal_.Flush());
  cut->wal_cursor = wal_.committed_cursor();
  for (bwtree::PageId id : tree_->DirtyPageIds()) {
    cut->dirty.emplace_back(opts_.tree.tree_id, id);
  }
  return Status::OK();
}

Status RwNode::FlushPage(bwtree::TreeId /*tree*/, bwtree::PageId page) {
  return tree_->FlushPage(page);
}

Status RwNode::CommitCheckpoint(bwtree::Lsn cut_lsn,
                                CheckpointManifest* manifest) {
  {
    MutexLock flush_lock(&flush_mu_);
    BG3_RETURN_IF_ERROR(PublishStagedLocked(cut_lsn, /*force_record=*/false));
  }
  manifest->checkpoint_lsn = cut_lsn;
  manifest->trees.push_back({opts_.tree.tree_id, cut_lsn});
  return Status::OK();
}

Status RwNode::PublishStagedLocked(bwtree::Lsn checkpoint, bool force_record) {
  // The WAL must be visible before any manifest entry that presumes it
  // (RO nodes replay from the WAL on top of published images).
  BG3_RETURN_IF_ERROR(wal_.Flush());

  // Children before parents, so an RO node never observes a parent's
  // post-split image while the child image is missing.
  const bool published = !stager_.Publish(store_).empty();

  if (force_record || published) {
    wal::WalRecord rec;
    rec.type = wal::WalRecord::Type::kCheckpoint;
    rec.tree_id = opts_.tree.tree_id;
    rec.lsn = checkpoint;
    BG3_RETURN_IF_ERROR(wal_.Append(std::move(rec)));
    BG3_RETURN_IF_ERROR(wal_.Flush());
    // Max-update: a fuzzy-cut commit carries the cut's (older) LSN and must
    // not roll back a further-along group-flush checkpoint.
    bwtree::Lsn prev = last_checkpoint_.load(std::memory_order_relaxed);
    while (prev < checkpoint &&
           !last_checkpoint_.compare_exchange_weak(
               prev, checkpoint, std::memory_order_release,
               std::memory_order_relaxed)) {
    }
    // Committed cursor, not the raw physical tail: with pipelined appends
    // the tail may belong to an out-of-order batch whose predecessors are
    // still in flight — truncating up to it could drop unacked records.
    MutexLock lock(&ckpt_ptr_mu_);
    last_checkpoint_wal_ptr_ = wal_.committed_cursor().ptr;
  }
  return Status::OK();
}

void RwNode::OnTreeInit(bwtree::TreeId tree, bwtree::PageId initial_page) {
  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kTreeInit;
  rec.tree_id = tree;
  rec.page_id = initial_page;
  // Observer callbacks return void; a failed append cannot abort the tree
  // init, but it must not vanish either — count it for monitoring.
  if (Status s = wal_.Append(std::move(rec)); !s.ok()) {
    wal_append_errors_.Inc();
  }
  if (Status s = wal_.Flush(); !s.ok()) {
    wal_append_errors_.Inc();
  }
}

void RwNode::OnMutation(bwtree::TreeId tree, bwtree::PageId page,
                        bwtree::Lsn lsn, const bwtree::DeltaEntry& entry) {
  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kMutation;
  rec.tree_id = tree;
  rec.page_id = page;
  rec.lsn = lsn;
  rec.entry = entry;
  if (Status s = wal_.Append(std::move(rec)); !s.ok()) {
    wal_append_errors_.Inc();
  }
}

void RwNode::OnSplit(bwtree::TreeId tree, bwtree::PageId old_page,
                     bwtree::PageId new_page, bwtree::Lsn lsn,
                     const std::string& separator) {
  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kSplit;
  rec.tree_id = tree;
  rec.page_id = old_page;
  rec.aux_page_id = new_page;
  rec.lsn = lsn;
  rec.separator = separator;
  if (Status s = wal_.Append(std::move(rec)); !s.ok()) {
    wal_append_errors_.Inc();
  }
}

void RwNode::OnPageFlushed(bwtree::TreeId tree, bwtree::PageId page,
                           bwtree::Lsn flushed_lsn,
                           const cloud::PagePointer& base_ptr,
                           const std::vector<cloud::PagePointer>& delta_ptrs,
                           const std::string& low_key,
                           const std::string& high_key, bool has_high_key) {
  stager_.OnPageFlushed(tree, page, flushed_lsn, base_ptr, delta_ptrs, low_key,
                        high_key, has_high_key);
}

}  // namespace bg3::replication
