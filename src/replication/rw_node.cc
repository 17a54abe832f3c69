#include "replication/rw_node.h"

#include "common/logging.h"
#include "replication/ro_node.h"

namespace bg3::replication {

RwNode::RwNode(cloud::CloudStore* store, const RwNodeOptions& options)
    : RwNode(store, options, /*bootstrap=*/false) {}

RwNode::RwNode(cloud::CloudStore* store, const RwNodeOptions& options,
               bool bootstrap)
    : store_(store), opts_(options), wal_(store, options.wal) {
  bwtree::BwTreeOptions tree_opts = opts_.tree;
  tree_opts.flush_mode = bwtree::FlushMode::kDeferred;
  tree_opts.read_cache = bwtree::ReadCacheMode::kFull;
  tree_opts.listener = this;
  tree_opts.bootstrap = bootstrap;
  if (tree_opts.lsn_source == nullptr) tree_opts.lsn_source = &lsn_source_;
  tree_ = std::make_unique<bwtree::BwTree>(store_, tree_opts);
  // The cast happens here, where the private base is accessible.
  CheckpointTarget* target = this;
  checkpointer_ =
      std::make_unique<Checkpointer>(store_, target, opts_.checkpoint);
}

Result<std::unique_ptr<RwNode>> RwNode::Recover(cloud::CloudStore* store,
                                                const RwNodeOptions& options) {
  // Rebuild the tree state the way an RO node would: the durable
  // checkpoint (if any) bounds the WAL scan to the suffix past its cursor;
  // manifest images ("old mapping") supply everything the prefix held, and
  // the export leaves the pages the suffix did not touch on storage.
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
  auto node = std::unique_ptr<RwNode>(
      new RwNode(store, options, /*bootstrap=*/true));
  // Resume the LSN sequence after everything already in the WAL, so the
  // recovered node's records extend the same total order.
  node->lsn_source_.store(exported.max_lsn, std::memory_order_release);
  node->last_checkpoint_.store(exported.max_lsn, std::memory_order_release);
  node->export_cursor_ = exported.wal_cursor;
  node->recovery_ = exported.replay;
  BG3_RETURN_IF_ERROR(
      node->tree_->InstallRecoveredPages(std::move(exported.pages)));
  // Republish images for pages the WAL suffix touched and checkpoint, so RO
  // replay logs can be discarded and fresh readers seek past the exported
  // prefix. Pages whose published image is still their content were
  // installed clean (most of them demand-paged) — this cut is bounded by
  // the suffix, not the DB size.
  BG3_RETURN_IF_ERROR(node->checkpointer_->CheckpointNow());
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
  return MaybeCheckpoint();
}

Status RwNode::Delete(const Slice& key, const OpContext* ctx) {
  BG3_RETURN_IF_ERROR(
      CheckWalBacklog(wal_, opts_.wal_backlog_watermark, &writes_shed_));
  BG3_RETURN_IF_ERROR(tree_->Delete(key, ctx));
  return MaybeCheckpoint();
}

Result<std::string> RwNode::Get(const Slice& key, const OpContext* ctx) {
  return tree_->Get(key, ctx);
}

Status RwNode::Scan(const bwtree::BwTree::ScanOptions& options,
                    std::vector<bwtree::Entry>* out, const OpContext* ctx) {
  return tree_->Scan(options, out, ctx);
}

Status RwNode::MaybeCheckpoint() {
  const bwtree::Lsn lsn = lsn_source_.load(std::memory_order_relaxed);
  const bool mutation_pressure =
      lsn - last_checkpoint_.load(std::memory_order_relaxed) >=
      opts_.flush_group_mutations;
  // Cheap dirty-count probe; the cut takes the exact snapshot.
  if (!mutation_pressure &&
      tree_->DirtyPageIds().size() < opts_.flush_group_pages) {
    return Status::OK();
  }
  return checkpointer_->CheckpointNow();
}

CheckpointTarget::Scope RwNode::CheckpointScope() const {
  return Scope{WalCheckpointScope(opts_.wal.stream), opts_.wal.stream};
}

Status RwNode::BeginCut(CutStart* cut) {
  cut->lsn = CurrentLsn();
  BG3_RETURN_IF_ERROR(wal_.Flush());
  cut->wal_cursor = wal_.committed_cursor();
  if (cut->wal_cursor.IsNull()) cut->wal_cursor = export_cursor_;
  cut_leaves_ = tree_->LeafCount();
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
  // An RO node rebuilds a page with no image from its split parent's image,
  // so a parent image newer than the split needs the child's beside it.
  if (tree_->LeafCount() != cut_leaves_) {
    BG3_RETURN_IF_ERROR(FlushTreeUntilStable(tree_.get()));
  }
  // The WAL must be visible before any manifest entry that presumes it
  // (RO nodes replay from the WAL on top of published images).
  BG3_RETURN_IF_ERROR(wal_.Flush());

  // A deposed leader's images would overwrite its successor's in the shared
  // mapping table. A fence landing after this check still races the puts
  // below (DESIGN.md §5.10).
  if (store_->StreamFenceTerm(opts_.wal.stream) > wal_.term()) {
    stager_.Discard();
    return Status::Fenced("deposed leader publishes no page image");
  }

  // Children before parents, so an RO node never observes a parent's
  // post-split image while the child image is missing.
  stager_.Publish(store_);

  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kCheckpoint;
  rec.tree_id = opts_.tree.tree_id;
  rec.lsn = cut_lsn;
  BG3_RETURN_IF_ERROR(wal_.Append(std::move(rec)));
  BG3_RETURN_IF_ERROR(wal_.Flush());
  last_checkpoint_.store(cut_lsn, std::memory_order_release);
  {
    // Committed cursor, not the raw physical tail: with pipelined appends
    // the tail may belong to an out-of-order batch whose predecessors are
    // still in flight — truncating up to it could drop unacked records.
    MutexLock lock(&ckpt_ptr_mu_);
    last_checkpoint_wal_ptr_ = wal_.committed_cursor().ptr;
  }
  manifest->checkpoint_lsn = cut_lsn;
  manifest->trees.push_back({opts_.tree.tree_id, cut_lsn});
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
