#include "replication/rw_node.h"

#include "common/logging.h"
#include "replication/ro_node.h"

namespace bg3::replication {

RwNode::RwNode(cloud::CloudStore* store, const RwNodeOptions& options,
               gc::TreeResolver* trees)
    : RwNode(store, options, trees, /*recovered=*/nullptr) {}

RwNode::RwNode(cloud::CloudStore* store, const RwNodeOptions& options,
               gc::TreeResolver* trees, const RoNode::ExportedTree* recovered)
    : store_(store), opts_(options), wal_(store, options.wal) {
  if (recovered != nullptr) {
    // Resume the LSN sequence after everything already in the WAL, so the
    // recovered node's records extend the same total order.
    lsn_source_.store(recovered->max_lsn, std::memory_order_release);
    last_checkpoint_.store(recovered->max_lsn, std::memory_order_release);
    export_cursor_ = recovered->wal_cursor;
    recovery_ = recovered->replay;
  }
  bwtree::BwTreeOptions tree_opts = LoggedTreeOptions(opts_.tree);
  tree_opts.bootstrap = recovered != nullptr;
  tree_ = std::make_unique<bwtree::BwTree>(store_, tree_opts);
  if (trees == nullptr) {
    own_set_ = std::make_unique<gc::SingleTreeResolver>(tree_.get());
    trees = own_set_.get();
  }
  trees_ = trees;
  checkpointer_ =
      std::make_unique<Checkpointer>(store_, this, opts_.checkpoint);
}

bwtree::BwTreeOptions RwNode::LoggedTreeOptions(bwtree::BwTreeOptions base) {
  base.flush_mode = bwtree::FlushMode::kDeferred;
  base.read_cache = bwtree::ReadCacheMode::kFull;
  base.listener = this;
  base.lsn_source = &lsn_source_;
  base.dirtied_pages = &dirtied_pages_;
  return base;
}

Result<std::unique_ptr<RwNode>> RwNode::Recover(
    cloud::CloudStore* store, const RwNodeOptions& options,
    gc::TreeResolver* trees, const SetRestorer& restore_set) {
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
  const bwtree::RecoveredTreeSource source =
      [&builder](bwtree::TreeId id)
      -> Result<std::vector<bwtree::RecoveredPage>> {
    auto tree = builder.ExportTree(id);
    BG3_RETURN_IF_ERROR(tree.status());
    return tree.take().pages;
  };
  return Build(store, options, trees, exported.take(), restore_set, source);
}

Result<std::unique_ptr<RwNode>> RwNode::FromExport(
    cloud::CloudStore* store, const RwNodeOptions& options,
    RoNode::ExportedTree&& exported) {
  return Build(store, options, /*trees=*/nullptr, std::move(exported),
               /*restore_set=*/{}, /*source=*/{});
}

Result<std::unique_ptr<RwNode>> RwNode::Build(
    cloud::CloudStore* store, const RwNodeOptions& options,
    gc::TreeResolver* trees, RoNode::ExportedTree&& exported,
    const SetRestorer& restore_set,
    const bwtree::RecoveredTreeSource& source) {
  auto node =
      std::unique_ptr<RwNode>(new RwNode(store, options, trees, &exported));
  BG3_RETURN_IF_ERROR(
      node->tree_->InstallRecoveredPages(std::move(exported.pages)));
  if (restore_set) BG3_RETURN_IF_ERROR(restore_set(node.get(), source));
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
  // A few atomic loads, whatever the size of the tree set.
  const bool due = lsn_source_.load(std::memory_order_relaxed) -
                           last_checkpoint_.load(std::memory_order_relaxed) >=
                       opts_.flush_group_mutations ||
                   dirtied_pages_.load(std::memory_order_relaxed) >=
                       opts_.flush_group_pages;
  return due ? checkpointer_->CheckpointNow() : Status::OK();
}

Status RwNode::BeginCut(CutStart* cut) {
  cut->lsn = CurrentLsn();
  BG3_RETURN_IF_ERROR(wal_.Flush());
  cut->wal_cursor = wal_.committed_cursor();
  if (cut->wal_cursor.IsNull()) cut->wal_cursor = export_cursor_;
  if (cut->wal_cursor.IsNull()) {
    return Status::Aborted("no durable WAL position to cut at");
  }
  // Listed after the WAL flush: a tree created later has all of its
  // records past the cursor (GraphDB's forest creates and lists a tree
  // atomically), so no tree with records behind the cursor escapes the cut.
  // The count restarts before the listing: a page dirtied from here on is
  // either flushed by this cut or counted toward the next.
  dirtied_pages_.store(0, std::memory_order_relaxed);
  cut_leaves_.clear();
  std::vector<bwtree::BwTree*> trees;
  trees_->AppendTrees(&trees);
  for (bwtree::BwTree* tree : trees) {
    const bwtree::TreeId id = tree->options().tree_id;
    cut_leaves_[id] = tree->LeafCount();
    for (bwtree::PageId page : tree->DirtyPageIds()) {
      cut->dirty.emplace_back(id, page);
    }
  }
  return Status::OK();
}

Status RwNode::FlushPage(bwtree::TreeId tree, bwtree::PageId page) {
  bwtree::BwTree* t = trees_->Resolve(tree);
  return t == nullptr ? Status::NotFound("tree") : t->FlushPage(page);
}

Status RwNode::CommitCheckpoint(bwtree::Lsn cut_lsn,
                                CheckpointManifest* manifest) {
  // An RO node rebuilds a page with no image from its split parent's image,
  // so a parent image newer than the split needs the child's beside it:
  // re-flush every tree that split during the cut. A tree born during the
  // cut had no page in it; flush it whole.
  std::vector<bwtree::BwTree*> trees;
  trees_->AppendTrees(&trees);
  for (bwtree::BwTree* tree : trees) {
    auto it = cut_leaves_.find(tree->options().tree_id);
    if (it == cut_leaves_.end() || it->second != tree->LeafCount()) {
      BG3_RETURN_IF_ERROR(FlushTreeUntilStable(tree));
    }
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
  manifest->checkpoint_lsn = cut_lsn;
  for (bwtree::BwTree* tree : trees) {
    manifest->trees.push_back({tree->options().tree_id, cut_lsn});
  }
  return Status::OK();
}

void RwNode::OnTreeInit(bwtree::TreeId tree, bwtree::PageId initial_page) {
  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kTreeInit;
  rec.tree_id = tree;
  rec.page_id = initial_page;
  BG3_IGNORE_STATUS(wal_.Append(std::move(rec)));
  BG3_IGNORE_STATUS(wal_.Flush());
}

Status RwNode::OnMutation(bwtree::TreeId tree, bwtree::PageId page,
                          bwtree::Lsn lsn, const bwtree::EntryView& entry) {
  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kMutation;
  rec.tree_id = tree;
  rec.page_id = page;
  rec.lsn = lsn;
  rec.entry = {entry.op, entry.key.ToString(), entry.value.ToString()};
  return wal_.Append(std::move(rec));
}

Status RwNode::OnSplit(bwtree::TreeId tree, bwtree::PageId old_page,
                       bwtree::PageId new_page, bwtree::Lsn lsn,
                       const std::string& separator) {
  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kSplit;
  rec.tree_id = tree;
  rec.page_id = old_page;
  rec.aux_page_id = new_page;
  rec.lsn = lsn;
  rec.separator = separator;
  return wal_.Append(std::move(rec));
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
