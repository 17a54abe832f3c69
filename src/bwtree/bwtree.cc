#include "bwtree/bwtree.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/thread_annotations.h"
#include "common/timed_scope.h"

namespace bg3::bwtree {

namespace {

/// Starts a single-entry delta at the newest end of the leaf's chain.
void PushDelta(LeafPage* leaf, const EntryView& entry)
    BG3_REQUIRES(leaf->latch) {
  leaf->deltas.emplace_back(RecordKind::kDelta);
  leaf->deltas.back().Append(entry);
  leaf->delta_ptrs.emplace_back();
  ++leaf->delta_updates;
}

/// A point lookup in a page's runs: the newest delta holding `key`
/// decides, else the base does.
Result<std::string> LookupInRuns(const EntryRun& base,
                                 const std::vector<EntryRun>& deltas,
                                 const Slice& key) {
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    const size_t i = it->Find(key);
    if (i == it->size()) continue;
    const EntryView e = it->At(i);
    if (e.op == DeltaOp::kDelete) return Status::NotFound("deleted");
    return e.value.ToString();
  }
  const size_t i = base.Find(key);
  if (i == base.size()) return Status::NotFound("no such key");
  return base.At(i).value.ToString();
}

}  // namespace

BwTree::BwTree(cloud::CloudStore* store, const BwTreeOptions& options)
    : store_(store),
      opts_(options),
      lsn_source_(options.lsn_source != nullptr ? options.lsn_source
                                                : &local_lsn_),
      page_id_source_(options.page_id_source != nullptr
                          ? options.page_id_source
                          : &local_page_id_),
      tick_source_(options.tick_source != nullptr ? options.tick_source
                                                  : &local_tick_) {
  BG3_CHECK(store_ != nullptr) << "a Bw-tree needs a cloud store";
  BG3_CHECK(!(opts_.read_cache == ReadCacheMode::kNone &&
              opts_.flush_mode != FlushMode::kSync))
      << "zero-cache reads require sync flushing (storage must be current)";
  if (opts_.bootstrap) return;  // layout comes from InstallRecoveredPages
  // Initial empty leaf covering the whole key space.
  // Default-constructed LeafPage already covers the whole key space
  // (empty low key, no high key).
  auto page = std::make_unique<LeafPage>(NextPageId());
  if (opts_.flush_mode == FlushMode::kDeferred) {
    // The first flush publishes even an empty tree's image, so a restart
    // past the log's TreeInit record still finds the tree.
    WriterMutexLock init_lock(&page->latch);
    SetDirtyLocked(page.get(), true);
  }
  LeafPage* raw = index_.InsertPage(std::move(page));
  index_.InsertRoute("", raw->id);
  if (opts_.listener != nullptr) {
    opts_.listener->OnTreeInit(opts_.tree_id, raw->id);
  }
}

Status BwTree::InstallRecoveredPages(std::vector<RecoveredPage> pages) {
  BG3_CHECK(opts_.bootstrap) << "InstallRecoveredPages requires bootstrap";
  BG3_CHECK_EQ(index_.PageCount(), 0u) << "layout already installed";
  if (pages.empty()) return Status::InvalidArgument("no pages to install");
  std::sort(pages.begin(), pages.end(),
            [](const RecoveredPage& a, const RecoveredPage& b) {
              return a.low_key < b.low_key;
            });
  if (!pages.front().low_key.empty()) {
    return Status::InvalidArgument("first page must cover the key space start");
  }
  if (pages.back().has_high_key) {
    // A bounded last page (its split sibling's image missing) would route
    // every key past its high key back to itself.
    return Status::InvalidArgument("last page must cover the key space end");
  }
  PageId max_id = 0;
  std::vector<PageId> non_resident;
  for (size_t i = 0; i < pages.size(); ++i) {
    RecoveredPage& rp = pages[i];
    if (rp.id == kInvalidPage) return Status::InvalidArgument("bad page id");
    if (i + 1 < pages.size() &&
        (!rp.has_high_key || rp.high_key != pages[i + 1].low_key)) {
      return Status::InvalidArgument("recovered pages do not tile key space");
    }
    if (!rp.resident && (!rp.clean || rp.base_ptr.IsNull())) {
      return Status::InvalidArgument(
          "non-resident install requires a clean page with a base image");
    }
    auto page = std::make_unique<LeafPage>(rp.id);
    page->low_key = rp.low_key;
    {
      // Uncontended (the page is unpublished); latching makes the guarded
      // writes visible to the thread-safety analysis.
      WriterMutexLock init_lock(&page->latch);
      page->high_key = rp.high_key;
      page->has_high_key = rp.has_high_key;
      page->base_ptr = rp.base_ptr;
      page->last_lsn = rp.last_lsn;
      if (rp.clean) {
        // The published image is current; keep it authoritative so the
        // post-recovery flush skips this page (and eviction stays safe).
        page->flushed_lsn = rp.last_lsn;
      } else {
        // Republish a fresh image on the next flush.
        SetDirtyLocked(page.get(), true);
      }
      if (rp.resident) {
        page->base = std::move(rp.base);
      } else {
        // Metadata-only install: the first read (or the warm sweep)
        // demand-loads the base image via EnsureResidentLocked.
        page->resident = false;
        non_resident.push_back(rp.id);
      }
    }
    max_id = std::max(max_id, rp.id);
    LeafPage* raw = index_.InsertPage(std::move(page));
    index_.InsertRoute(raw->low_key, raw->id);
  }
  // Future page ids must not collide with the recovered layout.
  PageId cur = page_id_source_->load(std::memory_order_relaxed);
  while (cur <= max_id && !page_id_source_->compare_exchange_weak(
                              cur, max_id + 1, std::memory_order_relaxed)) {
  }
  if (!non_resident.empty()) {
    restore_queue_ = std::make_unique<RestoreQueue>();
    restore_queue_->ids = std::move(non_resident);
  }
  return Status::OK();
}

LeafPage* BwTree::FindAndLatchLeafExclusive(
    const Slice& key, std::unique_lock<SharedMutex>* lock) {
  bool refresh = false;
  for (;;) {
    LeafPage* leaf =
        refresh ? index_.FindLeafFresh(key) : index_.FindLeaf(key);
    BG3_CHECK(leaf != nullptr);
    std::unique_lock<SharedMutex> latch(leaf->latch, std::try_to_lock);
    if (!latch.owns_lock()) {
      stats_.latch_exclusive_conflicts.Inc();
      latch.lock();
    }
    leaf->latch.AssertHeld();
    stats_.latch_exclusive_acquires.Inc();
    // Re-validate: the leaf may have split between routing and latching,
    // or the routing snapshot/hint may have been stale.
    const bool in_range =
        key.compare(Slice(leaf->low_key)) >= 0 &&
        (!leaf->has_high_key || key.compare(Slice(leaf->high_key)) < 0);
    if (in_range) {
      leaf->last_access_tick.store(
          tick_source_->fetch_add(1, std::memory_order_relaxed),
          std::memory_order_relaxed);
      index_.NoteLeafHint(leaf, leaf->high_key, leaf->has_high_key);
      *lock = std::move(latch);
      return leaf;
    }
    // Wrong leaf: retry against a freshly published route snapshot (the
    // forced refresh prevents a stale thread-local snapshot from looping).
    refresh = true;
  }
}

LeafPage* BwTree::FindAndLatchLeafShared(const Slice& key,
                                         std::shared_lock<SharedMutex>* lock) {
  bool refresh = false;
  for (;;) {
    LeafPage* leaf =
        refresh ? index_.FindLeafFresh(key) : index_.FindLeaf(key);
    BG3_CHECK(leaf != nullptr);
    std::shared_lock<SharedMutex> latch(leaf->latch, std::try_to_lock);
    if (!latch.owns_lock()) {
      stats_.latch_shared_conflicts.Inc();
      latch.lock();
    }
    leaf->latch.AssertReaderHeld();
    stats_.latch_shared_acquires.Inc();
    const bool in_range =
        key.compare(Slice(leaf->low_key)) >= 0 &&
        (!leaf->has_high_key || key.compare(Slice(leaf->high_key)) < 0);
    if (in_range) {
      leaf->last_access_tick.store(
          tick_source_->fetch_add(1, std::memory_order_relaxed),
          std::memory_order_relaxed);
      index_.NoteLeafHint(leaf, leaf->high_key, leaf->has_high_key);
      *lock = std::move(latch);
      return leaf;
    }
    refresh = true;
  }
}

Status BwTree::Upsert(const Slice& key, const Slice& value,
                      const OpContext* ctx) {
  stats_.upserts.Inc();
  return Write(EntryView{DeltaOp::kUpsert, key, value}, ctx);
}

Status BwTree::Delete(const Slice& key, const OpContext* ctx) {
  stats_.deletes.Inc();
  return Write(EntryView{DeltaOp::kDelete, key, Slice()}, ctx);
}

Status BwTree::Write(const EntryView& entry, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bwtree.write");
  BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "bwtree write"));
  std::unique_lock<SharedMutex> lock;
  LeafPage* leaf = FindAndLatchLeafExclusive(entry.key, &lock);
  leaf->latch.AssertHeld();
  const Lsn lsn = NextLsn();
  leaf->last_lsn = lsn;
  // A failed log append may still land later, so the entry is applied
  // either way and the write reports the failure: outcome unknown, never
  // acknowledged.
  const Status logged =
      opts_.listener != nullptr
          ? opts_.listener->OnMutation(opts_.tree_id, leaf->id, lsn, entry)
          : Status::OK();
  Status s = opts_.delta_mode == DeltaMode::kTraditional
                 ? ApplyTraditionalLocked(leaf, entry, lsn, ctx)
                 : ApplyReadOptimizedLocked(leaf, entry, lsn, ctx);
  if (!s.ok()) return s;
  if (opts_.flush_mode == FlushMode::kDeferred) SetDirtyLocked(leaf, true);
  BG3_RETURN_IF_ERROR(MaybeSplitLocked(leaf, ctx));
  return logged;
}

Status BwTree::ApplyTraditionalLocked(LeafPage* leaf, const EntryView& entry,
                                      Lsn lsn, const OpContext* ctx) {
  // Classic Bw-tree: add a single-entry delta to the chain.
  PushDelta(leaf, entry);
  if (opts_.flush_mode == FlushMode::kSync) {
    BG3_RETURN_IF_ERROR(
        AppendDeltaLocked(leaf, leaf->deltas.size() - 1, lsn, ctx));
  }
  if (leaf->deltas.size() >= opts_.consolidate_threshold) {
    return ConsolidateLocked(leaf, ctx);
  }
  if (opts_.flush_mode == FlushMode::kSync) NotifyFlushedLocked(leaf);
  return Status::OK();
}

Status BwTree::ApplyReadOptimizedLocked(LeafPage* leaf, const EntryView& entry,
                                        Lsn lsn, const OpContext* ctx) {
  // Algorithm 1 of the paper.
  if (leaf->deltas.empty()) {
    // Lines 9-17: first modification since the last consolidation — behave
    // like a traditional Bw-tree.
    PushDelta(leaf, entry);
    if (opts_.flush_mode == FlushMode::kSync) {
      BG3_RETURN_IF_ERROR(AppendDeltaLocked(leaf, 0, lsn, ctx));
      NotifyFlushedLocked(leaf);
    }
    return Status::OK();
  }
  // Lines 18-31: merge the update into the existing delta so the page
  // keeps at most one delta.
  leaf->deltas.front().Upsert(entry);
  if (leaf->delta_updates + 1 > opts_.consolidate_threshold) {
    // Lines 21-27: the merged delta has absorbed ConsolidateNum updates —
    // consolidate the base page with everything instead.
    return ConsolidateLocked(leaf, ctx);
  }
  const cloud::PagePointer old_ptr = leaf->delta_ptrs.front();
  leaf->delta_ptrs.front() = {};
  ++leaf->delta_updates;  // line 29: count = old + 1
  if (opts_.flush_mode == FlushMode::kSync) {
    BG3_RETURN_IF_ERROR(AppendDeltaLocked(leaf, 0, lsn, ctx));
    if (!old_ptr.IsNull()) store_->MarkInvalid(old_ptr);
    NotifyFlushedLocked(leaf);
  }
  CheckLeafInvariantsLocked(leaf);
  return Status::OK();
}

std::vector<cloud::PagePointer> BwTree::FoldChainLocked(LeafPage* leaf) {
  std::vector<cloud::PagePointer> folded;
  if (leaf->deltas.empty()) return folded;
  leaf->base = MergeToBase(leaf->base, leaf->deltas);
  for (const cloud::PagePointer& p : leaf->delta_ptrs) {
    if (!p.IsNull()) folded.push_back(p);
  }
  leaf->deltas.clear();
  leaf->delta_ptrs.clear();
  leaf->delta_updates = 0;
  return folded;
}

Status BwTree::EnsureResidentLocked(LeafPage* leaf, const OpContext* ctx) {
  if (leaf->resident) {
    OpStats::RecordCacheHit(ctx != nullptr ? ctx->stats : nullptr);
    return Status::OK();
  }
  OpStats::RecordCacheMiss(ctx != nullptr ? ctx->stats : nullptr);
  if (!leaf->base_ptr.IsNull()) {
    // Every cloud read and append the tree issues is billed to the bwtree
    // layer in the request's account.
    obs::Scope layer(OpLayer::kBwtree);
    auto base = store_->Read(leaf->base_ptr, nullptr, ctx);
    if (!base.ok()) {
      if (opts_.tolerate_missing_extents && base.status().IsIOError()) {
        leaf->base.Clear();
        leaf->resident = true;
        return Status::OK();
      }
      return base.status();
    }
    BG3_RETURN_IF_ERROR(EntryRun::Parse(RecordKind::kBasePage,
                                        std::move(base.value()), &leaf->base));
  }
  leaf->resident = true;
  stats_.page_reloads.Inc();
  return Status::OK();
}

Result<size_t> BwTree::WarmPage(PageId id, const OpContext* ctx) {
  LeafPage* leaf = index_.FindPage(id);
  if (leaf == nullptr) return Status::NotFound("page");
  WriterMutexLock lock(&leaf->latch);
  if (leaf->resident) return size_t{0};
  const size_t bytes = leaf->base_ptr.IsNull() ? 0 : leaf->base_ptr.length;
  BG3_RETURN_IF_ERROR(EnsureResidentLocked(leaf, ctx));
  return bytes;
}

Result<size_t> BwTree::WarmRestoredPages(size_t max, uint64_t* bytes_read) {
  if (restore_queue_ == nullptr) return size_t{0};
  RestoreQueue& q = *restore_queue_;
  std::lock_guard<std::mutex> lock(q.mu);
  for (size_t warmed = 0; q.next < q.ids.size() && warmed < max; ++warmed) {
    auto bytes = WarmPage(q.ids[q.next]);
    BG3_RETURN_IF_ERROR(bytes.status());  // stays queued: the next call retries
    if (bytes_read != nullptr) *bytes_read += bytes.value();
    ++q.next;
  }
  return q.ids.size() - q.next;
}

size_t BwTree::ResidentPageCount() const {
  size_t resident = 0;
  index_.ForEachPage([&](LeafPage* p) {
    ReaderMutexLock lock(&p->latch);
    if (p->resident) ++resident;
  });
  return resident;
}

size_t BwTree::CollectResidency(std::vector<PageResidency>* out) const {
  size_t total = 0;
  index_.ForEachPage([&](LeafPage* p) {
    ReaderMutexLock lock(&p->latch);
    if (!p->resident) return;
    PageResidency r;
    r.id = p->id;
    r.tick = p->last_access_tick.load(std::memory_order_relaxed);
    r.bytes = p->base.MemoryBytes();
    r.evictable = !p->dirty && (!p->base_ptr.IsNull() || p->base.empty());
    total += r.bytes;
    out->push_back(r);
  });
  return total;
}

size_t BwTree::ResidentBytes() const {
  size_t total = 0;
  index_.ForEachPage([&](LeafPage* p) {
    ReaderMutexLock lock(&p->latch);
    if (p->resident) total += p->base.MemoryBytes();
  });
  return total;
}

size_t BwTree::EvictPage(PageId id) {
  LeafPage* p = index_.FindPage(id);
  if (p == nullptr) return 0;
  WriterMutexLock lock(&p->latch);
  // Re-validate: the page may have been dirtied, evicted, or reloaded
  // since the budget scan sampled it.
  if (!p->resident || p->dirty) return 0;
  if (p->base_ptr.IsNull() && !p->base.empty()) return 0;
  const size_t bytes = p->base.MemoryBytes();
  p->base.Clear();
  p->resident = false;
  stats_.page_evictions.Inc();
  return bytes;
}

Status BwTree::ConsolidateLocked(LeafPage* leaf, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bwtree.consolidate");
  BG3_RETURN_IF_ERROR(EnsureResidentLocked(leaf, ctx));
  stats_.consolidations.Inc();
  // Invalidate the storage images being superseded.
  const cloud::PagePointer old_base = leaf->base_ptr;
  const std::vector<cloud::PagePointer> old_deltas = FoldChainLocked(leaf);
  if (opts_.flush_mode == FlushMode::kSync) {
    BG3_RETURN_IF_ERROR(AppendBaseLocked(leaf, ctx));
    if (!old_base.IsNull()) store_->MarkInvalid(old_base);
    for (const auto& p : old_deltas) store_->MarkInvalid(p);
    NotifyFlushedLocked(leaf);
  } else if (opts_.flush_mode == FlushMode::kDeferred) {
    SetDirtyLocked(leaf, true);
  }
  CheckLeafInvariantsLocked(leaf);
  return Status::OK();
}

Status BwTree::MaybeSplitLocked(LeafPage* leaf, const OpContext* ctx) {
  size_t chain_entries = 0;
  for (const EntryRun& d : leaf->deltas) chain_entries += d.size();
  // A non-resident page's base size is bounded by max_leaf_entries by
  // construction, so deferring its split check until it next becomes
  // resident (on consolidation) cannot overflow it unboundedly.
  if ((leaf->resident ? leaf->base.size() : 0) + chain_entries <=
      opts_.max_leaf_entries) {
    return Status::OK();
  }
  BG3_RETURN_IF_ERROR(EnsureResidentLocked(leaf, ctx));
  BG3_TIMED_SCOPE("bg3.bwtree.smo_split");
  stats_.splits.Inc();
  // Fold everything so we can cut the full ordered content in half.
  const cloud::PagePointer old_base = leaf->base_ptr;
  const std::vector<cloud::PagePointer> old_deltas = FoldChainLocked(leaf);
  if (leaf->base.size() <= opts_.max_leaf_entries) {
    // Deletes can shrink the folded content below the threshold.
    if (opts_.flush_mode == FlushMode::kSync) {
      BG3_RETURN_IF_ERROR(AppendBaseLocked(leaf, ctx));
      if (!old_base.IsNull()) store_->MarkInvalid(old_base);
      for (const auto& p : old_deltas) store_->MarkInvalid(p);
      NotifyFlushedLocked(leaf);
    }
    return Status::OK();
  }

  const size_t mid = leaf->base.size() / 2;
  const std::string separator = leaf->base.At(mid).key.ToString();

  // Latch the sibling before initializing and publishing it (uncontended by
  // construction) so we can finish its flush without racing new writers —
  // and so the analysis sees every guarded write under the latch.
  auto sibling = std::make_unique<LeafPage>(NextPageId());
  LeafPage* sib = sibling.get();
  sib->low_key = separator;
  std::unique_lock<SharedMutex> sib_latch(sib->latch);
  sib->latch.AssertHeld();
  sib->high_key = leaf->high_key;
  sib->has_high_key = leaf->has_high_key;
  leaf->base.SplitAt(mid, &sib->base);
  leaf->high_key = separator;
  leaf->has_high_key = true;

  const Lsn lsn = NextLsn();
  leaf->last_lsn = lsn;
  sib->last_lsn = lsn;

  index_.InsertPage(std::move(sibling));
  index_.InsertRoute(separator, sib->id);

  // Like a mutation, the split stays applied when its log append fails.
  const Status logged =
      opts_.listener != nullptr
          ? opts_.listener->OnSplit(opts_.tree_id, leaf->id, sib->id, lsn,
                                    separator)
          : Status::OK();

  if (opts_.flush_mode == FlushMode::kSync) {
    BG3_RETURN_IF_ERROR(AppendBaseLocked(leaf, ctx));
    BG3_RETURN_IF_ERROR(AppendBaseLocked(sib, ctx));
    if (!old_base.IsNull()) store_->MarkInvalid(old_base);
    for (const auto& p : old_deltas) store_->MarkInvalid(p);
    NotifyFlushedLocked(leaf);
    NotifyFlushedLocked(sib);
  } else if (opts_.flush_mode == FlushMode::kDeferred) {
    SetDirtyLocked(leaf, true);
    SetDirtyLocked(sib, true);
  }
  CheckLeafInvariantsLocked(leaf);
  CheckLeafInvariantsLocked(sib);
  if (BG3_DCHECK_IS_ON()) index_.CheckInvariants();
  return logged;
}

Status BwTree::AppendBaseLocked(LeafPage* leaf, const OpContext* ctx) {
  const std::string record =
      leaf->base.Image(opts_.tree_id, leaf->id, leaf->last_lsn);
  obs::Scope layer(OpLayer::kBwtree);
  auto res = store_->Append(opts_.base_stream, record, nullptr, ctx);
  BG3_RETURN_IF_ERROR(res.status());
  leaf->base_ptr = res.value();
  leaf->flushed_lsn = leaf->last_lsn;
  SetDirtyLocked(leaf, false);
  return Status::OK();
}

void BwTree::SetDirtyLocked(LeafPage* leaf, bool dirty) {
  if (dirty && !leaf->dirty && opts_.dirtied_pages != nullptr) {
    opts_.dirtied_pages->fetch_add(1, std::memory_order_relaxed);
  }
  leaf->dirty = dirty;
}

Status BwTree::AppendDeltaLocked(LeafPage* leaf, size_t i, Lsn lsn,
                                 const OpContext* ctx) {
  const std::string record =
      leaf->deltas[i].Image(opts_.tree_id, leaf->id, lsn);
  obs::Scope layer(OpLayer::kBwtree);
  auto res = store_->Append(opts_.delta_stream, record, nullptr, ctx);
  BG3_RETURN_IF_ERROR(res.status());
  leaf->delta_ptrs[i] = res.value();
  leaf->flushed_lsn = lsn;
  return Status::OK();
}

void BwTree::NotifyFlushedLocked(LeafPage* leaf) {
  if (opts_.listener == nullptr) return;
  std::vector<cloud::PagePointer> delta_ptrs;
  for (const cloud::PagePointer& p : leaf->delta_ptrs) {
    if (!p.IsNull()) delta_ptrs.push_back(p);
  }
  opts_.listener->OnPageFlushed(opts_.tree_id, leaf->id, leaf->flushed_lsn,
                                leaf->base_ptr, delta_ptrs, leaf->low_key,
                                leaf->high_key, leaf->has_high_key);
}

void BwTree::CheckLeafInvariantsLocked(LeafPage* leaf) {
  if (!BG3_DCHECK_IS_ON()) return;
  if (opts_.delta_mode == DeltaMode::kReadOptimized) {
    // Algorithm 1: a read-optimized page carries at most one delta, so a
    // cache-miss read costs at most two storage reads.
    BG3_DCHECK_LE(leaf->deltas.size(), 1u)
        << "read-optimized page " << leaf->id << " grew a delta chain";
  }
  BG3_DCHECK_LE(leaf->flushed_lsn, leaf->last_lsn)
      << "page " << leaf->id << " storage images ahead of memory state";
  BG3_DCHECK(!leaf->dirty || opts_.flush_mode == FlushMode::kDeferred)
      << "page " << leaf->id << " dirty outside deferred-flush mode";
  BG3_DCHECK(!leaf->has_high_key || leaf->low_key < leaf->high_key)
      << "page " << leaf->id << " has an inverted key range";
  BG3_DCHECK_EQ(leaf->delta_ptrs.size(), leaf->deltas.size());
  BG3_DCHECK(leaf->base.KeysStrictlyIncreasing())
      << "page " << leaf->id << " base entries not strictly sorted";
  for (const EntryRun& d : leaf->deltas) {
    BG3_DCHECK(d.KeysStrictlyIncreasing())
        << "page " << leaf->id << " delta entries not strictly sorted";
  }
}

Result<std::string> BwTree::Get(const Slice& key, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bwtree.get");
  stats_.gets.Inc();
  BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "bwtree get"));
  {
    // Shared latch, so readers of one hot leaf never serialize behind each
    // other: the leaf's own runs, or at zero cache the storage images
    // standing in for them (read-only on the leaf).
    std::shared_lock<SharedMutex> lock;
    LeafPage* leaf = FindAndLatchLeafShared(key, &lock);
    leaf->latch.AssertReaderHeld();
    if (opts_.read_cache == ReadCacheMode::kNone) {
      EntryRun base;
      std::vector<EntryRun> deltas;
      BG3_RETURN_IF_ERROR(ReadImagesLocked(leaf, &base, &deltas, ctx));
      return LookupInRuns(base, deltas, key);
    }
    if (leaf->resident) return LookupInRuns(leaf->base, leaf->deltas, key);
  }
  // Cache miss on an evicted leaf: the reload mutates the page, so retake
  // the latch exclusively (the page may have changed while unlatched).
  std::unique_lock<SharedMutex> lock;
  LeafPage* leaf = FindAndLatchLeafExclusive(key, &lock);
  leaf->latch.AssertHeld();
  BG3_RETURN_IF_ERROR(EnsureResidentLocked(leaf, ctx));
  return LookupInRuns(leaf->base, leaf->deltas, key);
}

Status BwTree::ReadImagesLocked(LeafPage* leaf, EntryRun* base,
                                std::vector<EntryRun>* deltas,
                                const OpContext* ctx) {
  obs::Scope layer(OpLayer::kBwtree);
  if (!leaf->base_ptr.IsNull()) {
    auto res = store_->Read(leaf->base_ptr, nullptr, ctx);
    if (res.ok()) {
      BG3_RETURN_IF_ERROR(EntryRun::Parse(RecordKind::kBasePage,
                                          std::move(res.value()), base));
    } else if (!(opts_.tolerate_missing_extents &&
                 res.status().IsIOError())) {
      return res.status();
    }
  }
  deltas->reserve(leaf->delta_ptrs.size());
  for (const cloud::PagePointer& ptr : leaf->delta_ptrs) {
    if (ptr.IsNull()) continue;
    auto res = store_->Read(ptr, nullptr, ctx);
    if (!res.ok()) {
      if (opts_.tolerate_missing_extents && res.status().IsIOError()) continue;
      return res.status();
    }
    BG3_RETURN_IF_ERROR(EntryRun::Parse(RecordKind::kDelta,
                                        std::move(res.value()),
                                        &deltas->emplace_back()));
  }
  return Status::OK();
}

Status BwTree::CollectRangeLocked(LeafPage* leaf, const std::string& start,
                                  const std::string& end, size_t* remaining,
                                  const EntryVisitor& visit,
                                  const OpContext* ctx) {
  const EntryRun* base = &leaf->base;
  std::span<const EntryRun> deltas = leaf->deltas;
  EntryRun fetched_base;
  std::vector<EntryRun> fetched_deltas;  // oldest first
  if (opts_.read_cache == ReadCacheMode::kNone) {
    // Storage-backed read: the images (base plus one per delta, the I/O
    // Fig. 9 measures) stand in for the leaf's own runs.
    BG3_RETURN_IF_ERROR(
        ReadImagesLocked(leaf, &fetched_base, &fetched_deltas, ctx));
    base = &fetched_base;
    deltas = fetched_deltas;
  } else {
    // Read-only: the caller made the leaf resident before collecting
    // (Visit's exclusive-reload fallback handles evicted leaves).
    BG3_DCHECK(leaf->resident);
  }
  MergeRuns(*base, deltas, start, end, remaining, visit);
  return Status::OK();
}

Status BwTree::Visit(const ScanOptions& options, const EntryVisitor& visit,
                     const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bwtree.scan");
  stats_.scans.Inc();
  std::string cursor = options.start_key;
  size_t remaining = options.limit;
  const bool bounded_end = !options.end_key.empty();
  for (;;) {
    if (remaining == 0) return Status::OK();
    // Per-hop deadline check: a long scan over many leaves stops at the
    // first hop past the deadline instead of finishing the range.
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "bwtree scan"));
    {
      // Shared-latch fast path: visit a resident leaf (or the storage
      // images in zero-cache mode) without blocking other readers.
      std::shared_lock<SharedMutex> lock;
      LeafPage* leaf = FindAndLatchLeafShared(cursor, &lock);
      leaf->latch.AssertReaderHeld();
      if (opts_.read_cache == ReadCacheMode::kNone || leaf->resident) {
        BG3_RETURN_IF_ERROR(CollectRangeLocked(leaf, cursor, options.end_key,
                                               &remaining, visit, ctx));
        if (remaining == 0) return Status::OK();
        if (!leaf->has_high_key) return Status::OK();
        if (bounded_end && leaf->high_key >= options.end_key) {
          return Status::OK();
        }
        cursor = leaf->high_key;
        continue;
      }
    }
    // Evicted leaf: the reload mutates the page — retake exclusively,
    // reload, then visit this hop under the exclusive latch.
    std::unique_lock<SharedMutex> lock;
    LeafPage* leaf = FindAndLatchLeafExclusive(cursor, &lock);
    leaf->latch.AssertHeld();
    BG3_RETURN_IF_ERROR(EnsureResidentLocked(leaf, ctx));
    BG3_RETURN_IF_ERROR(CollectRangeLocked(leaf, cursor, options.end_key,
                                           &remaining, visit, ctx));
    if (remaining == 0) return Status::OK();
    if (!leaf->has_high_key) return Status::OK();
    if (bounded_end && leaf->high_key >= options.end_key) return Status::OK();
    cursor = leaf->high_key;
  }
}

Status BwTree::Scan(const ScanOptions& options, std::vector<Entry>* out,
                    const OpContext* ctx) {
  return Visit(
      options,
      [out](const Slice& key, const Slice& value) {
        out->push_back(Entry{key.ToString(), value.ToString()});
        return true;
      },
      ctx);
}

std::vector<PageId> BwTree::DirtyPageIds() const {
  std::vector<PageId> out;
  index_.ForEachPage([&out](LeafPage* p) {
    ReaderMutexLock lock(&p->latch);
    if (p->dirty) out.push_back(p->id);
  });
  return out;
}

Status BwTree::FlushPage(PageId id) {
  LeafPage* leaf = index_.FindPage(id);
  if (leaf == nullptr) return Status::NotFound("page");
  WriterMutexLock lock(&leaf->latch);
  if (!leaf->dirty) return Status::OK();
  BG3_RETURN_IF_ERROR(EnsureResidentLocked(leaf));
  // Deferred flushing always writes a consolidated image (group commit of
  // §3.4 flushes whole dirty pages).
  const cloud::PagePointer old_base = leaf->base_ptr;
  const std::vector<cloud::PagePointer> old_deltas = FoldChainLocked(leaf);
  BG3_RETURN_IF_ERROR(AppendBaseLocked(leaf));
  if (!old_base.IsNull()) store_->MarkInvalid(old_base);
  for (const auto& p : old_deltas) store_->MarkInvalid(p);
  NotifyFlushedLocked(leaf);
  CheckLeafInvariantsLocked(leaf);
  return Status::OK();
}

Result<uint64_t> BwTree::Relocate(const cloud::PagePointer& old_ptr,
                                  const Slice& record_bytes) {
  Slice in = record_bytes;
  RecordHeader header;
  BG3_RETURN_IF_ERROR(DecodeRecordHeader(&in, &header));
  if (header.tree_id != opts_.tree_id) {
    return Status::InvalidArgument("record belongs to another tree");
  }
  LeafPage* leaf = index_.FindPage(header.page_id);
  if (leaf == nullptr) {
    // The page no longer exists; the record is garbage.
    store_->MarkInvalid(old_ptr);
    return uint64_t{0};
  }
  WriterMutexLock lock(&leaf->latch);
  obs::Scope layer(OpLayer::kBwtree);
  if (header.kind == RecordKind::kBasePage && leaf->base_ptr == old_ptr) {
    auto res = store_->Append(opts_.base_stream, record_bytes);
    BG3_RETURN_IF_ERROR(res.status());
    leaf->base_ptr = res.value();
    NotifyFlushedLocked(leaf);
    return static_cast<uint64_t>(record_bytes.size());
  }
  if (header.kind == RecordKind::kDelta) {
    for (cloud::PagePointer& ptr : leaf->delta_ptrs) {
      if (ptr == old_ptr) {
        auto res = store_->Append(opts_.delta_stream, record_bytes);
        BG3_RETURN_IF_ERROR(res.status());
        ptr = res.value();
        NotifyFlushedLocked(leaf);
        return static_cast<uint64_t>(record_bytes.size());
      }
    }
  }
  // Stale record (superseded concurrently): nothing to move.
  store_->MarkInvalid(old_ptr);
  return uint64_t{0};
}

size_t BwTree::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this) + index_.ApproxIndexBytes();
  index_.ForEachPage([&bytes](LeafPage* p) {
    ReaderMutexLock lock(&p->latch);
    bytes += p->base.MemoryBytes();
    bytes += p->low_key.capacity() + p->high_key.capacity();
    bytes += p->deltas.capacity() * sizeof(EntryRun) +
             p->delta_ptrs.capacity() * sizeof(cloud::PagePointer);
    for (const EntryRun& d : p->deltas) bytes += d.MemoryBytes();
  });
  return bytes;
}

}  // namespace bg3::bwtree
