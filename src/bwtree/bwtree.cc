#include "bwtree/bwtree.h"

#include <algorithm>
#include <type_traits>

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
  ++leaf->delta_updates;
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

template <typename Lock>
LeafPage* BwTree::FindAndLatchLeaf(const Slice& key, Lock* lock) {
  constexpr bool kShared =
      std::is_same_v<Lock, std::shared_lock<SharedMutex>>;
  LightCounter& acquires = kShared ? stats_.latch_shared_acquires
                                   : stats_.latch_exclusive_acquires;
  LightCounter& conflicts = kShared ? stats_.latch_shared_conflicts
                                    : stats_.latch_exclusive_conflicts;
  bool refresh = false;
  for (;;) {
    LeafPage* leaf =
        refresh ? index_.FindLeafFresh(key) : index_.FindLeaf(key);
    BG3_CHECK(leaf != nullptr);
    Lock latch(leaf->latch, std::try_to_lock);
    if (!latch.owns_lock()) {
      conflicts.Inc();
      latch.lock();
    }
    if constexpr (kShared) {
      leaf->latch.AssertReaderHeld();
    } else {
      leaf->latch.AssertHeld();
    }
    acquires.Inc();
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

Status BwTree::Upsert(const Slice& key, const Slice& value,
                      const OpContext* ctx) {
  return Write(EntryView{DeltaOp::kUpsert, key, value}, ctx);
}

Status BwTree::Delete(const Slice& key, const OpContext* ctx) {
  return Write(EntryView{DeltaOp::kDelete, key, Slice()}, ctx);
}

Status BwTree::Write(const EntryView& entry, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bwtree.write");
  BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "bwtree write"));
  std::unique_lock<SharedMutex> lock;
  LeafPage* leaf = FindAndLatchLeaf(entry.key, &lock);
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
  SetDirtyLocked(leaf, true);
  Status s = ApplyLocked(leaf, entry, ctx);
  if (s.ok()) s = MaybeSplitLocked(leaf, ctx);
  // Clean after a sync write's publications: tell the listener once.
  if (!leaf->dirty) NotifyFlushedLocked(leaf);
  CheckLeafInvariantsLocked(leaf);
  BG3_RETURN_IF_ERROR(s);
  return logged;
}

Status BwTree::ApplyLocked(LeafPage* leaf, const EntryView& entry,
                           const OpContext* ctx) {
  const bool traditional = opts_.delta_mode == DeltaMode::kTraditional;
  if (traditional || leaf->deltas.empty()) {
    // Classic Bw-tree: add a single-entry delta to the chain. Algorithm 1
    // does the same (lines 9-17) for the first modification since the
    // last consolidation.
    PushDelta(leaf, entry);
  } else {
    // Algorithm 1, lines 18-31: merge the update into the existing delta
    // so the page keeps at most one delta.
    leaf->deltas.front().Upsert(entry);
    if (leaf->delta_updates + 1 > opts_.consolidate_threshold) {
      // Lines 21-27: the merged delta has absorbed ConsolidateNum updates —
      // consolidate the base page with everything instead.
      return ConsolidateLocked(leaf, ctx);
    }
    ++leaf->delta_updates;  // line 29: count = old + 1
  }
  BG3_RETURN_IF_ERROR(PublishIfSyncLocked(leaf, ctx));
  if (traditional && leaf->deltas.size() >= opts_.consolidate_threshold) {
    return ConsolidateLocked(leaf, ctx);
  }
  return Status::OK();
}

void BwTree::FoldChainLocked(LeafPage* leaf) {
  if (!leaf->deltas.empty()) {
    leaf->base = MergeToBase(leaf->base, leaf->deltas);
    leaf->deltas.clear();
    leaf->delta_updates = 0;
  }
  leaf->base_changed = true;
  SetDirtyLocked(leaf, true);
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
    r.evictable = !p->dirty;
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
  FoldChainLocked(leaf);
  return PublishIfSyncLocked(leaf, ctx);
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
  FoldChainLocked(leaf);
  if (leaf->base.size() <= opts_.max_leaf_entries) {
    // Deletes can shrink the folded content below the threshold.
    return PublishIfSyncLocked(leaf, ctx);
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
  sib->base_changed = true;
  SetDirtyLocked(sib, true);

  // The sibling is registered before its image lands (a GC relocation of
  // the image then waits on its latch) and routed only once both halves'
  // images have landed. A failed append undoes the cut: the leaf keeps its
  // range and its pre-split images; the sibling stays unrouted and empty,
  // with no live image.
  index_.InsertPage(std::move(sibling));
  Status published = PublishIfSyncLocked(sib, ctx);
  if (published.ok()) published = PublishIfSyncLocked(leaf, ctx);
  if (!published.ok()) {
    for (size_t i = 0; i < sib->base.size(); ++i) {
      leaf->base.Append(sib->base.At(i));
    }
    sib->base.Clear();
    leaf->high_key = std::move(sib->high_key);
    leaf->has_high_key = sib->has_high_key;
    if (!sib->base_ptr.IsNull()) store_->MarkInvalid(sib->base_ptr);
    sib->base_ptr = {};
    return published;
  }
  index_.InsertRoute(separator, sib->id);

  // Like a mutation, the split stays applied when its log append fails.
  const Status logged =
      opts_.listener != nullptr
          ? opts_.listener->OnSplit(opts_.tree_id, leaf->id, sib->id, lsn,
                                    separator)
          : Status::OK();
  if (!sib->dirty) NotifyFlushedLocked(sib);
  CheckLeafInvariantsLocked(sib);
  if (BG3_DCHECK_IS_ON()) index_.CheckInvariants();
  return logged;
}

Status BwTree::PublishIfSyncLocked(LeafPage* leaf, const OpContext* ctx) {
  return opts_.flush_mode == FlushMode::kSync ? PublishLocked(leaf, ctx)
                                              : Status::OK();
}

Status BwTree::PublishLocked(LeafPage* leaf, const OpContext* ctx) {
  if (leaf->base_changed) {
    auto ptr = AppendImageLocked(leaf, leaf->base, opts_.base_stream, ctx);
    BG3_RETURN_IF_ERROR(ptr.status());
    if (!leaf->base_ptr.IsNull()) store_->MarkInvalid(leaf->base_ptr);
    for (const cloud::PagePointer& p : leaf->delta_ptrs) store_->MarkInvalid(p);
    leaf->base_ptr = ptr.value();
    leaf->delta_ptrs.clear();
    leaf->base_changed = false;
  }
  if (opts_.delta_mode == DeltaMode::kReadOptimized && !leaf->deltas.empty()) {
    // The merged delta's image replaces its previous one.
    auto ptr =
        AppendImageLocked(leaf, leaf->deltas.front(), opts_.delta_stream, ctx);
    BG3_RETURN_IF_ERROR(ptr.status());
    for (const cloud::PagePointer& p : leaf->delta_ptrs) store_->MarkInvalid(p);
    leaf->delta_ptrs.assign(1, ptr.value());
  }
  // A traditional chain's unpublished tail, oldest first.
  while (leaf->delta_ptrs.size() < leaf->deltas.size()) {
    auto ptr = AppendImageLocked(leaf, leaf->deltas[leaf->delta_ptrs.size()],
                                 opts_.delta_stream, ctx);
    BG3_RETURN_IF_ERROR(ptr.status());
    leaf->delta_ptrs.push_back(ptr.value());
  }
  leaf->flushed_lsn = leaf->last_lsn;
  SetDirtyLocked(leaf, false);
  return Status::OK();
}

Result<cloud::PagePointer> BwTree::AppendImageLocked(LeafPage* leaf,
                                                     const EntryRun& run,
                                                     cloud::StreamId stream,
                                                     const OpContext* ctx) {
  // Every image carries the page's newest LSN: the one write a sync
  // publication follows, or all of them for a flush that catches up.
  const std::string record = run.Image(opts_.tree_id, leaf->id, leaf->last_lsn);
  obs::Scope layer(OpLayer::kBwtree);
  return store_->Append(stream, record, nullptr, ctx);
}

void BwTree::SetDirtyLocked(LeafPage* leaf, bool dirty) {
  if (dirty && !leaf->dirty && opts_.dirtied_pages != nullptr) {
    opts_.dirtied_pages->fetch_add(1, std::memory_order_relaxed);
  }
  leaf->dirty = dirty;
}

void BwTree::NotifyFlushedLocked(LeafPage* leaf) {
  if (opts_.listener == nullptr) return;
  opts_.listener->OnPageFlushed(opts_.tree_id, leaf->id, leaf->flushed_lsn,
                                leaf->base_ptr, leaf->delta_ptrs,
                                leaf->low_key, leaf->high_key,
                                leaf->has_high_key);
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
  BG3_DCHECK(leaf->dirty ||
             (!leaf->base_changed && leaf->flushed_lsn == leaf->last_lsn &&
              leaf->delta_ptrs.size() == leaf->deltas.size()))
      << "clean page " << leaf->id << " has images behind its memory state";
  BG3_DCHECK(leaf->base_changed ||
             leaf->delta_ptrs.size() <= leaf->deltas.size())
      << "page " << leaf->id << " has more delta images than deltas";
  BG3_DCHECK(!leaf->has_high_key || leaf->low_key < leaf->high_key)
      << "page " << leaf->id << " has an inverted key range";
  BG3_DCHECK(leaf->base.KeysStrictlyIncreasing())
      << "page " << leaf->id << " base entries not strictly sorted";
  for (const EntryRun& d : leaf->deltas) {
    BG3_DCHECK(d.KeysStrictlyIncreasing())
        << "page " << leaf->id << " delta entries not strictly sorted";
  }
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

Status BwTree::CollectRangeLocked(LeafPage* leaf, const Slice& start,
                                  const Slice& end, size_t* remaining,
                                  const EntryVisitor& visit,
                                  const OpContext* ctx) {
  if (opts_.read_cache == ReadCacheMode::kFull) {
    // Read-only: the walk made the leaf resident before collecting.
    BG3_DCHECK(leaf->resident);
    MergeRuns(leaf->base, leaf->deltas, start, end, remaining, visit);
    return Status::OK();
  }
  // Storage-backed read: the images (base plus one per delta, the I/O
  // Fig. 9 measures) stand in for the leaf's own runs.
  EntryRun base;
  std::vector<EntryRun> deltas;  // oldest first
  BG3_RETURN_IF_ERROR(ReadImagesLocked(leaf, &base, &deltas, ctx));
  MergeRuns(base, deltas, start, end, remaining, visit);
  return Status::OK();
}

Status BwTree::Walk(const Slice& start, const Slice& end, size_t limit,
                    const EntryVisitor& visit, const OpContext* ctx) {
  Slice cursor = start;
  std::string next;  // the high key of the leaf just visited
  for (size_t remaining = limit; remaining > 0;) {
    // Per-hop deadline check: a long scan over many leaves stops at the
    // first hop past the deadline instead of finishing the range.
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "bwtree read"));
    // Shared latch, so readers of one hot leaf never serialize behind each
    // other: the leaf's own runs, or at zero cache the storage images
    // standing in for them (read-only on the leaf). Reloading an evicted
    // leaf mutates it, so that hop retakes the latch exclusively (the leaf
    // may change while unlatched) and reloads first.
    std::shared_lock<SharedMutex> shared;
    std::unique_lock<SharedMutex> exclusive;
    LeafPage* leaf = FindAndLatchLeaf(cursor, &shared);
    leaf->latch.AssertReaderHeld();
    if (opts_.read_cache == ReadCacheMode::kFull && !leaf->resident) {
      shared.unlock();
      leaf = FindAndLatchLeaf(cursor, &exclusive);
      leaf->latch.AssertHeld();
      BG3_RETURN_IF_ERROR(EnsureResidentLocked(leaf, ctx));
    }
    BG3_RETURN_IF_ERROR(
        CollectRangeLocked(leaf, cursor, end, &remaining, visit, ctx));
    if (!leaf->has_high_key ||
        (!end.empty() && Slice(leaf->high_key).compare(end) >= 0)) {
      break;
    }
    next = leaf->high_key;
    cursor = next;
  }
  return Status::OK();
}

Result<std::string> BwTree::Get(const Slice& key, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bwtree.get");
  // The walk's one-key case: [key, key + '\0') holds `key` alone and ends
  // inside the leaf that owns it.
  std::string end = key.ToString();
  end.push_back('\0');
  std::string value;
  bool found = false;
  BG3_RETURN_IF_ERROR(Walk(key, end, 1,
                           [&](const Slice&, const Slice& v) {
                             value.assign(v.data(), v.size());
                             found = true;
                             return true;
                           },
                           ctx));
  if (!found) return Status::NotFound("no such key");
  return value;
}

Status BwTree::Visit(const ScanOptions& options, const EntryVisitor& visit,
                     const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bwtree.scan");
  return Walk(options.start_key, options.end_key, options.limit, visit, ctx);
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
  FoldChainLocked(leaf);
  BG3_RETURN_IF_ERROR(PublishLocked(leaf));
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
