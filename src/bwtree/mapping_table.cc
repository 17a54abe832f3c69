#include "bwtree/mapping_table.h"

#include <algorithm>

#include "common/logging.h"

namespace bg3::bwtree {

namespace {

/// Thread-local route cache: a direct-mapped array of slots keyed by the
/// owning index's process-unique id. Each slot pins the snapshot it cached
/// (shared_ptr) plus the thread's last-leaf hint with a copy of that leaf's
/// upper bound taken under the latch. Distinct live indexes whose ids
/// collide on a slot evict each other — the miss cost is one shared-lock
/// refresh, i.e. exactly the pre-snapshot routing cost, never a
/// correctness hazard (the slot records which index warmed it).
struct TlsRouteCache {
  uint64_t index_id = 0;
  uint64_t version = 0;
  std::shared_ptr<const RouteSnapshot> snap;
  LeafPage* hint = nullptr;
  std::string hint_upper;
  bool hint_has_upper = false;
};

constexpr size_t kTlsRouteSlots = 8;
thread_local TlsRouteCache g_route_cache[kTlsRouteSlots];

std::atomic<uint64_t> g_next_index_id{1};

TlsRouteCache& SlotFor(uint64_t instance_id) {
  return g_route_cache[instance_id % kTlsRouteSlots];
}

}  // namespace

PageIndex::PageIndex()
    : instance_id_(g_next_index_id.fetch_add(1, std::memory_order_relaxed)) {
  mu_.SetRank(lock_rank::kPageIndex_mu, "PageIndex::mu_");
  WriterMutexLock lock(&mu_);
  snapshot_ = std::make_shared<RouteSnapshot>();
}

LeafPage* PageIndex::InsertPage(std::unique_ptr<LeafPage> page) {
  WriterMutexLock lock(&mu_);
  LeafPage* raw = page.get();
  auto [it, inserted] = pages_.emplace(page->id, std::move(page));
  BG3_CHECK(inserted) << "duplicate page id " << raw->id;
  return raw;
}

void PageIndex::InsertRoute(const std::string& low_key, PageId page) {
  WriterMutexLock lock(&mu_);
  auto pit = pages_.find(page);
  LeafPage* resolved = pit == pages_.end() ? nullptr : pit->second.get();
  // Copy-on-write publication: readers keep binary-searching the previous
  // snapshot (pinned by their thread-local shared_ptr) until they notice
  // the version bump.
  auto next = std::make_shared<RouteSnapshot>(*snapshot_);
  auto it = std::lower_bound(next->keys.begin(), next->keys.end(), low_key);
  const size_t idx = static_cast<size_t>(it - next->keys.begin());
  if (it != next->keys.end() && *it == low_key) {
    next->ids[idx] = page;
    next->pages[idx] = resolved;
  } else {
    next->keys.insert(it, low_key);
    next->ids.insert(next->ids.begin() + static_cast<ptrdiff_t>(idx), page);
    next->pages.insert(next->pages.begin() + static_cast<ptrdiff_t>(idx),
                       resolved);
  }
  snapshot_ = std::move(next);
  route_version_.fetch_add(1, std::memory_order_release);
}

LeafPage* PageIndex::Lookup(const RouteSnapshot& snap, const Slice& key) {
  // Find the last entry with low_key <= key: binary search for the first
  // entry with low_key > key, then step back.
  size_t lo = 0;
  size_t hi = snap.keys.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key.compare(Slice(snap.keys[mid])) >= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  BG3_CHECK(lo > 0) << "route table must start at empty key";
  LeafPage* page = snap.pages[lo - 1];
  BG3_CHECK(page != nullptr)
      << "route entry '" << snap.keys[lo - 1] << "' -> page "
      << snap.ids[lo - 1] << " resolves to a dead mapping-table entry";
  return page;
}

LeafPage* PageIndex::FindLeaf(const Slice& key) const {
  TlsRouteCache& cache = SlotFor(instance_id_);
  if (cache.index_id == instance_id_) {
    // Last-leaf hint: low_key is immutable, and the cached upper bound was
    // copied under the latch. A split of the hint leaf since then can only
    // make the cached range too wide — the caller's post-latch range
    // validation catches that and retries through FindLeafFresh.
    LeafPage* hint = cache.hint;
    if (hint != nullptr && key.compare(Slice(hint->low_key)) >= 0 &&
        (!cache.hint_has_upper ||
         key.compare(Slice(cache.hint_upper)) < 0)) {
      return hint;
    }
    if (cache.snap != nullptr &&
        cache.version == route_version_.load(std::memory_order_acquire)) {
      if (cache.snap->keys.empty()) return nullptr;
      return Lookup(*cache.snap, key);
    }
  }
  return FindLeafFresh(key);
}

LeafPage* PageIndex::FindLeafFresh(const Slice& key) const {
  TlsRouteCache& cache = SlotFor(instance_id_);
  cache.index_id = instance_id_;
  cache.hint = nullptr;
  cache.hint_has_upper = false;
  cache.hint_upper.clear();
  {
    ReaderMutexLock lock(&mu_);
    cache.snap = snapshot_;
    // Coherent with the snapshot: publications bump the version while
    // holding `mu_` exclusively.
    cache.version = route_version_.load(std::memory_order_acquire);
  }
  if (cache.snap->keys.empty()) return nullptr;
  return Lookup(*cache.snap, key);
}

void PageIndex::NoteLeafHint(LeafPage* leaf, const std::string& upper,
                             bool has_upper) const {
  TlsRouteCache& cache = SlotFor(instance_id_);
  if (cache.index_id != instance_id_) return;  // slot belongs elsewhere
  cache.hint = leaf;
  cache.hint_has_upper = has_upper;
  if (has_upper) {
    cache.hint_upper.assign(upper);
  } else {
    cache.hint_upper.clear();
  }
}

LeafPage* PageIndex::FindPage(PageId id) const {
  ReaderMutexLock lock(&mu_);
  auto it = pages_.find(id);
  return it == pages_.end() ? nullptr : it->second.get();
}

LeafPage* PageIndex::NextLeaf(const LeafPage& page) const {
  std::shared_ptr<const RouteSnapshot> snap;
  {
    ReaderMutexLock lock(&mu_);
    snap = snapshot_;
  }
  auto it = std::upper_bound(snap->keys.begin(), snap->keys.end(),
                             page.low_key);
  if (it == snap->keys.end()) return nullptr;
  LeafPage* next = snap->pages[it - snap->keys.begin()];
  BG3_CHECK(next != nullptr);
  return next;
}

size_t PageIndex::PageCount() const {
  ReaderMutexLock lock(&mu_);
  return snapshot_->pages.size();
}

void PageIndex::ForEachPage(const std::function<void(LeafPage*)>& fn) const {
  // Pin the snapshot, visit without any lock so `fn` may latch.
  std::shared_ptr<const RouteSnapshot> snap;
  {
    ReaderMutexLock lock(&mu_);
    snap = snapshot_;
  }
  for (LeafPage* p : snap->pages) {
    if (p != nullptr) fn(p);
  }
}

size_t PageIndex::ApproxIndexBytes() const {
  ReaderMutexLock lock(&mu_);
  size_t bytes = sizeof(*this) + sizeof(RouteSnapshot);
  for (const std::string& key : snapshot_->keys) {
    bytes += key.capacity() + sizeof(PageId) + sizeof(LeafPage*);
  }
  bytes += pages_.bucket_count() * sizeof(void*);
  bytes += pages_.size() * (32 + sizeof(LeafPage));
  return bytes;
}

void PageIndex::CheckInvariants() const {
  ReaderMutexLock lock(&mu_);
  const RouteSnapshot& snap = *snapshot_;
  // An empty route table is legal only pre-bootstrap (no pages installed).
  if (snap.keys.empty()) return;
  BG3_CHECK(snap.keys.front().empty())
      << "route table must start at the empty key, found '"
      << snap.keys.front() << "'";
  for (size_t i = 0; i < snap.keys.size(); ++i) {
    const std::string& key = snap.keys[i];
    const PageId id = snap.ids[i];
    if (i + 1 < snap.keys.size()) {
      BG3_CHECK(key < snap.keys[i + 1])
          << "route snapshot keys not strictly sorted at '" << key << "'";
    }
    auto pit = pages_.find(id);
    BG3_CHECK(pit != pages_.end() && snap.pages[i] != nullptr)
        << "route entry '" << key << "' -> page " << id
        << " resolves to a dead mapping-table entry";
    LeafPage* p = pit->second.get();
    BG3_CHECK(p == snap.pages[i])
        << "route snapshot pointer does not match the mapping table for page "
        << id;
    BG3_CHECK_EQ(p->id, id) << "mapping table id mismatch for page " << id;
    // low_key is immutable after publication, safe to read latch-free.
    BG3_CHECK(p->low_key == key)
        << "route key '" << key << "' does not match page " << id
        << " low key '" << p->low_key << "'";
    // Deeper per-page state checks only when a shared latch is free: the
    // walker holds the index lock shared and must never *wait* on a latch
    // (the split path holds a latch while taking this lock exclusively).
    if (p->latch.try_lock_shared()) {
      p->latch.AssertReaderHeld();
      BG3_CHECK(!p->has_high_key || p->low_key < p->high_key)
          << "page " << id << " has inverted key range";
      BG3_CHECK_LE(p->flushed_lsn, p->last_lsn)
          << "page " << id << " flushed ahead of memory state";
      p->latch.unlock_shared();
    }
  }
}

}  // namespace bg3::bwtree
