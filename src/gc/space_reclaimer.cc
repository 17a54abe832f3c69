#include "gc/space_reclaimer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timed_scope.h"

namespace bg3::gc {

namespace {

/// Errors that defer a victim to the next cycle rather than failing it:
/// the store already spent its retry budget on a transient failure, and a
/// damaged record is skipped the same way — background reclamation must
/// ride out storage trouble, not amplify it, and the extent is not going
/// anywhere. Logic errors (InvalidArgument etc.) still propagate.
bool IsDeferrable(const Status& s) {
  return cloud::IsTransient(s) || s.IsCorruption();
}

}  // namespace

Status ReclaimHorizon::Retire(cloud::StreamId stream, cloud::ExtentId extent,
                              uint64_t bytes, bool expired) {
  std::lock_guard<std::mutex> lock(mu_);
  const Retired r{expired ? Retired::kExpired : Retired::kRelocated, stream,
                  extent, bytes, cuts_begun_};
  auto freed = FreeIfBehindLocked(r);
  BG3_RETURN_IF_ERROR(freed.status());
  if (freed.value() == 0) {
    retired_.push_back(r);
    retired_extents_.Add(1);
    retired_bytes_.Add(static_cast<int64_t>(bytes));
  }
  return Status::OK();
}

bool ReclaimHorizon::Holds(cloud::StreamId stream,
                           cloud::ExtentId extent) const {
  if (!pinned_) return false;  // nothing waits
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(retired_.begin(), retired_.end(), [&](const Retired& r) {
    return r.stream == stream && r.extent == extent;
  });
}

uint64_t ReclaimHorizon::BeginCut() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++cuts_begun_;
}

void ReclaimHorizon::Publish(uint64_t epoch, uint64_t cut,
                             const cloud::PagePointer& wal_cursor) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_[epoch & 1] = Slot{epoch, cut, wal_cursor};
  std::erase_if(retired_, [this](const Retired& r) {
    auto freed = FreeIfBehindLocked(r);
    if (!freed.ok() || freed.value() == 0) return false;
    retired_extents_.Sub(1);
    retired_bytes_.Sub(static_cast<int64_t>(r.bytes));
    return true;
  });
}

size_t ReclaimHorizon::TruncateWal(cloud::StreamId stream,
                                   cloud::ExtentId reader_floor) {
  std::lock_guard<std::mutex> lock(mu_);
  return FreeIfBehindLocked(Retired{Retired::kWalPrefix, stream, reader_floor})
      .value();
}

Result<size_t> ReclaimHorizon::FreeIfBehindLocked(const Retired& r) {
  const Slot& older = slots_[0].epoch < slots_[1].epoch ? slots_[0] : slots_[1];
  switch (r.kind) {
    case Retired::kWalPrefix:
      // With fewer than two manifests the older slot is empty: a restart
      // may replay the whole log.
      if (older.wal_cursor.IsNull()) return size_t{0};
      return store_->TruncateStreamBefore(
          r.stream, std::min(older.wal_cursor.extent_id, r.extent));
    case Retired::kRelocated:
      // Until both slots' cuts began after the relocation, a restart may
      // start from a manifest whose images lie in the victim.
      if (pinned_ && std::min(slots_[0].cut, slots_[1].cut) <= r.cut) {
        return size_t{0};
      }
      break;
    case Retired::kExpired:
      break;
  }
  BG3_RETURN_IF_ERROR(store_->FreeExtent(r.stream, r.extent));
  return size_t{1};
}

SpaceReclaimer::SpaceReclaimer(cloud::CloudStore* store,
                               TreeResolver* resolver, GcPolicy* policy,
                               ExtentUsageTracker* tracker,
                               const ReclaimOptions& options)
    : store_(store),
      resolver_(resolver),
      policy_(policy),
      tracker_(tracker),
      opts_(options) {
  BG3_CHECK(store_ != nullptr && resolver_ != nullptr && policy_ != nullptr &&
            tracker_ != nullptr);
}

Result<CycleResult> SpaceReclaimer::RunCycle(cloud::StreamId stream,
                                             size_t max_extents) {
  BG3_TIMED_SCOPE("bg3.gc.cycle", OpLayer::kGc);
  CycleResult result;
  const uint64_t now = tracker_->NowUs();

  ReclaimHorizon* const horizon = resolver_->horizon();
  std::vector<GcCandidate> candidates;
  for (const cloud::ExtentStats& stats : store_->SealedExtentStats(stream)) {
    // A retired extent waits for the horizon, not for another cycle.
    if (horizon->Holds(stream, stats.id)) continue;
    GcCandidate cand;
    cand.stats = stats;
    cand.usage = tracker_->GetUsage(stream, stats.id);
    candidates.push_back(std::move(cand));
  }
  result.extents_examined = candidates.size();

  // Phase 1: free extents whose TTL elapsed — no data movement at all.
  if (opts_.ttl_us != 0) {
    BG3_TIMED_SCOPE("bg3.gc.expire_phase");
    std::vector<GcCandidate> remaining;
    remaining.reserve(candidates.size());
    for (GcCandidate& cand : candidates) {
      const uint64_t deadline = cand.usage.TtlDeadlineUs(opts_.ttl_us);
      if (deadline != 0 && deadline <= now) {
        const Status s = horizon->Retire(stream, cand.stats.id,
                                         cand.stats.used_bytes,
                                         /*expired=*/true);
        if (!s.ok()) {
          if (!IsDeferrable(s)) return s;
          // The deadline stays in the past; next cycle frees it.
          ++result.extents_deferred;
          continue;
        }
        result.bytes_freed += cand.stats.used_bytes;
        ++result.extents_expired;
      } else {
        remaining.push_back(std::move(cand));
      }
    }
    candidates = std::move(remaining);
  }

  // Phase 2: relocate policy-selected victims while space pressure remains.
  const uint64_t total = store_->TotalBytes(stream);
  const uint64_t live = store_->LiveBytes(stream);
  const double dead_ratio =
      total == 0 ? 0.0
                 : static_cast<double>(total - live) / static_cast<double>(total);
  if (dead_ratio > opts_.target_dead_ratio) {
    BG3_TIMED_SCOPE("bg3.gc.relocate_phase");
    std::unordered_map<cloud::ExtentId, uint64_t> used_bytes;
    for (const GcCandidate& cand : candidates) {
      used_bytes[cand.stats.id] = cand.stats.used_bytes;
    }
    SelectContext ctx;
    ctx.now_us = now;
    ctx.ttl_us = opts_.ttl_us;
    for (cloud::ExtentId victim :
         policy_->SelectVictims(std::move(candidates), max_extents, ctx)) {
      auto moved = RelocateExtent(stream, victim, used_bytes[victim]);
      if (!moved.ok()) {
        if (!IsDeferrable(moved.status())) return moved.status();
        // Partial relocation is safe: the re-attempt next cycle finds the
        // records already moved stale, and relocates only what remains.
        ++result.extents_deferred;
        continue;
      }
      result.bytes_moved += moved.value();
      result.bytes_freed += used_bytes[victim];
      ++result.extents_reclaimed;
    }
  }

  totals_.extents_examined.Add(result.extents_examined);
  totals_.extents_reclaimed.Add(result.extents_reclaimed);
  totals_.extents_expired.Add(result.extents_expired);
  totals_.extents_deferred.Add(result.extents_deferred);
  totals_.bytes_moved.Add(result.bytes_moved);
  totals_.bytes_freed.Add(result.bytes_freed);
  return result;
}

CycleResult SpaceReclaimer::totals() const {
  CycleResult t;
  t.extents_examined = totals_.extents_examined.Get();
  t.extents_reclaimed = totals_.extents_reclaimed.Get();
  t.extents_expired = totals_.extents_expired.Get();
  t.extents_deferred = totals_.extents_deferred.Get();
  t.bytes_moved = totals_.bytes_moved.Get();
  t.bytes_freed = totals_.bytes_freed.Get();
  return t;
}

Result<uint64_t> SpaceReclaimer::RelocateExtent(cloud::StreamId stream,
                                                cloud::ExtentId extent,
                                                uint64_t used_bytes) {
  BG3_TIMED_SCOPE("bg3.gc.relocate_extent", OpLayer::kGc);
  auto records = store_->ReadValidRecords(stream, extent);
  BG3_RETURN_IF_ERROR(records.status());
  uint64_t moved = 0;
  for (const auto& [ptr, bytes] : records.value()) {
    Slice in(bytes);
    bwtree::RecordHeader header;
    BG3_RETURN_IF_ERROR(bwtree::DecodeRecordHeader(&in, &header));
    bwtree::BwTree* tree = resolver_->Resolve(header.tree_id);
    if (tree == nullptr) {
      // Orphaned record (its tree is gone): drop it.
      store_->MarkInvalid(ptr);
      continue;
    }
    auto n = tree->Relocate(ptr, bytes);
    BG3_RETURN_IF_ERROR(n.status());
    moved += n.value();
  }
  // All valid records re-installed elsewhere: hand the extent back.
  BG3_RETURN_IF_ERROR(resolver_->horizon()->Retire(stream, extent, used_bytes,
                                                   /*expired=*/false));
  store_->stats().gc_moved_bytes.Add(moved);
  return moved;
}

}  // namespace bg3::gc
