#include "gc/space_reclaimer.h"

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

  std::vector<GcCandidate> candidates;
  for (const cloud::ExtentStats& stats : store_->SealedExtentStats(stream)) {
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
        const Status s = store_->FreeExtent(stream, cand.stats.id);
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
      auto moved = RelocateExtent(stream, victim);
      if (!moved.ok()) {
        if (!IsDeferrable(moved.status())) return moved.status();
        // Partial relocation is safe: records already moved were
        // invalidated at their old location, so the re-attempt next cycle
        // relocates only what remains.
        ++result.extents_deferred;
        continue;
      }
      result.bytes_moved += moved.value();
      result.bytes_freed += used_bytes[victim];
      ++result.extents_reclaimed;
    }
  }

  totals_.extents_examined += result.extents_examined;
  totals_.extents_reclaimed += result.extents_reclaimed;
  totals_.extents_expired += result.extents_expired;
  totals_.extents_deferred += result.extents_deferred;
  totals_.bytes_moved += result.bytes_moved;
  totals_.bytes_freed += result.bytes_freed;
  return result;
}

Result<uint64_t> SpaceReclaimer::RelocateExtent(cloud::StreamId stream,
                                                cloud::ExtentId extent) {
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
  // All valid records re-installed elsewhere: release the extent.
  BG3_RETURN_IF_ERROR(store_->FreeExtent(stream, extent));
  store_->stats().gc_moved_bytes.Add(moved);
  return moved;
}

}  // namespace bg3::gc
