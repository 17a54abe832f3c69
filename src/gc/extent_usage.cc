#include "gc/extent_usage.h"

#include <algorithm>

#include "common/logging.h"

namespace bg3::gc {

double ExtentUsage::UpdateGradient(uint64_t now_us) const {
  if (window_start_us == 0) return 0.0;  // never invalidated
  const uint64_t elapsed = now_us > window_start_us
                               ? now_us - window_start_us
                               : 1;  // same-instant updates: treat as 1us
  const double cur_rate =
      static_cast<double>(invalid_count - window_start_invalid) * 1e6 /
      static_cast<double>(elapsed);
  // Blend with the last completed window so a freshly rolled window does not
  // make a hot extent momentarily look cold.
  return std::max(cur_rate, rolled_rate);
}

ExtentUsageTracker::ExtentUsageTracker(const cloud::TimeSource* time_source,
                                       uint64_t gradient_window_us)
    : time_source_(time_source),
      gradient_window_us_(gradient_window_us),
      start_us_(time_source->NowUs()) {}

ExtentUsage ExtentUsageTracker::Unseen(cloud::StreamId stream,
                                       cloud::ExtentId extent) const {
  ExtentUsage u;
  u.stream = stream;
  u.extent = extent;
  u.created_us = start_us_;
  u.last_append_us = start_us_;
  return u;
}

void ExtentUsageTracker::OnAppend(const cloud::PagePointer& ptr) {
  const uint64_t now = time_source_->NowUs();
  MutexLock lock(&mu_);
  ExtentUsage& u = usage_[ptr.extent_id];
  if (u.extent == cloud::kInvalidExtent) {
    u.stream = ptr.stream_id;
    u.extent = ptr.extent_id;
    u.created_us = now;
  }
  u.last_append_us = now;
}

void ExtentUsageTracker::OnInvalidate(const cloud::PagePointer& ptr) {
  const uint64_t now = time_source_->NowUs();
  MutexLock lock(&mu_);
  // First seen through an invalidation: its records predate this tracker.
  ExtentUsage& u =
      usage_.try_emplace(ptr.extent_id, Unseen(ptr.stream_id, ptr.extent_id))
          .first->second;
  u.last_invalidate_us = now;
  ++u.invalid_count;
  if (u.window_start_us == 0) {
    u.window_start_us = now;
    u.window_start_invalid = u.invalid_count - 1;
    return;
  }
  if (now - u.window_start_us >= gradient_window_us_) {
    u.rolled_rate =
        static_cast<double>(u.invalid_count - u.window_start_invalid) * 1e6 /
        static_cast<double>(now - u.window_start_us);
    u.window_start_us = now;
    u.window_start_invalid = u.invalid_count;
  }
  // Gradient-window accounting can never run backwards: the window base
  // always trails the current invalid count, and timestamps are monotone.
  BG3_DCHECK_LE(u.window_start_invalid, u.invalid_count);
  BG3_DCHECK_LE(u.window_start_us, now);
  BG3_DCHECK_LE(u.created_us, now);
}

void ExtentUsageTracker::OnExtentFreed(cloud::StreamId stream,
                                       cloud::ExtentId extent) {
  MutexLock lock(&mu_);
  usage_.erase(extent);
}

ExtentUsage ExtentUsageTracker::GetUsage(cloud::StreamId stream,
                                         cloud::ExtentId extent) const {
  MutexLock lock(&mu_);
  auto it = usage_.find(extent);
  return it == usage_.end() ? Unseen(stream, extent) : it->second;
}

}  // namespace bg3::gc
