#ifndef BG3_GC_EXTENT_USAGE_H_
#define BG3_GC_EXTENT_USAGE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "cloud/cloud_store.h"
#include "cloud/types.h"
#include "common/thread_annotations.h"

namespace bg3::gc {

/// The in-memory "Extent Usage Tracking" structure of §3.3: per extent, the
/// latest update time, the invalidation history needed for the update
/// gradient, and (derived) the TTL deadline.
struct ExtentUsage {
  cloud::StreamId stream = 0;
  cloud::ExtentId extent = cloud::kInvalidExtent;

  uint64_t created_us = 0;
  /// Timestamp of the most recently appended record — the extent's
  /// timestamp for TTL purposes ("we assign the timestamp of the most
  /// recently updated piece of data in an extent as the timestamp for the
  /// entire extent").
  uint64_t last_append_us = 0;
  /// Timestamp of the most recent invalidation.
  uint64_t last_invalidate_us = 0;

  uint32_t invalid_count = 0;

  // Sliding-window samples for the update gradient ("whenever an extent
  // undergoes an update, we log both the time of the update and the count
  // of invalid pages it currently contains", cf. [26]).
  uint64_t window_start_us = 0;
  uint32_t window_start_invalid = 0;
  double rolled_rate = 0.0;  ///< gradient of the last completed window.

  /// Invalid pages per second, (delta invalid)/(delta time) as in Fig. 5.
  double UpdateGradient(uint64_t now_us) const;

  /// Absolute expiry deadline, or 0 when no TTL applies.
  uint64_t TtlDeadlineUs(uint64_t ttl_us) const {
    return ttl_us == 0 ? 0 : last_append_us + ttl_us;
  }
};

/// Observes the cloud store and maintains ExtentUsage records. Installed
/// via CloudStore::SetObserver; all callbacks are cheap (hash lookup +
/// field updates under one mutex).
class ExtentUsageTracker : public cloud::StoreObserver {
 public:
  /// `time_source` must outlive the tracker. `gradient_window_us` is the
  /// sample window for gradient estimation.
  explicit ExtentUsageTracker(const cloud::TimeSource* time_source,
                              uint64_t gradient_window_us = 1'000'000);

  void OnAppend(const cloud::PagePointer& ptr) override;
  void OnInvalidate(const cloud::PagePointer& ptr) override;
  void OnExtentFreed(cloud::StreamId stream, cloud::ExtentId extent) override;

  /// Snapshot of one extent's usage. An extent this tracker never saw
  /// appended to (written before a restart) is stamped with the tracker's
  /// construction time: its TTL deadline is then late by at most the
  /// downtime, never early, so a restart cannot expire unexpired data.
  ExtentUsage GetUsage(cloud::StreamId stream, cloud::ExtentId extent) const;

  uint64_t NowUs() const { return time_source_->NowUs(); }

 private:
  /// Usage of an extent first seen after its records were written.
  ExtentUsage Unseen(cloud::StreamId stream, cloud::ExtentId extent) const;

  const cloud::TimeSource* const time_source_;
  const uint64_t gradient_window_us_;
  const uint64_t start_us_;

  mutable Mutex mu_;
  // Extent ids are allocated globally within a CloudStore, so the extent id
  // alone keys the map.
  std::unordered_map<cloud::ExtentId, ExtentUsage> usage_ BG3_GUARDED_BY(mu_);
};

}  // namespace bg3::gc

#endif  // BG3_GC_EXTENT_USAGE_H_
