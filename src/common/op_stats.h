#ifndef BG3_COMMON_OP_STATS_H_
#define BG3_COMMON_OP_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/trace.h"

namespace bg3 {

/// Per-request I/O and scheduling account, attached to an OpContext
/// (`ctx->stats`) and populated by every layer the request crosses: cloud
/// reads/appends with byte counts (broken down by issuing layer), WAL
/// appends, cache hits/misses, retry re-attempts, admission queue wait and
/// shed/throttle reasons. A null sink (the default) costs nothing anywhere.
///
/// Fields are relaxed atomics: a single request's work may hop threads
/// (group flush, background warm), and tsan must see the writes as
/// synchronization-free by design. Totals are exact once the request has
/// returned to its caller (no in-flight writers remain).
struct OpStats {
  struct LayerIo {
    std::atomic<uint64_t> cloud_read_ops{0};
    std::atomic<uint64_t> cloud_read_bytes{0};
    std::atomic<uint64_t> cloud_append_ops{0};
    std::atomic<uint64_t> cloud_append_bytes{0};
  };
  /// Cloud I/O by issuing layer, indexed by OpLayer: the innermost layer a
  /// BG3_TIMED_SCOPE declared on the billing thread (CurrentOpLayer()).
  LayerIo layers[kOpLayerCount];

  std::atomic<uint64_t> wal_appends{0};        ///< records handed to the WAL.
  std::atomic<uint64_t> wal_append_bytes{0};   ///< encoded record bytes.
  std::atomic<uint64_t> cache_hits{0};         ///< leaf reads served resident.
  std::atomic<uint64_t> cache_misses{0};       ///< leaf reloads from storage.
  std::atomic<uint64_t> retries{0};            ///< re-attempts spent on I/O.
  std::atomic<uint64_t> queue_wait_us{0};      ///< admission queue residency.
  std::atomic<uint64_t> sheds{0};              ///< times admission refused.
  /// Bitwise OR of core::ThrottleReason bits observed by this request.
  std::atomic<uint32_t> throttle_reasons{0};

  OpStats() = default;
  OpStats(const OpStats&) = delete;
  OpStats& operator=(const OpStats&) = delete;

  // --- recording (all no-ops on a null `s`) --------------------------------
  static void RecordCloudRead(OpStats* s, uint64_t bytes) {
    if (s == nullptr) return;
    LayerIo& io = s->layers[static_cast<size_t>(CurrentOpLayer())];
    io.cloud_read_ops.fetch_add(1, std::memory_order_relaxed);
    io.cloud_read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  static void RecordCloudAppend(OpStats* s, uint64_t bytes) {
    if (s == nullptr) return;
    LayerIo& io = s->layers[static_cast<size_t>(CurrentOpLayer())];
    io.cloud_append_ops.fetch_add(1, std::memory_order_relaxed);
    io.cloud_append_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  static void RecordWalAppend(OpStats* s, uint64_t records, uint64_t bytes) {
    if (s == nullptr) return;
    s->wal_appends.fetch_add(records, std::memory_order_relaxed);
    s->wal_append_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  static void RecordCacheHit(OpStats* s) {
    if (s != nullptr) s->cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  static void RecordCacheMiss(OpStats* s) {
    if (s != nullptr) s->cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  static void RecordRetry(OpStats* s) {
    if (s != nullptr) s->retries.fetch_add(1, std::memory_order_relaxed);
  }
  static void RecordQueueWait(OpStats* s, uint64_t wait_us) {
    if (s != nullptr)
      s->queue_wait_us.fetch_add(wait_us, std::memory_order_relaxed);
  }
  static void RecordShed(OpStats* s, uint32_t throttle_reasons) {
    if (s == nullptr) return;
    s->sheds.fetch_add(1, std::memory_order_relaxed);
    if (throttle_reasons != 0)
      s->throttle_reasons.fetch_or(throttle_reasons,
                                   std::memory_order_relaxed);
  }

  // --- totals across layers ------------------------------------------------
  uint64_t CloudReadOps() const { return SumLayers(&LayerIo::cloud_read_ops); }
  uint64_t CloudReadBytes() const {
    return SumLayers(&LayerIo::cloud_read_bytes);
  }
  uint64_t CloudAppendOps() const {
    return SumLayers(&LayerIo::cloud_append_ops);
  }
  uint64_t CloudAppendBytes() const {
    return SumLayers(&LayerIo::cloud_append_bytes);
  }

  void Reset();
  /// Compact JSON: totals, non-zero per-layer breakdown, scheduling fields.
  std::string ToJson() const;

 private:
  uint64_t SumLayers(std::atomic<uint64_t> LayerIo::* field) const {
    uint64_t sum = 0;
    for (const LayerIo& io : layers)
      sum += (io.*field).load(std::memory_order_relaxed);
    return sum;
  }
};

}  // namespace bg3

#endif  // BG3_COMMON_OP_STATS_H_
