#ifndef BG3_CLOUD_CLOUD_STORE_H_
#define BG3_CLOUD_CLOUD_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cloud/fault_injector.h"
#include "cloud/latency_model.h"
#include "cloud/stream.h"
#include "cloud/types.h"
#include "common/circuit_breaker.h"
#include "common/metrics.h"
#include "common/op_context.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_annotations.h"

namespace bg3 {
class MetricsRegistry;
}  // namespace bg3

namespace bg3::cloud {

/// Aggregate I/O accounting. Read/write amplification figures (Figs. 9/10,
/// Table 2, storage-cost saving) are all computed from these counters.
/// Every CloudStore registers its IoStats with the default MetricsRegistry
/// under a per-instance prefix (`bg3.cloud.store<N>.`), so the registry
/// read-outs (RenderJson, DebugServer /metrics) and the bench JSON read the
/// same counters the figures are computed from.
struct IoStats {
  Counter append_ops;
  Counter append_bytes;
  Counter read_ops;
  Counter read_bytes;
  Counter gc_moved_bytes;    ///< bytes rewritten by space reclamation.
  Counter extents_freed;
  Counter manifest_updates;

  // Fault-injection observability (zero in every default bench run):
  // faults fired by an attached FaultInjector, re-attempts spent by the
  // store's retry loop (CloudStoreOptions::retry), and budgets that ran dry.
  Counter injected_faults;
  Counter retries;
  Counter retry_exhausted;

  /// Registers every counter as an external metric `<prefix><field>` in
  /// `registry`; undo with registry->DeregisterPrefix(prefix). The stats
  /// object must outlive the registration.
  void RegisterWith(MetricsRegistry* registry, const std::string& prefix) const;
};

struct CloudStoreOptions {
  size_t extent_capacity = 1 << 20;  ///< 1 MiB, ArkDB-style uniform extents.
  LatencyModelOptions latency;

  /// Retry policy of every fault-capable entry point (Append/AppendFenced,
  /// Read, FreeExtent, TailRecords, ManifestGet; DESIGN.md §5.2). IOError
  /// and Busy are retried everywhere, Corruption on Read only (a corrupt
  /// read models bit flips on the wire; the stored record is intact);
  /// Fenced, Overloaded and NotFound never. On exhaustion the call returns
  /// the first error and reports the failure to the breaker. Each attempt
  /// keeps its own breaker, deadline and fault check; the call's OpContext
  /// deadline bounds the whole schedule. max_attempts = 1 disables retries.
  RetryOptions retry;

  /// Circuit breaker around the store (DESIGN.md §5.5). Disabled by
  /// default; when enabled, exhausted retry budgets trip it open and every
  /// operation fails fast with Status::Overloaded until half-open probes
  /// prove the substrate recovered.
  CircuitBreakerOptions breaker;

  /// Clock for the breaker's failure window / cooldown and for
  /// deadline-vs-predicted-latency checks. Null = process wall clock;
  /// tests pass a ManualTimeSource.
  const TimeSource* time_source = nullptr;
};

/// The failures the store retries on every entry point (IOError, Busy).
/// Once a call returns one of them its retry budget is spent, and the
/// caller degrades instead of failing: the WAL keeps the batch buffered,
/// the RO node serves stale-but-consistent reads, GC defers the extent.
inline bool IsTransient(const Status& s) {
  return s.IsIOError() || s.IsBusy();
}

/// Event hook consumed by the GC usage tracker (§3.3 "Extent Usage
/// Tracking"): it needs to timestamp appends and invalidations per extent to
/// maintain TTL deadlines and update gradients.
class StoreObserver {
 public:
  virtual ~StoreObserver() = default;
  virtual void OnAppend(const PagePointer& ptr) {}
  virtual void OnInvalidate(const PagePointer& ptr) {}
  virtual void OnExtentFreed(StreamId stream, ExtentId extent) {}
};

/// Simulated shared append-only cloud storage (stand-in for ByteDance's
/// internal service; similar role to Pangu / Tectonic / Azure Storage,
/// §4.1). One process-wide instance is shared by the RW node and all RO
/// nodes, which is exactly the property the paper's synchronization design
/// builds on: once the RW node appends, every RO node can read the bytes.
///
/// Thread safety: stream topology is guarded by a shared_mutex (streams are
/// only ever added). Each stream has its own reader/writer lock: record
/// reads take it shared, so readers of one stream run in parallel, and
/// appends take it exclusively. Traffic to different streams never
/// contends — mirroring independent storage partitions of the real service.
class CloudStore {
 public:
  explicit CloudStore(const CloudStoreOptions& opts = {});
  ~CloudStore();

  CloudStore(const CloudStore&) = delete;
  CloudStore& operator=(const CloudStore&) = delete;

  /// Per-instance metric-name prefix this store registered its IoStats and
  /// space gauges under (`bg3.cloud.store<N>.`).
  const std::string& metrics_prefix() const { return metrics_prefix_; }

  /// Creates (or returns the existing) stream with this name.
  StreamId CreateStream(const std::string& name);

  /// Appends one record; returns its permanent location and, optionally,
  /// the simulated latency of the operation in `latency_us`.
  ///
  /// All I/O entry points take an optional OpContext: an expired deadline
  /// (or one the latency model predicts cannot be met) fails fast with
  /// DeadlineExceeded, and an open circuit breaker fails fast with
  /// Overloaded — both before touching the substrate. Null ctx keeps the
  /// exact historical behavior.
  BG3_BLOCKING Result<PagePointer> Append(StreamId stream, const Slice& record,
                             uint64_t* latency_us = nullptr,
                             const OpContext* ctx = nullptr);

  /// Term-fenced append (DESIGN.md §5.10): fails with Status::Fenced —
  /// atomically with record placement — when `term` is below the stream's
  /// fence term. Fenced is a *correct rejection* by a healthy substrate, not
  /// a substrate failure: it does not feed the circuit breaker's error
  /// window and is not retryable. Plain Append() does not participate in
  /// fencing (page-flush and GC streams are never fenced; only the WAL
  /// stream of a partition is).
  BG3_BLOCKING Result<PagePointer> AppendFenced(StreamId stream, uint64_t term,
                                   const Slice& record,
                                   uint64_t* latency_us = nullptr,
                                   const OpContext* ctx = nullptr);

  /// Raises `stream`'s fence to `min_term` (monotone, idempotent). Every
  /// AppendFenced carrying a lower term fails from this point on — the
  /// promotion barrier that makes a deposed leader's in-flight pipelined
  /// groups land nowhere.
  void FenceStream(StreamId stream, uint64_t min_term);

  /// Current fence term of `stream` (0 = never fenced / unknown stream).
  uint64_t StreamFenceTerm(StreamId stream) const;

  BG3_BLOCKING Result<std::string> Read(const PagePointer& ptr,
                           uint64_t* latency_us = nullptr,
                           const OpContext* ctx = nullptr);

  /// Out-of-place update bookkeeping: the record at `ptr` no longer holds
  /// live data.
  void MarkInvalid(const PagePointer& ptr);

  BG3_BLOCKING Status FreeExtent(StreamId stream, ExtentId extent);

  std::vector<ExtentStats> SealedExtentStats(StreamId stream) const;

  /// Re-reads all valid records of an extent (GC relocation input); counted
  /// against read stats like any other I/O.
  BG3_BLOCKING Result<std::vector<std::pair<PagePointer, std::string>>>
  ReadValidRecords(
      StreamId stream, ExtentId extent, const OpContext* ctx = nullptr);

  /// Log tailing (WAL readers): records appended strictly after `cursor`
  /// in append order; a default-constructed cursor reads from the start.
  /// Records that fail their CRC check (torn appends) are skipped — they
  /// were never durably written, so they are not part of the log.
  BG3_BLOCKING Result<std::vector<std::pair<PagePointer, std::string>>>
  TailRecords(
      StreamId stream, const PagePointer& cursor, size_t max_records,
      const OpContext* ctx = nullptr);

  // --- strongly consistent manifest ---------------------------------------
  // Small KV area modelling the shared mapping-table region of §3.4: the RW
  // node atomically publishes new page-table versions here (step (8) in
  // Fig. 7) and RO nodes read them. Each Put returns a monotonically
  // increasing version.
  BG3_BLOCKING uint64_t ManifestPut(const std::string& key, const Slice& value);
  /// Compare-and-swap put: succeeds only if the key's current version equals
  /// `expected_version` (0 = key must not exist yet). Returns the new
  /// version on success; Aborted (carrying the current version in the
  /// message) when another writer got there first — the primitive behind
  /// epoch-record publication, where the double-promotion loser must lose
  /// deterministically (DESIGN.md §5.10).
  BG3_BLOCKING Result<uint64_t> ManifestCas(const std::string& key,
                               uint64_t expected_version, const Slice& value);
  /// Returns NotFound if the key was never written.
  BG3_BLOCKING Result<std::string> ManifestGet(const std::string& key,
                                  uint64_t* version = nullptr,
                                  const OpContext* ctx = nullptr) const;

  /// All manifest entries whose key starts with `prefix`, key order
  /// (readers bootstrapping the page-table layout).
  std::vector<std::pair<std::string, std::string>> ManifestList(
      const std::string& prefix) const;

  /// Frees every *sealed* extent of `stream` with id < `before` (WAL-prefix
  /// truncation once all readers have consumed past it). Returns the number
  /// of extents freed.
  size_t TruncateStreamBefore(StreamId stream, ExtentId before);

  // --- space accounting ----------------------------------------------------
  uint64_t TotalBytes() const;
  uint64_t LiveBytes() const;
  uint64_t TotalBytes(StreamId stream) const;
  uint64_t LiveBytes(StreamId stream) const;

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  LatencyModel& latency_model() { return latency_model_; }
  const CloudStoreOptions& options() const { return opts_; }

  /// The store's circuit breaker. The store feeds it itself: exhausted
  /// retry budgets count toward the trip threshold, every attempt records
  /// its success or error, and the append/read/tail/manifest entry points
  /// gate on Allow(). Inert unless CloudStoreOptions::breaker.enabled.
  CircuitBreaker& breaker() const { return breaker_; }

  /// Clock in effect (options().time_source or the process wall clock).
  const TimeSource* time_source() const { return clock_; }

  /// At most one observer; must outlive the store or be reset to nullptr.
  /// Normally set before concurrent use; the pointer itself is atomic so a
  /// late SetObserver is race-free (in-flight ops see old or new, torn reads
  /// are impossible).
  void SetObserver(StoreObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }

  /// At most one fault injector; must outlive the store or be reset to
  /// nullptr. Null (the default) costs one relaxed atomic load per op.
  /// Same publication contract as SetObserver.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  /// Failure injection: flips a byte of the record at `ptr` so subsequent
  /// reads fail their CRC-32C check with Status::Corruption.
  bool CorruptRecordForTesting(const PagePointer& ptr, uint32_t byte_index);

 private:
  Stream* GetStream(StreamId id) const;
  /// Runs `op`, one attempt of an entry point, under opts_.retry: counts
  /// retries and exhaustion in stats_ (and retries in the request's
  /// OpStats) and reports an exhausted budget to the breaker.
  template <typename Op>
  auto Retry(const OpContext* ctx, bool retry_corruption, Op&& op) const
      -> decltype(op());
  /// One Append/AppendFenced attempt (both retry it).
  Result<PagePointer> AppendImpl(StreamId stream, bool fenced, uint64_t term,
                                 const Slice& record, uint64_t* latency_us,
                                 const OpContext* ctx);
  /// One Read attempt (Read retries it).
  Result<std::string> ReadOnce(const PagePointer& ptr, uint64_t* latency_us,
                               const OpContext* ctx);
  /// Consults the attached injector (if any) for `op`; counts fired faults.
  FaultDecision DecideFault(FaultOp op) const;
  /// Overloaded when the breaker rejects, OK otherwise.
  Status CheckBreaker() const;

  const CloudStoreOptions opts_;
  std::string metrics_prefix_;
  const TimeSource* clock_;
  LatencyModel latency_model_;
  /// mutable: const read paths (ManifestGet) still gate on / feed the
  /// breaker.
  mutable CircuitBreaker breaker_;
  /// mutable: const read paths (ManifestGet) still account injected faults.
  mutable IoStats stats_;
  std::atomic<StoreObserver*> observer_{nullptr};
  std::atomic<FaultInjector*> fault_injector_{nullptr};

  mutable SharedMutex topology_mu_;
  std::atomic<ExtentId> next_extent_id_{0};
  std::vector<std::unique_ptr<Stream>> streams_ BG3_GUARDED_BY(topology_mu_);
  std::map<std::string, StreamId> stream_names_ BG3_GUARDED_BY(topology_mu_);

  mutable Mutex manifest_mu_;
  uint64_t manifest_version_ BG3_GUARDED_BY(manifest_mu_) = 0;
  std::map<std::string, std::pair<std::string, uint64_t>> manifest_
      BG3_GUARDED_BY(manifest_mu_);
};

}  // namespace bg3::cloud

#endif  // BG3_CLOUD_CLOUD_STORE_H_
