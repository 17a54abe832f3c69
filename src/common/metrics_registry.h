#ifndef BG3_COMMON_METRICS_REGISTRY_H_
#define BG3_COMMON_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"

namespace bg3 {

/// Process-wide named-metrics registry: the one read-out of engine state.
/// `RenderJson`/`RenderPrometheus`, DebugServer's `/metrics`, the benches
/// and `examples/bg3_stats` all read it, so every surface reports the same
/// source-of-truth counters.
///
/// Two ways a metric gets in:
///  - **Owned**: `GetCounter/GetGauge/GetHistogram(name)` get-or-create a
///    registry-owned metric. Idempotent per name; repeated calls return the
///    same object (`BG3_TIMED_SCOPE` caches its `<name>_ns` histogram
///    pointer in a function-local static). Owned metrics live until
///    ResetForTesting().
///  - **External**: `Register{Counter,Gauge,Histogram,Callback}` expose a
///    metric owned by some component instance (a CloudStore's IoStats, an
///    RoNode's sync-latency histogram). The component must `Deregister`
///    (or `DeregisterPrefix`) before the instance dies; per-instance name
///    prefixes (`bg3.cloud.store0.`) keep multiple instances collision-free.
///
/// Name rules: dot-separated lowercase path, `bg3.<layer>.<op>[_<unit>]`,
/// unit suffix `_ns` for wall-clock durations, `_us` for simulated-clock
/// durations, `_bytes` / `_ops` / plain for counters (see DESIGN.md §5.3).
///
/// Collisions: requesting a name as two different kinds (counter then
/// histogram) is a programming error and aborts via BG3_CHECK. Registering
/// an external metric under a name that is already taken keeps the first
/// registration and bumps the `bg3.registry.collisions` self-metric — the
/// metrics-smoke CI job fails any run where it is nonzero.
///
/// Thread safety: all methods are thread-safe; metric mutation through the
/// returned pointers is lock-free (see Counter/Histogram).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance all BG3 layers record into.
  static MetricsRegistry& Default();

  // --- owned metrics (get-or-create) ---------------------------------------
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // --- external metrics ----------------------------------------------------
  // The pointee must stay valid until Deregister'd. Returns false (and
  // counts a collision) if the name is already registered.
  bool RegisterCounter(const std::string& name, const Counter* c);
  bool RegisterLightCounter(const std::string& name, const LightCounter* c);
  bool RegisterGauge(const std::string& name, const Gauge* g);
  bool RegisterHistogram(const std::string& name, const Histogram* h);
  /// Computed-on-snapshot value (approx memory, live bytes, ...).
  bool RegisterCallback(const std::string& name,
                        std::function<uint64_t()> fn);

  void Deregister(const std::string& name);
  /// Removes every external metric whose name starts with `prefix`
  /// (instance teardown).
  void DeregisterPrefix(const std::string& prefix);

  /// Duplicate-name registrations observed so far (also exported as
  /// `bg3.registry.collisions` in every snapshot).
  uint64_t collisions() const {
    return collisions_.load(std::memory_order_relaxed);
  }

  /// Monotonically increasing id for naming component instances
  /// (`bg3.cloud.store<id>.`); process-wide, never reused.
  static uint64_t NextInstanceId(const char* kind);

  // --- snapshots -----------------------------------------------------------
  struct HistogramValue {
    uint64_t count = 0;
    double mean = 0;
    uint64_t min = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
  };
  struct Snapshot {
    std::map<std::string, uint64_t> counters;   ///< counters + callbacks.
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramValue> histograms;
  };
  /// Coherent per-metric (not cross-metric) point-in-time view, in
  /// deterministic (sorted) name order. Always includes
  /// `bg3.registry.collisions`.
  Snapshot TakeSnapshot() const;

  /// Prometheus text exposition format.
  std::string RenderPrometheus() const;
  /// Structured JSON: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string RenderJson(int indent = 2) const;

  /// Drops every owned and external metric and zeroes the collision count.
  /// Test isolation only — outstanding metric pointers dangle after this.
  void ResetForTesting();

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Entry {
    Kind kind;
    // Owned storage (at most one set) ...
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Gauge> owned_gauge;
    std::unique_ptr<Histogram> owned_histogram;
    // ... or external views.
    const Counter* ext_counter = nullptr;
    const LightCounter* ext_light = nullptr;
    const Gauge* ext_gauge = nullptr;
    const Histogram* ext_histogram = nullptr;
    std::function<uint64_t()> callback;
    bool external = false;
  };

  bool AddExternal(const std::string& name, Entry entry);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::atomic<uint64_t> collisions_{0};
};

}  // namespace bg3

#endif  // BG3_COMMON_METRICS_REGISTRY_H_
