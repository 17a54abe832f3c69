#ifndef BG3_CORE_ADMISSION_H_
#define BG3_CORE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/op_context.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/time_source.h"

namespace bg3::core {

/// Request classes with independent concurrency limits and queues, so a
/// flood of one class cannot starve the others (reads keep serving while
/// writes are throttled, and background work never crowds out either).
enum class OpClass {
  kRead = 0,
  kWrite = 1,
  kBackground = 2,
};

inline const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead: return "read";
    case OpClass::kWrite: return "write";
    case OpClass::kBackground: return "background";
  }
  return "unknown";
}

/// Why writes are currently being shed (bitmask; 0 = not throttled).
struct ThrottleReason {
  static constexpr uint32_t kMemoryPressure = 1u << 0;  ///< resident > budget
};

struct AdmissionOptions {
  /// Off by default: every op is admitted immediately and the controller
  /// only counts it — the historical behavior, and what single-threaded
  /// tests and benches get without opting in.
  bool enabled = false;

  /// Concurrent in-flight reads / writes. 0 = unlimited for that class.
  /// Background work always gets 4 slots and 8 queued waiters.
  size_t read_slots = 64;
  size_t write_slots = 32;

  /// Waiters allowed per class once slots are full; arrivals beyond this
  /// are shed immediately with Overloaded (bounded queues are the whole
  /// point — an unbounded queue converts overload into latency collapse).
  size_t read_queue = 128;
  size_t write_queue = 64;

  /// Queue waits poll at this granularity so deadlines driven by a
  /// ManualTimeSource still fire (a condition variable cannot watch a
  /// simulated clock).
  uint64_t poll_granularity_us = 1'000;

  /// Writes are throttled once resident memory exceeds this fraction of
  /// the DB memory budget (only meaningful with a budget configured;
  /// <= 0 disables the watermark).
  double memory_throttle_ratio = 0.95;

  /// A deadline'd op is shed at the door when its remaining budget is
  /// below `service_time_margin` x the class's EWMA service time — even
  /// if a slot is free. Admitting it would burn a full service time on a
  /// request that finishes past its deadline (wasted work is what turns
  /// saturation into goodput collapse; see bench_overload). The margin
  /// absorbs service-time variance: at 1.0 a marginal admit has even odds
  /// of finishing late. <= 0 disables the check.
  double service_time_margin = 2.0;

  /// Shed ops produce no service-time samples, so a pessimistic estimate
  /// could latch a class shut forever. When the service-time shed would
  /// fire but no sample has refreshed the estimate for this long, one op
  /// is admitted as a probe instead; its real sample pulls the EWMA back
  /// down. <= 0 disables probing (never needed in practice — samples are
  /// also clamped to 8x the current estimate, so poisoning takes a
  /// sustained run of outliers, not one bad scheduler preemption).
  uint64_t service_probe_interval_us = 10'000;

  /// Clock for queue-wait accounting and the service-time estimate;
  /// nullptr = wall clock. Per-op deadlines use each OpContext's own clock.
  const TimeSource* time_source = nullptr;
};

/// Per-class admission control with bounded FIFO queues — the front door
/// of the overload-protection design (DESIGN.md §5.5). Every public DB op
/// asks for a permit; when the class is saturated the op either waits in a
/// bounded queue, is shed with Overloaded (queue full, writes throttled,
/// or the predicted wait already exceeds its deadline), or times out with
/// DeadlineExceeded. Shedding at the door costs microseconds; admitting
/// work the system cannot finish costs everyone's latency.
///
/// Thread safe. Permits are RAII: destruction (or Release) frees the slot
/// and wakes the next waiter.
class AdmissionController {
 public:
  class Permit {
   public:
    Permit() = default;
    Permit(Permit&& o) noexcept { *this = std::move(o); }
    Permit& operator=(Permit&& o) noexcept {
      Release();
      ctrl_ = o.ctrl_;
      cls_ = o.cls_;
      admitted_us_ = o.admitted_us_;
      o.ctrl_ = nullptr;
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() { Release(); }

    /// Frees the slot early; idempotent.
    void Release();

   private:
    friend class AdmissionController;
    Permit(AdmissionController* ctrl, OpClass cls, uint64_t admitted_us)
        : ctrl_(ctrl), cls_(cls), admitted_us_(admitted_us) {}

    AdmissionController* ctrl_ = nullptr;
    OpClass cls_ = OpClass::kRead;
    uint64_t admitted_us_ = 0;
  };

  explicit AdmissionController(const AdmissionOptions& options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Acquires a slot for `cls`, waiting in the class's bounded queue if
  /// saturated. Returns:
  ///   OK                — `*permit` holds the slot until released.
  ///   Overloaded        — shed: queue full, writes throttled, or the
  ///                       predicted queue wait exceeds the op's deadline.
  ///   DeadlineExceeded  — the op's deadline expired while queued.
  /// With the controller disabled this is a counter bump and always OK.
  BG3_BLOCKING Status Admit(OpClass cls, const OpContext* ctx, Permit* permit);

  /// Sets the write-throttle reason bitmask (ThrottleReason bits). While
  /// nonzero, kWrite ops are shed with Overloaded at the door; reads and
  /// background work are unaffected (graceful degradation: serve reads,
  /// refuse new write debt).
  void SetWriteThrottle(uint32_t reasons);
  uint32_t write_throttle_reasons() const {
    return throttle_reasons_.load(std::memory_order_relaxed);
  }

  bool enabled() const { return opts_.enabled; }

  // Registry-facing aggregates (registered by the owner under its prefix).
  const Counter& admitted() const { return admitted_; }
  const Counter& shed() const { return shed_; }
  const Counter& deadline_exceeded() const { return deadline_exceeded_; }
  /// Total ops currently waiting for a slot, across classes.
  const Gauge& queue_depth() const { return queue_depth_; }

  /// In-flight ops of one class (tests / introspection).
  size_t InFlight(OpClass cls) const;
  /// Waiters of one class.
  size_t Queued(OpClass cls) const;

 private:
  struct ClassState {
    size_t slots = 0;       ///< 0 = unlimited.
    size_t queue_cap = 0;   ///< waiters allowed beyond the slots.
    size_t inflight = 0;
    size_t waiters = 0;
    /// Exponentially weighted service-time estimate (µs), fed by permit
    /// lifetimes; drives predicted-wait shedding for deadline'd arrivals.
    double ewma_service_us = 0;
    /// When the estimate was last refreshed (sample landed or probe
    /// admitted); gates one-probe-per-interval recovery.
    uint64_t last_sample_us = 0;
    std::condition_variable cv;
  };

  void ReleaseSlot(OpClass cls, uint64_t admitted_us);
  ClassState& state(OpClass cls) { return classes_[static_cast<int>(cls)]; }
  const ClassState& state(OpClass cls) const {
    return classes_[static_cast<int>(cls)];
  }

  const AdmissionOptions opts_;
  const TimeSource* const clock_;

  mutable std::mutex mu_;
  ClassState classes_[3] BG3_GUARDED_BY(mu_);

  std::atomic<uint32_t> throttle_reasons_{0};

  Counter admitted_;
  Counter shed_;
  Counter deadline_exceeded_;
  Gauge queue_depth_;
};

}  // namespace bg3::core

#endif  // BG3_CORE_ADMISSION_H_
