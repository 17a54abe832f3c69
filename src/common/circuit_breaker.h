#ifndef BG3_COMMON_CIRCUIT_BREAKER_H_
#define BG3_COMMON_CIRCUIT_BREAKER_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/metrics.h"
#include "common/time_source.h"

namespace bg3 {

/// Configuration of a CircuitBreaker. Disabled by default: an inert breaker
/// costs one relaxed atomic load per Allow() and nothing per Record*().
struct CircuitBreakerOptions {
  bool enabled = false;
  /// Failures (retry-exhaustion reports) within `failure_window_us` that
  /// trip the breaker open.
  int failure_threshold = 4;
  uint64_t failure_window_us = 1'000'000;
  /// How long the breaker stays open before letting probes through.
  uint64_t open_cooldown_us = 200'000;
  /// Max in-flight probe operations while half-open.
  int half_open_probes = 2;
  /// Probe successes required to close again.
  int close_after_successes = 2;
};

/// Classic three-state circuit breaker (DESIGN.md §5.5) wrapped around the
/// cloud store: when the store's retry budgets keep dying (the substrate is
/// down or badly degraded), the breaker trips open and every operation
/// fails fast with Status::Overloaded instead of burning its full retry
/// schedule — the difference between a latency blip and a metastable
/// retry storm. After `open_cooldown_us` it half-opens and lets a few
/// probes through; probe successes close it, a probe failure re-opens it.
///
/// The store feeds it itself: its retry loop reports every *exhausted*
/// budget as a failure — a single transient blip never trips anything —
/// and each attempt records its own success or error.
///
/// Thread safe. State transitions take a mutex; the closed-state hot path
/// (Allow/RecordSuccess with no recent failures) is a relaxed atomic load.
class CircuitBreaker {
 public:
  enum class State : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker(const CircuitBreakerOptions& options,
                 const TimeSource* clock);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// True if the operation may proceed. False = fail fast (caller returns
  /// Status::Overloaded). While half-open, admits up to
  /// `half_open_probes` concurrent probes.
  bool Allow();

  /// A store operation completed successfully (closes a half-open breaker
  /// after enough probes; resets the failure window when closed).
  void RecordSuccess();

  /// A retry budget died against the store (reopens from
  /// half-open; counts toward the trip threshold when closed).
  void RecordFailure();

  /// A single operation failed (transient or not). Never counts toward the
  /// closed-state trip threshold — one blip is the retry layer's business —
  /// but it settles the probe ledger: a failed half-open probe reopens the
  /// breaker, and while open it refreshes the cooldown. Every op admitted
  /// by Allow() must end in RecordSuccess() or RecordError(), otherwise
  /// half-open probe slots leak.
  void RecordError();

  State state() const {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }

  /// 0=closed, 1=open, 2=half-open; registered as
  /// `bg3.db<N>.overload.breaker_state`.
  const Gauge& state_gauge() const { return state_gauge_; }

  /// Operations rejected while open / trips to open so far.
  uint64_t rejected() const { return rejected_.Get(); }
  uint64_t trips() const { return trips_.Get(); }

  bool enabled() const { return opts_.enabled; }

 private:
  void TransitionLocked(State next);

  const CircuitBreakerOptions opts_;
  const TimeSource* const clock_;

  std::atomic<int> state_{static_cast<int>(State::kClosed)};
  /// Failures seen in the closed state since `window_start_us_`; relaxed
  /// mirror lets RecordSuccess skip the mutex when nothing is wrong.
  std::atomic<int> window_failures_{0};

  std::mutex mu_;
  uint64_t window_start_us_ = 0;
  uint64_t opened_at_us_ = 0;
  int probes_inflight_ = 0;
  int probe_successes_ = 0;

  Gauge state_gauge_;
  LightCounter rejected_;
  LightCounter trips_;
};

}  // namespace bg3

#endif  // BG3_COMMON_CIRCUIT_BREAKER_H_
