#ifndef BG3_COMMON_RETRY_H_
#define BG3_COMMON_RETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/logging.h"
#include "common/op_context.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace bg3 {

/// Bounded retry/backoff policy. The simulated substrate (and the real
/// service it stands in for) produces transient IOError / Busy results and
/// occasional in-flight corruption; CloudStore applies this one policy
/// (CloudStoreOptions::retry) to every fault-capable entry point so one blip
/// does not surface as a request failure. The budget is deliberately small:
/// persistent errors must reach the caller quickly so it can degrade
/// (GC defers the extent, the RO node falls behind) instead of spinning.
struct RetryOptions {
  /// Total attempt budget, including the first try. Must be >= 1
  /// (BG3_DCHECK-enforced). 1 disables retries entirely.
  int max_attempts = 4;
  uint64_t initial_backoff_us = 1'000;
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_us = 64'000;

  /// Full-jitter backoff (AWS-style): each delay is drawn uniformly from
  /// [0, exponential schedule value], so a fleet of callers whose retries
  /// were triggered by the same substrate blip cannot re-converge into a
  /// synchronized retry storm. Driven by bg3::Random for determinism:
  /// `jitter_seed != 0` pins the exact delay sequence (tests);
  /// `jitter_seed == 0` (default) picks a distinct per-Backoff stream.
  bool jitter = true;
  uint64_t jitter_seed = 0;

  /// Backoff wait hook. Null (the default) skips waiting — correct for the
  /// simulated store, whose failures are schedule- not time-driven; drivers
  /// with a real or virtual clock pass e.g.
  /// `[&clock](uint64_t us) { clock.AdvanceUs(us); }`.
  std::function<void(uint64_t)> sleep;
};

/// Exponential backoff schedule: initial, initial*m, initial*m^2, ... capped
/// at max_backoff_us. With `opts.jitter` each returned delay is full-jitter:
/// uniform in [0, schedule value]; without it the schedule is returned
/// verbatim (deterministic, the pre-jitter behavior).
class Backoff {
 public:
  explicit Backoff(const RetryOptions& opts)
      : multiplier_(opts.backoff_multiplier),
        max_us_(opts.max_backoff_us),
        next_us_(opts.initial_backoff_us),
        jitter_(opts.jitter),
        rng_(opts.jitter_seed != 0 ? opts.jitter_seed : AutoSeed()) {}

  /// Delay before the next retry; advances the schedule.
  uint64_t NextDelayUs() {
    const uint64_t cur = next_us_ > max_us_ ? max_us_ : next_us_;
    const double scaled = static_cast<double>(cur) * multiplier_;
    next_us_ = scaled >= static_cast<double>(max_us_)
                   ? max_us_
                   : static_cast<uint64_t>(scaled);
    if (!jitter_ || cur == 0) return cur;
    return rng_.Uniform(cur + 1);  // full jitter: [0, cur]
  }

 private:
  /// Distinct deterministic stream per Backoff instance: same-process
  /// retriers draw different jitter (the whole point), while runs of the
  /// same binary remain reproducible.
  static uint64_t AutoSeed() {
    static std::atomic<uint64_t> stream{0};
    return 0x5eedULL ^
           ((stream.fetch_add(1, std::memory_order_relaxed) + 1) *
            0x9E3779B97F4A7C15ull);
  }

  const double multiplier_;
  const uint64_t max_us_;
  uint64_t next_us_;
  const bool jitter_;
  Random rng_;
};

/// DeadlineExceeded for a deadline that ran out inside the retry loop,
/// preserving the first (root-cause) error of the sequence — later attempts
/// often fail with derived or less specific messages.
inline Status RetryDeadlineExceeded(const Status& first) {
  if (first.ok()) {
    return Status::DeadlineExceeded("deadline expired before I/O attempt");
  }
  return Status::DeadlineExceeded("deadline expired during retry; first "
                                  "error: " +
                                  first.ToString());
}

namespace retry_internal {
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}
}  // namespace retry_internal

/// Runs `op` (a callable returning Status or Result<T>) until it succeeds,
/// fails with an error `retryable` rejects, `ctx`'s deadline expires
/// (checked before every attempt), or the attempt budget is spent.
/// `on_retry()` runs before each re-attempt, `on_exhausted()` once when the
/// budget dies. On exhaustion the *first* error is returned — it is the root
/// cause; on deadline expiry DeadlineExceeded wraps that root cause. The
/// Backoff (and its seed draw) is built only after a first failure, so the
/// no-fault path costs one call and one status check.
template <typename Op, typename Retryable, typename OnRetry,
          typename OnExhausted>
BG3_BLOCKING auto RetryWithBackoff(const RetryOptions& opts,
                                   const OpContext* ctx, Retryable&& retryable,
                                   OnRetry&& on_retry,
                                   OnExhausted&& on_exhausted, Op&& op)
    -> decltype(op()) {
  using R = decltype(op());
  BG3_DCHECK_GE(opts.max_attempts, 1)
      << "retry budget must allow at least one attempt";
  std::optional<Backoff> backoff;
  Status first;
  for (int attempt = 1;; ++attempt) {
    if (ctx != nullptr && ctx->Expired()) {
      return R(RetryDeadlineExceeded(first));
    }
    R res = op();
    const Status& s = retry_internal::StatusOf(res);
    if (s.ok() || !retryable(s)) return res;
    if (first.ok()) first = s;
    if (attempt >= opts.max_attempts) {
      on_exhausted();
      return R(first);
    }
    on_retry();
    if (!backoff) backoff.emplace(opts);
    const uint64_t delay = backoff->NextDelayUs();
    if (opts.sleep) opts.sleep(delay);
  }
}

}  // namespace bg3

#endif  // BG3_COMMON_RETRY_H_
