#ifndef BG3_COMMON_OP_CONTEXT_H_
#define BG3_COMMON_OP_CONTEXT_H_

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/op_stats.h"
#include "common/status.h"
#include "common/time_source.h"

namespace bg3 {

namespace trace {
/// Defined in trace.cc: process-unique nonzero trace id.
uint64_t NewTraceId();
}  // namespace trace

/// Per-request context threaded from the public API (GraphDB / ByteGraph /
/// replication nodes / Query) down through forest, bwtree, WAL and cloud
/// I/O. It carries the request deadline — every layer that can block or
/// retry consults it so a request never spends work past the point its
/// caller stopped waiting (the overload model of DESIGN.md §5.5) — and the
/// request's observability identity (DESIGN.md §5.8): a trace id keying the
/// span tree in `/tracez`, a workload-class tag for cost attribution, and
/// an optional OpStats sink that every layer bills its I/O to.
///
/// A null OpContext* (the default everywhere) means "no deadline, no
/// tracing, no stats" and takes the exact pre-instrumentation fast path: no
/// clock reads, no behavior change. Deadlines are absolute microseconds on
/// `clock`'s timeline, which may be wall time or a manual/virtual test
/// clock.
struct OpContext {
  const TimeSource* clock = nullptr;  ///< required when deadline_us != 0.
  uint64_t deadline_us = 0;           ///< absolute; 0 = no deadline.

  /// Nonzero joins this request into a `/tracez` span tree (see
  /// obs::Scope). 0 = untraced.
  uint64_t trace_id = 0;
  /// Workload class for cost/latency attribution ("online", "analytics",
  /// "backfill", ...). Must be a string literal or otherwise outlive the
  /// request; nullptr reports as "default".
  const char* workload_class = nullptr;
  /// Per-request I/O account, populated by every layer the request crosses.
  /// Not owned; nullptr (the default) disables per-request accounting.
  OpStats* stats = nullptr;

  /// Context expiring `timeout_us` from now on `clock`'s timeline.
  /// Saturates instead of wrapping: a huge timeout (e.g. uint64 max "wait
  /// forever") must not produce an already-expired deadline.
  static OpContext WithTimeout(const TimeSource* clock, uint64_t timeout_us) {
    OpContext ctx;
    ctx.clock = clock;
    const uint64_t now = clock->NowUs();
    ctx.deadline_us =
        timeout_us > std::numeric_limits<uint64_t>::max() - now
            ? std::numeric_limits<uint64_t>::max()
            : now + timeout_us;
    return ctx;
  }

  /// Context tagged for tracing and per-request accounting: fresh trace id,
  /// the given workload class, and `stats` as the I/O sink (may be null to
  /// trace without accounting). No deadline; set one afterwards if needed.
  static OpContext Traced(const char* workload_class, OpStats* stats) {
    OpContext ctx;
    ctx.trace_id = trace::NewTraceId();
    ctx.workload_class = workload_class;
    ctx.stats = stats;
    return ctx;
  }

  bool has_deadline() const { return deadline_us != 0; }
  bool traced() const { return trace_id != 0; }

  const char* workload_class_name() const {
    return workload_class != nullptr ? workload_class : "default";
  }

  bool Expired() const {
    return has_deadline() && clock != nullptr &&
           clock->NowUs() >= deadline_us;
  }

  /// Microseconds until the deadline; ~0 when no deadline is set, 0 once
  /// expired.
  uint64_t RemainingUs() const {
    if (!has_deadline() || clock == nullptr) {
      return std::numeric_limits<uint64_t>::max();
    }
    const uint64_t now = clock->NowUs();
    return now >= deadline_us ? 0 : deadline_us - now;
  }

  /// " (trace=<hex> class=<name>)" when traced, "" otherwise — appended to
  /// deadline errors and slow-op log lines so they join against `/tracez`.
  std::string DescribeForLog() const {
    if (!traced()) return "";
    char buf[96];
    std::snprintf(buf, sizeof(buf), " (trace=%016llx class=%s)",
                  static_cast<unsigned long long>(trace_id),
                  workload_class_name());
    return std::string(buf);
  }
};

/// Mid-operation deadline check: OK for a null/deadline-less context,
/// DeadlineExceeded once the deadline passed. `what` names the layer for
/// the error message ("bwtree read", "admission queue", ...). Traced
/// requests get their trace id and workload class appended so the logged
/// timeout is joinable against `/tracez`.
inline Status CheckDeadline(const OpContext* ctx, const char* what) {
  if (ctx == nullptr || !ctx->Expired()) return Status::OK();
  return Status::DeadlineExceeded(std::string("deadline expired in ") + what +
                                  ctx->DescribeForLog());
}

/// API-boundary validation (DESIGN.md §5.5): a context whose deadline is
/// malformed — set without a clock, or already zero/past at entry — is a
/// caller bug and is rejected with InvalidArgument *before any work or
/// admission*, distinct from DeadlineExceeded which means a valid deadline
/// ran out mid-operation. Null and deadline-less contexts pass untouched.
inline Status ValidateOpContext(const OpContext* ctx) {
  if (ctx == nullptr || !ctx->has_deadline()) return Status::OK();
  if (ctx->clock == nullptr) {
    return Status::InvalidArgument("OpContext deadline set without a clock");
  }
  if (ctx->clock->NowUs() >= ctx->deadline_us) {
    return Status::InvalidArgument(
        "OpContext deadline is zero or already past at the API boundary");
  }
  return Status::OK();
}

}  // namespace bg3

#endif  // BG3_COMMON_OP_CONTEXT_H_
