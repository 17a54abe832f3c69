#ifndef BG3_COMMON_TIMED_SCOPE_H_
#define BG3_COMMON_TIMED_SCOPE_H_

#include <cstdint>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/op_context.h"
#include "common/trace.h"

namespace bg3 {
namespace obs {

/// The one instrumentation primitive: an RAII scope at a layer boundary.
/// The common spelling is the BG3_TIMED_SCOPE macro below. On a single
/// begin/end pair it
///  - records the elapsed wall time into the `<name>_ns` histogram (timing
///    on, the default);
///  - writes one span named `<name>` into its thread's span buffer, when a
///    trace is running on the thread or the slow-op log (BG3_SLOW_OP_US) is
///    on; the thread's outermost span logs the op if slow and drains it;
///  - sets the calling thread's I/O billing layer, when given one;
///  - when given a traced OpContext and it is the outermost scope of that
///    trace on its thread, becomes the trace root: on exit it makes the
///    tail-retention decision for its subtree and folds the request's
///    OpStats into CostAccounting::Default().
/// A layer-only scope (`obs::Scope s(OpLayer::kWal);`) just sets the layer.
///
/// Cost model (measured in observability_test, documented in DESIGN.md
/// §5.3):
///  - everything off (SetTimingEnabled(false), no slow-op log, untraced or
///    null context, no trace on the thread): one relaxed atomic load +
///    branch and the thread record's layer save/restore, a few ns — safe to
///    leave in the hottest paths.
///  - timing on (default): two clock reads + one sharded histogram record,
///    ~50 ns.
///  - spans on: + one record in the thread's buffer, sharing the same two
///    clock reads.
class Scope {
 public:
  explicit Scope(OpLayer layer) : prev_layer_(internal::ThisThread().layer) {
    internal::ThisThread().layer = layer;
  }
  /// `name` must be a string literal (spans store the pointer).
  Scope(const char* name, Histogram* hist)
      : prev_layer_(internal::ThisThread().layer) {
    Begin(name, hist, nullptr);
  }
  Scope(const char* name, Histogram* hist, OpLayer layer,
        const OpContext* ctx = nullptr)
      : Scope(layer) {
    Begin(name, hist, ctx);
  }

  ~Scope() {
    if (name_ != nullptr) {
      const uint64_t end_ns = NowNanos();
      if (hist_ != nullptr) hist_->Record(end_ns - start_ns_);
      if (span_) EndSpan(end_ns);
    }
    internal::ThisThread().layer = prev_layer_;
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void Begin(const char* name, Histogram* hist, const OpContext* ctx) {
    const uint32_t flags = Flags();
    const bool traced = ctx != nullptr && ctx->trace_id != 0;
    // A span opens for a traced root, under the slow-op log, and inside a
    // trace already running on this thread.
    const bool span = traced || (flags & kSlowOpBit) ||
                      internal::ThisThread().trace_id != 0;
    if (!span && !(flags & kTimingBit)) return;
    name_ = name;
    start_ns_ = NowNanos();
    if (flags & kTimingBit) hist_ = hist;
    if (span) BeginSpan(traced ? ctx : nullptr);
  }
  // Out of line in trace.cc, next to the retained set they feed.
  void BeginSpan(const OpContext* traced_ctx);
  void EndSpan(uint64_t end_ns);

  static constexpr uint32_t kNoSlot = ~0u;

  const OpLayer prev_layer_;
  bool span_ = false;
  uint32_t slot_ = kNoSlot;  ///< this span's index in the thread's buffer.
  const char* name_ = nullptr;  ///< nonnull while timing or a span is open.
  Histogram* hist_ = nullptr;
  uint64_t start_ns_ = 0;
  const OpContext* root_ctx_ = nullptr;  ///< nonnull only on a trace root.
  // Saved by a root: the thread's trace to restore when it ends, and the
  // drop count its own subtree starts from.
  uint64_t prev_trace_id_ = 0;
  uint64_t dropped_before_ = 0;
};

}  // namespace obs
}  // namespace bg3

#define BG3_OBS_CONCAT_INNER(a, b) a##b
#define BG3_OBS_CONCAT(a, b) BG3_OBS_CONCAT_INNER(a, b)

/// BG3_TIMED_SCOPE(name [, layer [, ctx]]) instruments the enclosing scope
/// as operation `name_literal`, conventionally `bg3.<layer>.<op>`: it times
/// into the default-registry histogram `name_literal "_ns"` (resolved once
/// per call site), records a span named `name_literal`, optionally sets the
/// OpLayer, and roots the request's trace when `ctx` is traced. Spans are
/// named by operation, histograms by unit.
#define BG3_TIMED_SCOPE(name_literal, ...)                                   \
  static ::bg3::Histogram* const BG3_OBS_CONCAT(bg3_ts_hist_, __LINE__) =    \
      ::bg3::MetricsRegistry::Default().GetHistogram(name_literal "_ns");    \
  ::bg3::obs::Scope BG3_OBS_CONCAT(bg3_ts_scope_, __LINE__)(                 \
      name_literal,                                                          \
      BG3_OBS_CONCAT(bg3_ts_hist_, __LINE__) __VA_OPT__(, ) __VA_ARGS__)

#endif  // BG3_COMMON_TIMED_SCOPE_H_
