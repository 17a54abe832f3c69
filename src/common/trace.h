#ifndef BG3_COMMON_TRACE_H_
#define BG3_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace bg3 {

/// Layer that issued a piece of I/O, for per-request attribution. Every
/// BG3_TIMED_SCOPE that names a layer stamps it into the calling thread's
/// record on the way down; the cloud store reads it back when it bills bytes
/// to a request's OpStats, so a k-hop read's storage fetches show up as
/// "bwtree", a WAL group flush as "wal", a relocation as "gc" — the
/// breakdown the cost model reports per layer (DESIGN.md §5.8).
enum class OpLayer : uint8_t {
  kApi = 0,
  kQuery,
  kForest,
  kBwtree,
  kWal,
  kGc,
  kReplication,
  kOther,  ///< nothing declared a layer (direct store access, tests).
};
inline constexpr size_t kOpLayerCount = 8;

inline const char* OpLayerName(OpLayer layer) {
  switch (layer) {
    case OpLayer::kApi: return "api";
    case OpLayer::kQuery: return "query";
    case OpLayer::kForest: return "forest";
    case OpLayer::kBwtree: return "bwtree";
    case OpLayer::kWal: return "wal";
    case OpLayer::kGc: return "gc";
    case OpLayer::kReplication: return "replication";
    case OpLayer::kOther: return "other";
  }
  return "other";
}

// ---------------------------------------------------------------------------
// Global observability switches, packed into one atomic word so the
// BG3_TIMED_SCOPE fast path is a single relaxed load + branch (~1 ns) when
// everything is off. Defaults: timing on, slow-op log off. Environment
// overrides, read once at process start:
//   BG3_TIMED_SCOPES=0      disable per-scope latency histograms
//   BG3_SLOW_OP_US=N        log + retain top-level ops slower than N
// ---------------------------------------------------------------------------
namespace trace {

/// One closed span. `name` is the span's string literal (immortal: spans
/// store the pointer, not a copy); parent_id 0 marks a trace's root. Span
/// ids are unique per thread, and every span of a trace lives on its root's
/// thread. `depth` counts the spans open around this one on its thread.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t depth = 0;
};

}  // namespace trace

namespace obs {

inline constexpr uint32_t kTimingBit = 1u;
inline constexpr uint32_t kSlowOpBit = 2u;

namespace internal {
/// Bit set of the flags above; mutate via the setters only.
extern std::atomic<uint32_t> g_flags;

/// Everything a scope keeps per thread, in one record: the billing layer,
/// the open-span depth, the trace the thread is running (its innermost
/// open traced root), and the one span buffer. Every closed span is written
/// once, into `spans`, at the slot its scope took when it opened, so the
/// buffer is in start order and a scope's subtree is the suffix from its
/// own slot. The thread's outermost span drains the buffer when it ends.
struct ThreadState {
  OpLayer layer = OpLayer::kOther;  ///< innermost declared layer.
  uint32_t depth = 0;               ///< open spans on this thread.
  uint32_t tid = 0;                 ///< /tracez thread id; 0 = unassigned.
  uint64_t trace_id = 0;            ///< innermost open traced root; 0 = none.
  uint64_t span_id = 0;             ///< innermost open span (next parent).
  uint64_t last_span_id = 0;        ///< per-thread span id counter.
  std::vector<trace::SpanRecord> spans;
  uint64_t dropped = 0;  ///< spans lost to the cap in the current op.
  static constexpr size_t kMaxSpans = 512;
};

/// The calling thread's record. Function-local rather than a namespace-scope
/// extern: gcc's cross-TU TLS wrapper can hand instrumented callers a null
/// address for the extern form (PR 85400-style), which ubsan flags on
/// freshly spawned worker threads. The accessor form is init-on-first-use;
/// after the first call it costs one guard-byte check plus the TLS slot
/// access.
inline ThreadState& ThisThread() {
  thread_local ThreadState state;
  return state;
}
}  // namespace internal

inline uint32_t Flags() {
  return internal::g_flags.load(std::memory_order_relaxed);
}
inline bool TimingEnabled() { return Flags() & kTimingBit; }

void SetTimingEnabled(bool on);

}  // namespace obs

/// Innermost layer declared on the calling thread (kOther when none).
inline OpLayer CurrentOpLayer() { return obs::internal::ThisThread().layer; }

namespace trace {

/// Process-unique nonzero trace id (also reachable as
/// bg3::trace::NewTraceId() via op_context.h's forward declaration).
uint64_t NewTraceId();

/// A retained request trace: the root op plus its span subtree, kept when
/// the root exceeded the slow-op threshold — tail-based sampling — or
/// unconditionally when the threshold is 0. Spans are in start order.
struct SlowTrace {
  uint64_t trace_id = 0;
  std::string root_name;
  std::string workload_class;
  uint64_t root_start_ns = 0;
  uint64_t root_dur_ns = 0;
  uint32_t tid = 0;            ///< the root's thread.
  uint64_t dropped_spans = 0;  ///< spans lost to the per-thread cap.
  std::vector<SpanRecord> spans;
};

/// Process-wide trace facility. Every span a BG3_TIMED_SCOPE closes goes
/// into its thread's one buffer (obs::internal::ThreadState::spans); the
/// thread's outermost scope drains it, logging the op to stderr when slow.
/// A BG3_TIMED_SCOPE given an OpContext::Traced context becomes the
/// request's root; when the root ends slow (or the threshold is 0), its
/// subtree is copied into the retained set that RetainedTraces() and
/// `/tracez` serve. That copy is the only step that takes a lock.
class Trace {
 public:
  /// Tail-sampling control. Threshold > 0: retain (and log) only traces
  /// whose root exceeds it; 0: retain every traced request, disable the
  /// slow-op log for untraced spans.
  static void SetSlowOpThresholdNs(uint64_t ns);
  static uint64_t SlowOpThresholdNs();
  /// Top-level operations that exceeded the threshold so far: the
  /// `bg3.trace.slow_ops` registry counter.
  static uint64_t SlowOpCount();

  /// Copies of the currently retained slow traces, newest last.
  static std::vector<SlowTrace> RetainedTraces();
  /// `/tracez` document: a chrome://tracing-loadable {"traceEvents":[...]}
  /// (each event carries trace/span/parent ids in "args") plus a per-trace
  /// summary table under "traces".
  static std::string RenderTracez();

  /// Drops every retained trace (keeps the threshold and the count).
  static void Reset();
};

}  // namespace trace
}  // namespace bg3

#endif  // BG3_COMMON_TRACE_H_
