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
// everything is off. Defaults: timing on, tracing off, slow-op log off.
// Environment overrides, read once at process start:
//   BG3_TIMED_SCOPES=0      disable per-scope latency histograms
//   BG3_TRACE=1             enable trace-event recording
//   BG3_TRACE_FILE=path     where ExportToEnvFile() writes the chrome JSON
//   BG3_TRACE_BUF_EVENTS=N  per-thread ring capacity (events)
//   BG3_SLOW_OP_US=N        log + retain top-level ops slower than N
// ---------------------------------------------------------------------------
namespace obs {

inline constexpr uint32_t kTimingBit = 1u;
inline constexpr uint32_t kTraceBit = 2u;
inline constexpr uint32_t kSlowOpBit = 4u;
/// Set while at least one traced request (a BG3_TIMED_SCOPE given an
/// OpContext::Traced context) is in flight anywhere in the process; makes
/// every scope open a span and check its thread's trace binding. Maintained
/// by the request's root scope, never by hand.
inline constexpr uint32_t kReqTraceBit = 8u;
/// Any bit that makes a scope open a span (not just time itself).
inline constexpr uint32_t kSpanBits = kTraceBit | kSlowOpBit | kReqTraceBit;

namespace internal {
/// Bit set of the flags above; mutate via the setters only.
extern std::atomic<uint32_t> g_flags;
/// Forces the env-var read before first use (harmless to call repeatedly).
void EnsureInitFromEnv();

/// Everything a scope keeps per thread, in one record: the billing layer,
/// the open-span depth, the trace binding (which trace new spans join and
/// who their parent is), and the spans completed inside the current
/// top-level operation, so a slow-op breach can print the whole tree.
struct ThreadState {
  OpLayer layer = OpLayer::kOther;  ///< innermost declared layer.
  uint32_t depth = 0;               ///< open spans on this thread.
  uint64_t trace_id = 0;            ///< bound trace; 0 = none.
  uint64_t span_id = 0;             ///< innermost open span (next parent).
  const char* workload_class = nullptr;
  struct Done {
    const char* name;
    uint64_t start_ns;
    uint64_t dur_ns;
    uint32_t depth;
  };
  std::vector<Done> op_log;  ///< filled only while the slow-op log is on.
  static constexpr size_t kMaxOpLog = 512;
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

/// One completed span inside a retained trace. `name` is the span's string
/// literal; parent_id 0 marks the root.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

/// A fully retained request trace: the root op plus every span (across all
/// threads that carried a TraceBinding for it), kept when the root exceeded
/// the slow-op threshold — tail-based sampling — or unconditionally when the
/// threshold is 0.
struct SlowTrace {
  uint64_t trace_id = 0;
  std::string root_name;
  std::string workload_class;
  uint64_t root_start_ns = 0;
  uint64_t root_dur_ns = 0;
  uint64_t dropped_spans = 0;  ///< spans lost to the per-trace cap.
  std::vector<SpanRecord> spans;
};

/// Process-wide trace facility, two recording planes:
///
///  - **Firehose** (BG3_TRACE=1): every thread records fixed-size events
///    into its own lock-free ring buffer (single-writer; overwrites oldest
///    on wrap); ExportChromeJson() merges all rings into a
///    chrome://tracing-loadable JSON document.
///  - **Per-request** (a BG3_TIMED_SCOPE given an OpContext::Traced
///    context becomes the request's root): spans are additionally
///    keyed by trace id with parent/child causality and buffered per trace;
///    when the root ends, the whole tree is retained iff the root was slow
///    (tail-based), and served from RetainedTraces() / `/tracez`.
///
/// Event `name` pointers must be string literals (or otherwise immortal):
/// both planes store the pointer, not a copy.
///
/// Ring export concurrent with active writers is safe (all slot accesses
/// are relaxed atomics) but a thread wrapping its ring mid-export can tear
/// an event; export at quiescence for exact output. Tests and benches do.
class Trace {
 public:
  static bool Enabled() { return obs::Flags() & obs::kTraceBit; }
  static void SetEnabled(bool on);

  /// Tail-sampling control. Threshold > 0: retain (and log) only traces
  /// whose root exceeds it; 0: retain every traced request, disable the
  /// slow-op log for untraced spans.
  static void SetSlowOpThresholdNs(uint64_t ns);
  static uint64_t SlowOpThresholdNs();
  /// Top-level spans that exceeded the threshold so far (also a counter
  /// metric, `bg3.trace.slow_ops`).
  static uint64_t SlowOpCount();

  /// Records an instant event on the calling thread's timeline.
  static void Instant(const char* name);

  /// Merges every thread's ring into {"traceEvents":[...]} JSON.
  static std::string ExportChromeJson();
  /// ExportChromeJson() to `path`; false on I/O error.
  static bool WriteChromeJson(const std::string& path);
  /// Writes to $BG3_TRACE_FILE (default `bg3_trace.json`) if tracing is
  /// enabled; returns the path written, empty string if disabled/failed.
  static std::string ExportToEnvFile();

  /// Copies of the currently retained slow traces, newest last.
  static std::vector<SlowTrace> RetainedTraces();
  /// `/tracez` document: a chrome://tracing-loadable {"traceEvents":[...]}
  /// (each event carries trace/span/parent ids in "args") plus a per-trace
  /// summary table under "traces".
  static std::string RenderTracez();

  /// Clears all rings, per-request captures, retained traces, and the
  /// slow-op count (keeps enabled state). Rings of exited threads are
  /// garbage-collected here.
  static void Reset();

  /// Ring capacity (events) for rings created *after* the call — i.e. for
  /// threads that have not traced yet. Testing wraparound uses a tiny ring
  /// on a fresh thread.
  static void SetRingCapacityForTesting(size_t events);

  /// Events currently held across all rings (post-wrap rings report their
  /// full capacity).
  static size_t EventCountForTesting();
};

/// Trace id + innermost span id bound to the calling thread (0/0 when the
/// thread is not carrying a traced request). Capture these before handing
/// work to another thread, then install them there with TraceBinding so the
/// worker's spans join the same trace under the right parent.
uint64_t CurrentTraceId();
uint64_t CurrentSpanId();

/// RAII cross-thread trace propagation: binds {trace_id, parent_span_id}
/// to the current thread for the scope's lifetime, restoring the previous
/// binding on exit. Spans recorded while bound attach to `trace_id` as
/// children of `parent_span_id`.
class TraceBinding {
 public:
  TraceBinding(uint64_t trace_id, uint64_t parent_span_id,
               const char* workload_class = nullptr);
  ~TraceBinding();

  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  uint64_t prev_trace_id_;
  uint64_t prev_span_id_;
  const char* prev_class_;
};

}  // namespace trace
}  // namespace bg3

#endif  // BG3_COMMON_TRACE_H_
