#include "common/trace.h"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/cost_model.h"
#include "common/json_writer.h"
#include "common/metrics_registry.h"
#include "common/op_context.h"
#include "common/timed_scope.h"

namespace bg3 {

namespace obs {
namespace internal {

std::atomic<uint32_t> g_flags{kTimingBit};

namespace {
std::atomic<uint64_t> g_slow_op_threshold_ns{0};
std::atomic<uint64_t> g_slow_ops{0};
std::atomic<size_t> g_ring_capacity{16384};

bool InitFromEnv() {
  uint32_t flags = kTimingBit;
  if (const char* v = std::getenv("BG3_TIMED_SCOPES")) {
    if (v[0] == '0' && v[1] == '\0') flags &= ~kTimingBit;
  }
  if (const char* v = std::getenv("BG3_TRACE")) {
    if (!(v[0] == '0' && v[1] == '\0') && v[0] != '\0') flags |= kTraceBit;
  }
  if (const char* v = std::getenv("BG3_SLOW_OP_US")) {
    const unsigned long long us = strtoull(v, nullptr, 10);
    if (us > 0) {
      g_slow_op_threshold_ns.store(us * 1000ull, std::memory_order_relaxed);
      flags |= kSlowOpBit;
    }
  }
  if (const char* v = std::getenv("BG3_TRACE_BUF_EVENTS")) {
    const unsigned long long n = strtoull(v, nullptr, 10);
    if (n >= 16)
      g_ring_capacity.store(static_cast<size_t>(n), std::memory_order_relaxed);
  }
  g_flags.store(flags, std::memory_order_relaxed);
  return true;
}

// Runs during static initialization, before main() spawns any threads.
const bool g_env_inited = InitFromEnv();

}  // namespace

void EnsureInitFromEnv() { (void)g_env_inited; }

}  // namespace internal

void SetTimingEnabled(bool on) {
  if (on) {
    internal::g_flags.fetch_or(kTimingBit, std::memory_order_relaxed);
  } else {
    internal::g_flags.fetch_and(~kTimingBit, std::memory_order_relaxed);
  }
}

}  // namespace obs

namespace trace {

namespace {

using obs::internal::g_ring_capacity;
using obs::internal::g_slow_op_threshold_ns;
using obs::internal::g_slow_ops;

constexpr char kPhaseComplete = 'X';
constexpr char kPhaseInstant = 'i';

// ---------------------------------------------------------------------------
// Firehose plane: per-thread lock-free rings (unchanged from the flat
// design, still behind BG3_TRACE).
// ---------------------------------------------------------------------------

// One trace event = 4 words, each accessed as a relaxed atomic so
// cross-thread export is race-free by construction (a wrapping writer can
// still tear an in-flight event; see header).
//   word0  name pointer (string literal)
//   word1  start timestamp, ns
//   word2  duration, ns (0 for instants)
//   word3  tid | depth<<32 | phase<<48
struct Ring {
  explicit Ring(size_t capacity, uint32_t tid_in)
      : words(capacity * 4), cap(capacity), tid(tid_in) {}

  std::vector<std::atomic<uint64_t>> words;
  std::atomic<uint64_t> pos{0};  ///< events ever written (monotonic).
  const size_t cap;
  const uint32_t tid;

  void Emit(const char* name, uint64_t ts_ns, uint64_t dur_ns, uint32_t depth,
            char phase) {
    const uint64_t i = pos.load(std::memory_order_relaxed);
    const size_t slot = (i % cap) * 4;
    words[slot + 0].store(reinterpret_cast<uint64_t>(name),
                          std::memory_order_relaxed);
    words[slot + 1].store(ts_ns, std::memory_order_relaxed);
    words[slot + 2].store(dur_ns, std::memory_order_relaxed);
    words[slot + 3].store(static_cast<uint64_t>(tid) |
                              (static_cast<uint64_t>(depth) << 32) |
                              (static_cast<uint64_t>(
                                   static_cast<unsigned char>(phase))
                               << 48),
                          std::memory_order_relaxed);
    pos.store(i + 1, std::memory_order_release);
  }
};

struct RingDirectory {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  uint32_t next_tid = 1;
};

RingDirectory& Directory() {
  static RingDirectory* dir = new RingDirectory();
  return *dir;
}

// Stable per-thread id shared by both recording planes, allocated lazily so
// span-only threads do not pay for a ring.
uint32_t ThisThreadTid() {
  thread_local const uint32_t tid = [] {
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    return dir.next_tid++;
  }();
  return tid;
}

Ring& ThisThreadRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    const uint32_t tid = ThisThreadTid();
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    auto r = std::make_shared<Ring>(
        g_ring_capacity.load(std::memory_order_relaxed), tid);
    dir.rings.push_back(r);
    return r;
  }();
  return *ring;
}

// ---------------------------------------------------------------------------
// Per-request plane: trace-id-keyed span capture with parent/child
// causality and tail-based retention (DESIGN.md §5.8).
// ---------------------------------------------------------------------------

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_next_span_id{1};
// Traced roots currently in flight; drives obs::kReqTraceBit so a scope
// stays one-flag-load cheap when no request is being traced.
std::atomic<uint32_t> g_traced_roots{0};

void IncTracedRoots() {
  if (g_traced_roots.fetch_add(1, std::memory_order_relaxed) == 0) {
    obs::internal::g_flags.fetch_or(obs::kReqTraceBit,
                                    std::memory_order_relaxed);
  }
}

void DecTracedRoots() {
  if (g_traced_roots.fetch_sub(1, std::memory_order_relaxed) == 1) {
    obs::internal::g_flags.fetch_and(~obs::kReqTraceBit,
                                     std::memory_order_relaxed);
    // A new root may have raced the clear; re-assert for it.
    if (g_traced_roots.load(std::memory_order_relaxed) != 0) {
      obs::internal::g_flags.fetch_or(obs::kReqTraceBit,
                                      std::memory_order_relaxed);
    }
  }
}

constexpr size_t kMaxActiveTraces = 128;
constexpr size_t kMaxSpansPerTrace = 512;
constexpr size_t kMaxRetainedTraces = 32;

struct ActiveTrace {
  uint64_t trace_id = 0;
  const char* root_name = nullptr;
  const char* workload_class = nullptr;
  uint64_t root_start_ns = 0;
  uint64_t dropped = 0;
  std::vector<SpanRecord> spans;
};

struct CaptureState {
  std::mutex mu;
  std::vector<std::unique_ptr<ActiveTrace>> active;
  std::deque<SlowTrace> retained;  ///< newest at the back.
};

CaptureState& Capture() {
  static CaptureState* s = new CaptureState();
  return *s;
}

void StartCapture(uint64_t trace_id, const char* root_name,
                  const char* workload_class, uint64_t start_ns) {
  CaptureState& c = Capture();
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.active.size() >= kMaxActiveTraces) return;  // spans will be dropped.
  auto t = std::make_unique<ActiveTrace>();
  t->trace_id = trace_id;
  t->root_name = root_name;
  t->workload_class = workload_class;
  t->root_start_ns = start_ns;
  c.active.push_back(std::move(t));
}

void AppendSpanToCapture(uint64_t trace_id, const SpanRecord& rec) {
  CaptureState& c = Capture();
  std::lock_guard<std::mutex> lock(c.mu);
  for (auto& t : c.active) {
    if (t->trace_id != trace_id) continue;
    if (t->spans.size() < kMaxSpansPerTrace) {
      t->spans.push_back(rec);
    } else {
      ++t->dropped;
    }
    return;
  }
}

std::unique_ptr<ActiveTrace> FinishCapture(uint64_t trace_id) {
  CaptureState& c = Capture();
  std::lock_guard<std::mutex> lock(c.mu);
  for (auto it = c.active.begin(); it != c.active.end(); ++it) {
    if ((*it)->trace_id == trace_id) {
      std::unique_ptr<ActiveTrace> t = std::move(*it);
      c.active.erase(it);
      return t;
    }
  }
  return nullptr;
}

void RetainTrace(SlowTrace st) {
  CaptureState& c = Capture();
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.retained.size() >= kMaxRetainedTraces) c.retained.pop_front();
  c.retained.push_back(std::move(st));
}

// Category = second dot-component of the metric-style name
// ("bg3.bwtree.get" -> "bwtree"), so chrome://tracing can filter by
// layer.
std::string CategoryOf(const char* name) {
  const std::string full(name);
  const size_t first = full.find('.');
  if (first != std::string::npos) {
    const size_t second = full.find('.', first + 1);
    if (second != std::string::npos)
      return full.substr(first + 1, second - first - 1);
  }
  return "bg3";
}

std::string TraceIdHex(uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

void DumpSlowOp(const obs::internal::ThreadState& t, const char* root_name,
                uint64_t root_start_ns, uint64_t root_dur_ns,
                uint64_t trace_id, const char* workload_class, bool root) {
  // Traced requests get their identity on the line so the log entry joins
  // against /tracez.
  char trace_tag[128] = "";
  if (trace_id != 0) {
    std::snprintf(trace_tag, sizeof(trace_tag),
                  " (trace=%016llx class=%s)%s",
                  static_cast<unsigned long long>(trace_id),
                  workload_class != nullptr ? workload_class : "default",
                  root ? " retained in /tracez" : "");
  }
  fprintf(stderr, "[bg3 slow-op] %s took %.3f ms (threshold %.3f ms)%s\n",
          root_name, root_dur_ns / 1e6,
          g_slow_op_threshold_ns.load(std::memory_order_relaxed) / 1e6,
          trace_tag);
  // Children completed in start order; indent by recorded depth.
  for (const auto& d : t.op_log) {
    fprintf(stderr, "[bg3 slow-op]   %*s%s +%.3fms dur=%.3fms\n",
            static_cast<int>(2 * d.depth), "", d.name,
            (d.start_ns - root_start_ns) / 1e6, d.dur_ns / 1e6);
  }
}

}  // namespace

uint64_t NewTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentTraceId() { return obs::internal::ThisThread().trace_id; }
uint64_t CurrentSpanId() { return obs::internal::ThisThread().span_id; }

TraceBinding::TraceBinding(uint64_t trace_id, uint64_t parent_span_id,
                           const char* workload_class) {
  obs::internal::ThreadState& t = obs::internal::ThisThread();
  prev_trace_id_ = t.trace_id;
  prev_span_id_ = t.span_id;
  prev_class_ = t.workload_class;
  t.trace_id = trace_id;
  t.span_id = parent_span_id;
  if (workload_class != nullptr) t.workload_class = workload_class;
}

TraceBinding::~TraceBinding() {
  obs::internal::ThreadState& t = obs::internal::ThisThread();
  t.trace_id = prev_trace_id_;
  t.span_id = prev_span_id_;
  t.workload_class = prev_class_;
}

void Trace::SetEnabled(bool on) {
  obs::internal::EnsureInitFromEnv();
  if (on) {
    obs::internal::g_flags.fetch_or(obs::kTraceBit, std::memory_order_relaxed);
  } else {
    obs::internal::g_flags.fetch_and(~obs::kTraceBit,
                                     std::memory_order_relaxed);
  }
}

void Trace::SetSlowOpThresholdNs(uint64_t ns) {
  g_slow_op_threshold_ns.store(ns, std::memory_order_relaxed);
  if (ns > 0) {
    obs::internal::g_flags.fetch_or(obs::kSlowOpBit,
                                    std::memory_order_relaxed);
  } else {
    obs::internal::g_flags.fetch_and(~obs::kSlowOpBit,
                                     std::memory_order_relaxed);
  }
}

uint64_t Trace::SlowOpThresholdNs() {
  return g_slow_op_threshold_ns.load(std::memory_order_relaxed);
}

uint64_t Trace::SlowOpCount() {
  return g_slow_ops.load(std::memory_order_relaxed);
}

void Trace::Instant(const char* name) {
  if (!Enabled()) return;
  ThisThreadRing().Emit(name, NowNanos(), 0, obs::internal::ThisThread().depth,
                        kPhaseInstant);
}

void Trace::SetRingCapacityForTesting(size_t events) {
  g_ring_capacity.store(events < 16 ? 16 : events,
                        std::memory_order_relaxed);
}

size_t Trace::EventCountForTesting() {
  RingDirectory& dir = Directory();
  std::lock_guard<std::mutex> lock(dir.mu);
  size_t total = 0;
  for (const auto& r : dir.rings) {
    const uint64_t pos = r->pos.load(std::memory_order_acquire);
    total += pos < r->cap ? pos : r->cap;
  }
  return total;
}

void Trace::Reset() {
  {
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    for (auto it = dir.rings.begin(); it != dir.rings.end();) {
      if (it->use_count() == 1) {
        // Owning thread exited; drop the ring entirely.
        it = dir.rings.erase(it);
      } else {
        (*it)->pos.store(0, std::memory_order_release);
        ++it;
      }
    }
  }
  {
    CaptureState& c = Capture();
    std::lock_guard<std::mutex> lock(c.mu);
    c.active.clear();
    c.retained.clear();
  }
  g_slow_ops.store(0, std::memory_order_relaxed);
}

std::string Trace::ExportChromeJson() {
  JsonWriter w(0);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  RingDirectory& dir = Directory();
  std::lock_guard<std::mutex> lock(dir.mu);
  for (const auto& r : dir.rings) {
    const uint64_t pos = r->pos.load(std::memory_order_acquire);
    const size_t n = pos < r->cap ? static_cast<size_t>(pos) : r->cap;
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = i * 4;
      const auto* name = reinterpret_cast<const char*>(
          r->words[slot + 0].load(std::memory_order_relaxed));
      const uint64_t ts_ns = r->words[slot + 1].load(std::memory_order_relaxed);
      const uint64_t dur_ns =
          r->words[slot + 2].load(std::memory_order_relaxed);
      const uint64_t meta = r->words[slot + 3].load(std::memory_order_relaxed);
      if (name == nullptr) continue;  // torn slot
      const char phase = static_cast<char>((meta >> 48) & 0xff);
      w.BeginObject();
      w.KV("name", name);
      w.KV("cat", CategoryOf(name));
      char ph[2] = {phase, 0};
      w.KV("ph", ph);
      w.KV("ts", static_cast<double>(ts_ns) / 1000.0);
      if (phase == kPhaseComplete)
        w.KV("dur", static_cast<double>(dur_ns) / 1000.0);
      if (phase == kPhaseInstant) w.KV("s", "t");
      w.KV("pid", 1);
      w.KV("tid", static_cast<uint64_t>(r->tid));
      w.EndObject();
    }
  }
  w.EndArray();
  w.KV("displayTimeUnit", "ms");
  w.EndObject();
  return w.TakeString();
}

bool Trace::WriteChromeJson(const std::string& path) {
  const std::string json = ExportChromeJson();
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && fclose(f) == 0;
  if (!ok && written == json.size()) {
    // fclose failed after full write; nothing more to do.
  }
  return ok;
}

std::string Trace::ExportToEnvFile() {
  if (!Enabled()) return "";
  const char* env = std::getenv("BG3_TRACE_FILE");
  const std::string path = env != nullptr && env[0] != '\0'
                               ? std::string(env)
                               : std::string("bg3_trace.json");
  return WriteChromeJson(path) ? path : "";
}

std::vector<SlowTrace> Trace::RetainedTraces() {
  CaptureState& c = Capture();
  std::lock_guard<std::mutex> lock(c.mu);
  return std::vector<SlowTrace>(c.retained.begin(), c.retained.end());
}

std::string Trace::RenderTracez() {
  const std::vector<SlowTrace> traces = RetainedTraces();
  JsonWriter w(0);
  w.BeginObject();
  w.KV("slow_op_threshold_us",
       g_slow_op_threshold_ns.load(std::memory_order_relaxed) / 1000);
  w.KV("retained", static_cast<uint64_t>(traces.size()));
  w.Key("traces");
  w.BeginArray();
  for (const SlowTrace& t : traces) {
    w.BeginObject();
    w.KV("trace_id", TraceIdHex(t.trace_id));
    w.KV("root", t.root_name);
    w.KV("workload_class", t.workload_class);
    w.KV("root_dur_us", static_cast<double>(t.root_dur_ns) / 1000.0);
    w.KV("span_count", static_cast<uint64_t>(t.spans.size()));
    w.KV("dropped_spans", t.dropped_spans);
    w.EndObject();
  }
  w.EndArray();
  // chrome://tracing-loadable: load the whole /tracez response directly.
  w.Key("traceEvents");
  w.BeginArray();
  for (const SlowTrace& t : traces) {
    const std::string id_hex = TraceIdHex(t.trace_id);
    for (const SpanRecord& s : t.spans) {
      w.BeginObject();
      w.KV("name", s.name);
      w.KV("cat", CategoryOf(s.name));
      w.KV("ph", "X");
      w.KV("ts", static_cast<double>(s.start_ns) / 1000.0);
      w.KV("dur", static_cast<double>(s.dur_ns) / 1000.0);
      w.KV("pid", 1);
      w.KV("tid", static_cast<uint64_t>(s.tid));
      w.Key("args");
      w.BeginObject();
      w.KV("trace", id_hex);
      w.KV("span", s.span_id);
      w.KV("parent", s.parent_id);
      w.KV("class", t.workload_class);
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.KV("displayTimeUnit", "ms");
  w.EndObject();
  return w.TakeString();
}

}  // namespace trace

namespace obs {

using trace::ActiveTrace;

void Scope::BeginSpan(const OpContext* traced_ctx) {
  span_ = true;
  internal::ThreadState& t = internal::ThisThread();
  if (traced_ctx != nullptr && t.trace_id != traced_ctx->trace_id) {
    // Outermost scope of this trace on the thread: become its root.
    root_ctx_ = traced_ctx;
    prev_trace_id_ = t.trace_id;
    prev_span_id_ = t.span_id;
    prev_class_ = t.workload_class;
    t.trace_id = traced_ctx->trace_id;
    t.span_id = 0;
    t.workload_class = traced_ctx->workload_class;
    trace::IncTracedRoots();
    trace::StartCapture(traced_ctx->trace_id, name_,
                        traced_ctx->workload_class_name(), start_ns_);
  }
  if (t.trace_id != 0) {
    span_id_ = trace::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    parent_id_ = t.span_id;
    t.span_id = span_id_;
  }
  ++t.depth;
}

void Scope::EndSpan(uint64_t end_ns) {
  const uint64_t dur_ns = end_ns - start_ns_;
  internal::ThreadState& t = internal::ThisThread();
  const uint32_t depth = --t.depth;
  const uint32_t flags = Flags();
  if (flags & kTraceBit) {
    trace::ThisThreadRing().Emit(name_, start_ns_, dur_ns, depth,
                                 trace::kPhaseComplete);
  }
  const uint64_t trace_id = t.trace_id;
  if (span_id_ != 0) {
    t.span_id = parent_id_;
    if (trace_id != 0) {
      trace::AppendSpanToCapture(trace_id,
                                 {name_, span_id_, parent_id_, start_ns_,
                                  dur_ns, trace::ThisThreadTid()});
    }
  }
  if (root_ctx_ == nullptr && depth > 0) {
    if ((flags & kSlowOpBit) &&
        t.op_log.size() < internal::ThreadState::kMaxOpLog) {
      t.op_log.push_back({name_, start_ns_, dur_ns, depth});
    }
    return;
  }

  // A top-level operation: a trace root, or the outermost scope on the
  // thread. It alone decides slowness, so one slow op counts once.
  const char* workload_class = t.workload_class;
  std::unique_ptr<ActiveTrace> capture;
  if (root_ctx_ != nullptr) {
    t.trace_id = prev_trace_id_;
    t.span_id = prev_span_id_;
    t.workload_class = prev_class_;
    trace::DecTracedRoots();
    capture = trace::FinishCapture(trace_id);
  }
  const uint64_t threshold =
      internal::g_slow_op_threshold_ns.load(std::memory_order_relaxed);
  const bool slow = threshold > 0 && dur_ns >= threshold;
  if (slow) {
    internal::g_slow_ops.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Default().GetCounter("bg3.trace.slow_ops")->Inc();
    trace::DumpSlowOp(t, name_, start_ns_, dur_ns, trace_id, workload_class,
                      root_ctx_ != nullptr);
  }
  t.op_log.clear();
  if (root_ctx_ == nullptr) return;

  // threshold == 0 means "retain every traced request" (tests, opt-in
  // always-on capture); otherwise only slow roots survive.
  if ((threshold == 0 || slow) && capture != nullptr) {
    trace::SlowTrace st;
    st.trace_id = capture->trace_id;
    st.root_name = capture->root_name;
    st.workload_class = capture->workload_class != nullptr
                            ? capture->workload_class
                            : "default";
    st.root_start_ns = capture->root_start_ns;
    st.root_dur_ns = dur_ns;
    st.dropped_spans = capture->dropped;
    st.spans = std::move(capture->spans);
    trace::RetainTrace(std::move(st));
  }
  if (root_ctx_->stats != nullptr) {
    CostAccounting::Default().RecordOp(*root_ctx_->stats,
                                       root_ctx_->workload_class_name());
  }
}

}  // namespace obs
}  // namespace bg3
