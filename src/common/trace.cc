#include "common/trace.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

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

bool InitFromEnv() {
  uint32_t flags = kTimingBit;
  if (const char* v = std::getenv("BG3_TIMED_SCOPES")) {
    if (v[0] == '0' && v[1] == '\0') flags &= ~kTimingBit;
  }
  if (const char* v = std::getenv("BG3_SLOW_OP_US")) {
    const unsigned long long us = strtoull(v, nullptr, 10);
    if (us > 0) {
      g_slow_op_threshold_ns.store(us * 1000ull, std::memory_order_relaxed);
      flags |= kSlowOpBit;
    }
  }
  g_flags.store(flags, std::memory_order_relaxed);
  return true;
}

// Runs during static initialization, before main() spawns any threads.
[[maybe_unused]] const bool g_env_inited = InitFromEnv();

}  // namespace
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

using obs::internal::g_slow_op_threshold_ns;
using obs::internal::ThreadState;

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint32_t> g_next_tid{1};

constexpr size_t kMaxRetainedTraces = 32;

struct RetainedSet {
  std::mutex mu;
  std::deque<SlowTrace> traces;  ///< newest at the back.
};

RetainedSet& Retained() {
  static RetainedSet* s = new RetainedSet();
  return *s;
}

Counter* SlowOps() {
  static Counter* const c =
      MetricsRegistry::Default().GetCounter("bg3.trace.slow_ops");
  return c;
}

// Copies the root's subtree — the buffer's suffix from the root's slot —
// into the retained set. The root's record keeps its thread parent in the
// buffer; within its own trace it has none.
void RetainSubtree(ThreadState& t, size_t slot, const OpContext& ctx,
                   const char* root_name, uint64_t start_ns, uint64_t dur_ns,
                   uint64_t dropped) {
  if (t.tid == 0) t.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  SlowTrace st;
  st.trace_id = ctx.trace_id;
  st.root_name = root_name;
  st.workload_class = ctx.workload_class_name();
  st.root_start_ns = start_ns;
  st.root_dur_ns = dur_ns;
  st.tid = t.tid;
  st.dropped_spans = dropped;
  if (slot < t.spans.size()) {
    st.spans.assign(t.spans.begin() + static_cast<ptrdiff_t>(slot),
                    t.spans.end());
    st.spans.front().parent_id = 0;
  }
  RetainedSet& r = Retained();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.traces.size() >= kMaxRetainedTraces) r.traces.pop_front();
  r.traces.push_back(std::move(st));
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

// Prints the thread's outermost op from its span buffer: the op, then every
// span it closed, in start order and indented by depth. One write, so dumps
// from concurrent threads do not interleave line by line.
void DumpSlowOp(const ThreadState& t, size_t slot, const char* op_name,
                uint64_t start_ns, uint64_t dur_ns, uint64_t threshold_ns,
                const OpContext* root) {
  std::string out;
  char line[256];
  // Traced requests get their identity on the line so the log entry joins
  // against /tracez.
  char trace_tag[128] = "";
  if (root != nullptr) {
    std::snprintf(trace_tag, sizeof(trace_tag),
                  " (trace=%016llx class=%s) retained in /tracez",
                  static_cast<unsigned long long>(root->trace_id),
                  root->workload_class_name());
  }
  std::snprintf(line, sizeof(line),
                "[bg3 slow-op] %s took %.3f ms (threshold %.3f ms)%s\n",
                op_name, dur_ns / 1e6, threshold_ns / 1e6, trace_tag);
  out += line;
  for (size_t i = slot + 1; i < t.spans.size(); ++i) {
    const SpanRecord& s = t.spans[i];
    std::snprintf(line, sizeof(line),
                  "[bg3 slow-op]   %*s%s +%.3fms dur=%.3fms\n",
                  static_cast<int>(2 * s.depth), "", s.name,
                  (s.start_ns - start_ns) / 1e6, s.dur_ns / 1e6);
    out += line;
  }
  if (t.dropped > 0) {
    std::snprintf(line, sizeof(line),
                  "[bg3 slow-op]   (%llu spans dropped)\n",
                  static_cast<unsigned long long>(t.dropped));
    out += line;
  }
  fwrite(out.data(), 1, out.size(), stderr);
}

}  // namespace

uint64_t NewTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
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

uint64_t Trace::SlowOpCount() { return SlowOps()->Get(); }

void Trace::Reset() {
  RetainedSet& r = Retained();
  std::lock_guard<std::mutex> lock(r.mu);
  r.traces.clear();
}

std::vector<SlowTrace> Trace::RetainedTraces() {
  RetainedSet& r = Retained();
  std::lock_guard<std::mutex> lock(r.mu);
  return std::vector<SlowTrace>(r.traces.begin(), r.traces.end());
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
      w.KV("tid", static_cast<uint64_t>(t.tid));
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

void Scope::BeginSpan(const OpContext* traced_ctx) {
  span_ = true;
  internal::ThreadState& t = internal::ThisThread();
  if (traced_ctx != nullptr && t.trace_id != traced_ctx->trace_id) {
    // Outermost scope of this trace on the thread: become its root.
    root_ctx_ = traced_ctx;
    prev_trace_id_ = t.trace_id;
    dropped_before_ = t.dropped;
    t.trace_id = traced_ctx->trace_id;
  }
  // The slot is taken at open, so the buffer is in start order.
  if (t.spans.size() < internal::ThreadState::kMaxSpans) {
    slot_ = static_cast<uint32_t>(t.spans.size());
    const uint64_t id = ++t.last_span_id;
    t.spans.push_back({name_, id, t.span_id, start_ns_, 0, t.depth});
    t.span_id = id;
  } else {
    ++t.dropped;
  }
  ++t.depth;
}

void Scope::EndSpan(uint64_t end_ns) {
  const uint64_t dur_ns = end_ns - start_ns_;
  internal::ThreadState& t = internal::ThisThread();
  --t.depth;
  if (slot_ != kNoSlot) {
    trace::SpanRecord& rec = t.spans[slot_];
    rec.dur_ns = dur_ns;
    t.span_id = rec.parent_id;
  }
  const uint64_t threshold =
      internal::g_slow_op_threshold_ns.load(std::memory_order_relaxed);
  const bool slow = threshold > 0 && dur_ns >= threshold;

  if (root_ctx_ != nullptr) {
    // threshold == 0 means "retain every traced request" (tests, opt-in
    // always-on capture); otherwise only slow roots survive.
    if (threshold == 0 || slow) {
      trace::RetainSubtree(t, slot_, *root_ctx_, name_, start_ns_, dur_ns,
                           t.dropped - dropped_before_);
    }
    t.trace_id = prev_trace_id_;
    if (root_ctx_->stats != nullptr) {
      CostAccounting::Default().RecordOp(*root_ctx_->stats,
                                         root_ctx_->workload_class_name());
    }
  }

  // The thread's outermost span ends its op: it alone decides slowness, so
  // one slow op counts once, and it drains the buffer.
  if (t.depth == 0) {
    if (slow) {
      trace::SlowOps()->Inc();
      trace::DumpSlowOp(t, slot_, name_, start_ns_, dur_ns, threshold,
                        root_ctx_);
    }
    t.spans.clear();
    t.dropped = 0;
  }
}

}  // namespace obs
}  // namespace bg3
