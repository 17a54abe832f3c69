// Shared helpers for the table/figure reproduction binaries. Each bench
// prints (a) the paper's reference series and (b) the measured series, in
// aligned columns, so EXPERIMENTS.md can be filled by copy-paste — and
// writes the same numbers as machine-readable BENCH_<name>.json via
// BenchReport (schema documented in EXPERIMENTS.md; validated by
// scripts/check_bench_json.py in CI).
#ifndef BG3_BENCH_BENCH_COMMON_H_
#define BG3_BENCH_BENCH_COMMON_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics_registry.h"

namespace bg3::bench {

inline void Banner(const std::string& title, const std::string& paper_ref) {
  printf("\n================================================================\n");
  printf("%s\n", title.c_str());
  printf("paper reference: %s\n", paper_ref.c_str());
  printf("================================================================\n");
}

inline void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  printf("  ");
  vprintf(fmt, args);
  va_end(args);
  printf("\n");
}

/// Pretty QPS with K/M suffix.
inline std::string Qps(double qps) {
  char buf[32];
  if (qps >= 1e6) {
    snprintf(buf, sizeof(buf), "%.2fM", qps / 1e6);
  } else if (qps >= 1e3) {
    snprintf(buf, sizeof(buf), "%.1fK", qps / 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%.0f", qps);
  }
  return buf;
}

inline std::string Mb(double bytes) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.2fMB", bytes / 1e6);
  return buf;
}

/// Machine-readable companion to the printed tables. One instance per bench
/// main; rows/scalars mirror what the bench prints, and Write() folds in the
/// full metrics-registry snapshot (per-layer latency histograms, counters,
/// gauges) plus an aggregated cloud-I/O breakdown, then writes
/// `BENCH_<name>.json` ($BG3_BENCH_JSON_DIR or cwd). Written JSON always has
/// the keys: schema_version, bench, config, series, scalars, latency_ns,
/// counters, gauges, io.
///
/// Destructor writes if Write() was never called, so early-return benches
/// still emit their file.
class BenchReport {
 private:
  /// Tagged scalar: string, double, or unsigned integer.
  struct Val {
    enum class Kind { kStr, kDouble, kUint } kind;
    std::string s;
    double d = 0;
    uint64_t u = 0;

    explicit Val(std::string v) : kind(Kind::kStr), s(std::move(v)) {}
    explicit Val(double v) : kind(Kind::kDouble), d(v) {}
    explicit Val(uint64_t v) : kind(Kind::kUint), u(v) {}

    void Emit(JsonWriter* w, const std::string& key) const {
      w->Key(key);
      switch (kind) {
        case Kind::kStr: w->Value(s); break;
        case Kind::kDouble:
          // NaN/Inf are not JSON; emit null.
          if (d != d || d > 1.7e308 || d < -1.7e308) {
            w->Null();
          } else {
            w->Value(d);
          }
          break;
        case Kind::kUint: w->Value(u); break;
      }
    }
  };

 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  ~BenchReport() {
    if (!written_) Write();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void Config(const std::string& key, const std::string& v) {
    config_.emplace_back(key, Val(v));
  }
  void Config(const std::string& key, const char* v) {
    config_.emplace_back(key, Val(std::string(v)));
  }
  void Config(const std::string& key, double v) {
    config_.emplace_back(key, Val(v));
  }
  void Config(const std::string& key, uint64_t v) {
    config_.emplace_back(key, Val(v));
  }
  void Config(const std::string& key, int v) {
    config_.emplace_back(key, Val(static_cast<uint64_t>(v)));
  }

  void Scalar(const std::string& key, double v) {
    scalars_.emplace_back(key, Val(v));
  }

  /// One measured data point of a printed series; `x` is the sweep label
  /// (thread count, extent size, policy name, ...).
  class Row {
   public:
    Row& Num(const std::string& key, double v) {
      fields_.emplace_back(key, Val(v));
      return *this;
    }
    Row& Str(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, Val(v));
      return *this;
    }

   private:
    friend class BenchReport;
    std::vector<std::pair<std::string, Val>> fields_;
  };

  Row& AddRow(const std::string& series, const std::string& x) {
    rows_.emplace_back();
    rows_.back().fields_.emplace_back("series", Val(series));
    rows_.back().fields_.emplace_back("x", Val(x));
    return rows_.back();
  }

  void Write() {
    written_ = true;
    const MetricsRegistry::Snapshot snap =
        MetricsRegistry::Default().TakeSnapshot();

    JsonWriter w(/*indent=*/2);
    w.BeginObject();
    w.KV("schema_version", 1);
    w.KV("bench", name_);

    w.Key("config");
    w.BeginObject();
    for (const auto& [k, v] : config_) v.Emit(&w, k);
    w.EndObject();

    w.Key("series");
    w.BeginArray();
    for (const Row& r : rows_) {
      w.BeginObject();
      for (const auto& [k, v] : r.fields_) v.Emit(&w, k);
      w.EndObject();
    }
    w.EndArray();

    w.Key("scalars");
    w.BeginObject();
    for (const auto& [k, v] : scalars_) v.Emit(&w, k);
    w.EndObject();

    w.Key("latency_ns");
    w.BeginObject();
    for (const auto& [name, v] : snap.histograms) {
      w.Key(name);
      w.BeginObject();
      w.KV("count", v.count);
      w.KV("mean", v.mean);
      w.KV("min", v.min);
      w.KV("p50", v.p50);
      w.KV("p95", v.p95);
      w.KV("p99", v.p99);
      w.KV("max", v.max);
      w.EndObject();
    }
    w.EndObject();

    w.Key("counters");
    w.BeginObject();
    for (const auto& [name, v] : snap.counters) w.KV(name, v);
    w.EndObject();

    w.Key("gauges");
    w.BeginObject();
    for (const auto& [name, v] : snap.gauges) w.KV(name, v);
    w.EndObject();

    // Cloud-I/O breakdown: every CloudStore registers its IoStats under
    // `bg3.cloud.store<N>.` and folds them into `bg3.cloud.retired.*` at
    // destruction; summing both gives the process-lifetime totals the
    // figures' read/write-amplification numbers are computed from.
    w.Key("io");
    w.BeginObject();
    static const char* kIoFields[] = {
        "append_ops",      "append_bytes",   "read_ops",
        "read_bytes",      "gc_moved_bytes", "extents_freed",
        "manifest_updates", "injected_faults", "retries",
        "retry_exhausted"};
    for (const char* field : kIoFields) {
      uint64_t total = 0;
      const std::string suffix = std::string(".") + field;
      for (const auto& [name, v] : snap.counters) {
        const bool cloud_counter =
            name.rfind("bg3.cloud.store", 0) == 0 ||
            name.rfind("bg3.cloud.retired.", 0) == 0;
        if (cloud_counter && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
          total += v;
        }
      }
      w.KV(field, total);
    }
    w.EndObject();

    w.EndObject();

    const std::string path = OutPath();
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
      return;
    }
    const std::string doc = w.TakeString();
    fwrite(doc.data(), 1, doc.size(), f);
    fputc('\n', f);
    fclose(f);
    Note("wrote %s", path.c_str());
  }

 private:
  std::string OutPath() const {
    const char* dir = getenv("BG3_BENCH_JSON_DIR");
    std::string path = dir != nullptr && dir[0] != '\0' ? std::string(dir) : ".";
    if (path.back() != '/') path += '/';
    return path + "BENCH_" + name_ + ".json";
  }

  const std::string name_;
  std::vector<std::pair<std::string, Val>> config_;
  std::vector<std::pair<std::string, Val>> scalars_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace bg3::bench

#endif  // BG3_BENCH_BENCH_COMMON_H_
