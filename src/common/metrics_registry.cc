#include "common/metrics_registry.h"

#include <utility>

#include "common/json_writer.h"
#include "common/logging.h"

namespace bg3 {

namespace {
const char kCollisionsMetric[] = "bg3.registry.collisions";
}  // namespace

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: metrics are recorded from destructors of static-ish
  // objects; a leaky singleton sidesteps shutdown-order races.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

uint64_t MetricsRegistry::NextInstanceId(const char* kind) {
  // One counter per kind string (interned literals): store0/db0/ro0 count
  // independently.
  static std::mutex mu;
  static std::map<std::string, uint64_t>* ids =
      new std::map<std::string, uint64_t>();
  std::lock_guard<std::mutex> lock(mu);
  return (*ids)[kind]++;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kCounter;
    e.owned_counter = std::make_unique<Counter>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  BG3_CHECK(it->second.kind == Kind::kCounter && it->second.owned_counter)
      << " metric '" << name << "' already registered with a different kind";
  return it->second.owned_counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kGauge;
    e.owned_gauge = std::make_unique<Gauge>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  BG3_CHECK(it->second.kind == Kind::kGauge && it->second.owned_gauge)
      << " metric '" << name << "' already registered with a different kind";
  return it->second.owned_gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kHistogram;
    e.owned_histogram = std::make_unique<Histogram>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  BG3_CHECK(it->second.kind == Kind::kHistogram && it->second.owned_histogram)
      << " metric '" << name << "' already registered with a different kind";
  return it->second.owned_histogram.get();
}

bool MetricsRegistry::AddExternal(const std::string& name, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.external = true;
  auto [it, inserted] = entries_.emplace(name, std::move(entry));
  (void)it;
  if (!inserted) collisions_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

bool MetricsRegistry::RegisterCounter(const std::string& name,
                                      const Counter* c) {
  Entry e;
  e.kind = Kind::kCounter;
  e.ext_counter = c;
  return AddExternal(name, std::move(e));
}

bool MetricsRegistry::RegisterLightCounter(const std::string& name,
                                           const LightCounter* c) {
  Entry e;
  e.kind = Kind::kCounter;
  e.ext_light = c;
  return AddExternal(name, std::move(e));
}

bool MetricsRegistry::RegisterGauge(const std::string& name, const Gauge* g) {
  Entry e;
  e.kind = Kind::kGauge;
  e.ext_gauge = g;
  return AddExternal(name, std::move(e));
}

bool MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const Histogram* h) {
  Entry e;
  e.kind = Kind::kHistogram;
  e.ext_histogram = h;
  return AddExternal(name, std::move(e));
}

bool MetricsRegistry::RegisterCallback(const std::string& name,
                                       std::function<uint64_t()> fn) {
  Entry e;
  e.kind = Kind::kCallback;
  e.callback = std::move(fn);
  return AddExternal(name, std::move(e));
}

void MetricsRegistry::Deregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end() && it->second.external) entries_.erase(it);
}

void MetricsRegistry::DeregisterPrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.lower_bound(prefix); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    if (it->second.external) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  // Copy the directory under the lock, then read the metrics unlocked:
  // callbacks and external metrics may call into engine code that itself
  // creates metrics (a BG3_TIMED_SCOPE registering its histogram), so holding
  // mu_ across evaluation would invert lock order. The pointers stay valid
  // because components deregister before dying and snapshots are not taken
  // concurrently with component teardown.
  struct Flat {
    std::string name;
    Kind kind;
    const Counter* counter;
    const LightCounter* light;
    const Gauge* gauge;
    const Histogram* histogram;
    std::function<uint64_t()> callback;
  };
  std::vector<Flat> flats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    flats.reserve(entries_.size());
    for (const auto& [name, e] : entries_) {
      Flat f;
      f.name = name;
      f.kind = e.kind;
      f.counter = e.owned_counter ? e.owned_counter.get() : e.ext_counter;
      f.light = e.ext_light;
      f.gauge = e.owned_gauge ? e.owned_gauge.get() : e.ext_gauge;
      f.histogram =
          e.owned_histogram ? e.owned_histogram.get() : e.ext_histogram;
      f.callback = e.callback;
      flats.push_back(std::move(f));
    }
  }
  for (const auto& e : flats) {
    const std::string& name = e.name;
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters[name] = e.counter != nullptr ? e.counter->Get()
                              : e.light != nullptr ? e.light->Get()
                                                   : 0;
        break;
      case Kind::kGauge:
        snap.gauges[name] = e.gauge != nullptr ? e.gauge->Get() : 0;
        break;
      case Kind::kCallback:
        snap.counters[name] = e.callback ? e.callback() : 0;
        break;
      case Kind::kHistogram: {
        const Histogram* h = e.histogram;
        if (h == nullptr) break;
        const Histogram::Snapshot hs = h->TakeSnapshot();
        HistogramValue v;
        v.count = hs.count;
        v.mean = hs.Mean();
        v.min = hs.min;
        v.p50 = hs.Percentile(0.50);
        v.p95 = hs.Percentile(0.95);
        v.p99 = hs.Percentile(0.99);
        v.max = hs.max;
        snap.histograms[name] = v;
        break;
      }
    }
  }
  snap.counters[kCollisionsMetric] =
      collisions_.load(std::memory_order_relaxed);
  return snap;
}

std::string MetricsRegistry::RenderPrometheus() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  auto sanitize = [](const std::string& name) {
    std::string s = name;
    for (char& c : s)
      if (c == '.' || c == '-') c = '_';
    return s;
  };
  char buf[128];
  for (const auto& [name, v] : snap.counters) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " counter\n";
    snprintf(buf, sizeof(buf), "%s %llu\n", n.c_str(),
             static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " gauge\n";
    snprintf(buf, sizeof(buf), "%s %lld\n", n.c_str(),
             static_cast<long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : snap.histograms) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " summary\n";
    const struct {
      const char* q;
      uint64_t val;
    } quantiles[] = {{"0.5", v.p50}, {"0.95", v.p95}, {"0.99", v.p99}};
    for (const auto& q : quantiles) {
      snprintf(buf, sizeof(buf), "%s{quantile=\"%s\"} %llu\n", n.c_str(), q.q,
               static_cast<unsigned long long>(q.val));
      out += buf;
    }
    snprintf(buf, sizeof(buf), "%s_count %llu\n", n.c_str(),
             static_cast<unsigned long long>(v.count));
    out += buf;
    snprintf(buf, sizeof(buf), "%s_max %llu\n", n.c_str(),
             static_cast<unsigned long long>(v.max));
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::RenderJson(int indent) const {
  const Snapshot snap = TakeSnapshot();
  JsonWriter w(indent);
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, v] : snap.counters) w.KV(name, v);
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, v] : snap.gauges) w.KV(name, v);
  w.EndObject();
  w.Key("histograms");
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
  w.EndObject();
  return w.TakeString();
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  collisions_.store(0, std::memory_order_relaxed);
}

}  // namespace bg3
