#include "common/cost_model.h"

#include <cmath>

#include "common/json_writer.h"
#include "common/metrics_registry.h"

namespace bg3 {

namespace {

uint64_t ToNanoUsd(double usd) {
  if (usd <= 0.0) return 0;
  return static_cast<uint64_t>(std::llround(usd * 1e9));
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

CostAccounting& CostAccounting::Default() {
  static CostAccounting* acc = new CostAccounting();
  return *acc;
}

void CostAccounting::RecordOp(const OpStats& s, const char* workload_class) {
  CostModel model(model_options());
  MetricsRegistry& reg = MetricsRegistry::Default();

  double total_usd = 0.0;
  for (size_t i = 0; i < kOpLayerCount; ++i) {
    const OpStats::LayerIo& io = s.layers[i];
    const uint64_t r_ops = io.cloud_read_ops.load(std::memory_order_relaxed);
    const uint64_t r_bytes =
        io.cloud_read_bytes.load(std::memory_order_relaxed);
    const uint64_t a_ops = io.cloud_append_ops.load(std::memory_order_relaxed);
    const uint64_t a_bytes =
        io.cloud_append_bytes.load(std::memory_order_relaxed);
    if (r_ops == 0 && a_ops == 0 && r_bytes == 0 && a_bytes == 0) continue;
    const double layer_usd = model.ReadCostUsd(r_ops, r_bytes) +
                             model.WriteCostUsd(a_ops, a_bytes);
    total_usd += layer_usd;
    reg.GetCounter(std::string("bg3.cost.layer.") +
                   OpLayerName(static_cast<OpLayer>(i)) + ".nanousd")
        ->Add(ToNanoUsd(layer_usd));
  }

  const char* cls =
      workload_class != nullptr && workload_class[0] != '\0' ? workload_class
                                                             : "default";
  reg.GetCounter(std::string("bg3.cost.class.") + cls + ".nanousd")
      ->Add(ToNanoUsd(total_usd));
  reg.GetCounter("bg3.cost.total_nanousd")->Add(ToNanoUsd(total_usd));
  reg.GetCounter("bg3.cost.requests")->Inc();
}

std::string RenderCostz() {
  const CostModelOptions opts = CostAccounting::Default().model_options();
  const CostModel model(opts);
  const MetricsRegistry::Snapshot snap =
      MetricsRegistry::Default().TakeSnapshot();

  // Process-wide cloud bill: sum every store instance's I/O counters and
  // total_bytes callbacks (names `bg3.cloud.store<N>.<field>`).
  uint64_t read_ops = 0, read_bytes = 0, append_ops = 0, append_bytes = 0;
  uint64_t stored_bytes = 0;
  for (const auto& [name, value] : snap.counters) {
    if (!HasPrefix(name, "bg3.cloud.")) continue;
    if (HasSuffix(name, ".read_ops")) read_ops += value;
    else if (HasSuffix(name, ".read_bytes")) read_bytes += value;
    else if (HasSuffix(name, ".append_ops")) append_ops += value;
    else if (HasSuffix(name, ".append_bytes")) append_bytes += value;
    else if (HasSuffix(name, ".total_bytes")) stored_bytes += value;
  }

  const double read_usd = model.ReadCostUsd(read_ops, read_bytes);
  const double write_usd = model.WriteCostUsd(append_ops, append_bytes);
  const double storage_usd = model.StorageCostUsdPerMonth(stored_bytes);

  JsonWriter w(0);
  w.BeginObject();
  w.Key("pricing");
  w.BeginObject();
  w.KV("usd_per_read_op", opts.usd_per_read_op);
  w.KV("usd_per_write_op", opts.usd_per_write_op);
  w.KV("usd_per_gb_read", opts.usd_per_gb_read);
  w.KV("usd_per_gb_written", opts.usd_per_gb_written);
  w.KV("usd_per_gb_month_stored", opts.usd_per_gb_month_stored);
  w.EndObject();

  w.Key("cloud");
  w.BeginObject();
  w.KV("read_ops", read_ops);
  w.KV("read_bytes", read_bytes);
  w.KV("append_ops", append_ops);
  w.KV("append_bytes", append_bytes);
  w.KV("stored_bytes", stored_bytes);
  w.KV("read_cost_usd", read_usd);
  w.KV("write_cost_usd", write_usd);
  w.KV("storage_cost_usd_per_month", storage_usd);
  w.KV("total_cost_usd", read_usd + write_usd + storage_usd);
  w.EndObject();

  w.KV("requests_accounted", snap.counters.count("bg3.cost.requests")
                                 ? snap.counters.at("bg3.cost.requests")
                                 : 0);
  w.KV("accounted_total_usd",
       snap.counters.count("bg3.cost.total_nanousd")
           ? snap.counters.at("bg3.cost.total_nanousd") / 1e9
           : 0.0);

  // Per-request attribution, folded in by a trace root scope via RecordOp.
  const std::string class_prefix = "bg3.cost.class.";
  const std::string layer_prefix = "bg3.cost.layer.";
  const std::string nano_suffix = ".nanousd";
  w.Key("by_class");
  w.BeginObject();
  for (const auto& [name, value] : snap.counters) {
    if (!HasPrefix(name, class_prefix) || !HasSuffix(name, nano_suffix))
      continue;
    w.KV(name.substr(class_prefix.size(),
                     name.size() - class_prefix.size() - nano_suffix.size()),
         value / 1e9);
  }
  w.EndObject();
  w.Key("by_layer");
  w.BeginObject();
  for (const auto& [name, value] : snap.counters) {
    if (!HasPrefix(name, layer_prefix) || !HasSuffix(name, nano_suffix))
      continue;
    w.KV(name.substr(layer_prefix.size(),
                     name.size() - layer_prefix.size() - nano_suffix.size()),
         value / 1e9);
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace bg3
