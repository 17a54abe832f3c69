#ifndef BG3_PERFBENCH_LAYERS_H_
#define BG3_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/histogram.h"
#include "common/metrics_registry.h"

namespace bg3::perfbench {

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The cloud store's I/O counters at one instant.
struct IoCounts {
  uint64_t read_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t append_ops = 0;
  uint64_t append_bytes = 0;
  uint64_t gc_moved_bytes = 0;
  uint64_t extents_freed = 0;

  static IoCounts Of(const cloud::IoStats& stats);
  /// The same counters as the registry exports them under `prefix`.
  static IoCounts Of(const MetricsRegistry::Snapshot& snap,
                     const std::string& prefix);
  IoCounts operator-(const IoCounts& o) const;
  IoCounts& operator+=(const IoCounts& o);
  bool operator==(const IoCounts& o) const = default;
};

/// Total and count of a nanosecond histogram.
struct HistSum {
  double ns = 0;
  uint64_t count = 0;

  static HistSum Of(const MetricsRegistry::Snapshot& snap,
                    const std::string& name);
  static HistSum Of(const Histogram& hist);
  HistSum operator-(const HistSum& o) const {
    return {ns - o.ns, count - o.count};
  }
  HistSum& operator+=(const HistSum& o) {
    ns += o.ns;
    count += o.count;
    return *this;
  }
};

/// Everything the traced rounds measured, from outside each layer. All
/// counts and times are summed over the traced rounds only.
struct LayerInputs {
  /// Deltas of the registry histograms DeriveLayers reads, by name.
  std::map<std::string, HistSum> hist;
  /// Deltas of the registry's copy of the store's counters.
  IoCounts exported;
  IoCounts io;  ///< IoStats deltas.
  /// Cloud read/append histogram deltas inside client 0's inline GC cycles.
  HistSum gc_cloud_read;
  HistSum gc_cloud_append;

  uint64_t ops = 0;
  uint64_t writes = 0;
  uint64_t op_wall_ns = 0;  ///< summed latency of every traced op.
  uint64_t core_calls = 0;
  uint64_t khop_ops = 0;
  uint64_t khop_self_ns = 0;
  uint64_t khop_core_calls = 0;
  uint64_t reach_ops = 0;
  uint64_t reach_self_ns = 0;
  uint64_t reach_core_calls = 0;

  uint64_t split_outs = 0;
  uint64_t tree_count = 0;
  uint64_t shared_conflicts = 0;
  uint64_t exclusive_conflicts = 0;
  uint64_t consolidations = 0;
  uint64_t splits = 0;

  double qps_traced = 0;
  double qps_untraced = 0;
};

struct LayerReport {
  std::vector<Metric> metrics;
  /// Each layer's share of the ops' wall time; the shares add up to 1.
  std::vector<Metric> shares;
  /// Reconciliation failures; the traced run fails when non-empty.
  std::vector<std::string> errors;
};

/// Adds the registry deltas between two snapshots taken around a traced
/// round; `store_prefix` is the store's registry name prefix.
void AddRegistryDelta(const MetricsRegistry::Snapshot& before,
                      const MetricsRegistry::Snapshot& after,
                      const std::string& store_prefix, LayerInputs* in);

/// Derives per-layer self times and counts. A layer's self time is its
/// inclusive histogram minus that of its direct child; query and graph
/// self time is their span minus the core calls inside it.
LayerReport DeriveLayers(const LayerInputs& in);

}  // namespace bg3::perfbench

#endif  // BG3_PERFBENCH_LAYERS_H_
