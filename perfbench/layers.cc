#include "layers.h"

#include <cmath>

#include "harness.h"

namespace bg3::perfbench {

namespace {

double Per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The inclusive per-layer histograms on GraphDB's path.
constexpr const char* kHistograms[] = {
    "bg3.api.get_neighbors_ns", "bg3.api.add_edge_ns",
    "bg3.api.run_gc_cycle_ns",  "bg3.forest.scan_ns",
    "bg3.forest.upsert_ns",     "bg3.bwtree.scan_ns",
    "bg3.bwtree.write_ns",      "bg3.cloud.read_ns",
    "bg3.cloud.append_ns",
};

}  // namespace

IoCounts IoCounts::Of(const cloud::IoStats& s) {
  return {s.read_ops.Get(),      s.read_bytes.Get(),
          s.append_ops.Get(),    s.append_bytes.Get(),
          s.gc_moved_bytes.Get(), s.extents_freed.Get()};
}

IoCounts IoCounts::Of(const MetricsRegistry::Snapshot& snap,
                      const std::string& prefix) {
  auto get = [&](const char* field) -> uint64_t {
    auto it = snap.counters.find(prefix + field);
    return it == snap.counters.end() ? 0 : it->second;
  };
  return {get("read_ops"),       get("read_bytes"),
          get("append_ops"),     get("append_bytes"),
          get("gc_moved_bytes"), get("extents_freed")};
}

IoCounts& IoCounts::operator+=(const IoCounts& o) {
  read_ops += o.read_ops;
  read_bytes += o.read_bytes;
  append_ops += o.append_ops;
  append_bytes += o.append_bytes;
  gc_moved_bytes += o.gc_moved_bytes;
  extents_freed += o.extents_freed;
  return *this;
}

IoCounts IoCounts::operator-(const IoCounts& o) const {
  return {read_ops - o.read_ops,         read_bytes - o.read_bytes,
          append_ops - o.append_ops,     append_bytes - o.append_bytes,
          gc_moved_bytes - o.gc_moved_bytes, extents_freed - o.extents_freed};
}

HistSum HistSum::Of(const MetricsRegistry::Snapshot& snap,
                    const std::string& name) {
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end()) return {};
  return {it->second.mean * static_cast<double>(it->second.count),
          it->second.count};
}

HistSum HistSum::Of(const Histogram& hist) {
  const Histogram::Snapshot s = hist.TakeSnapshot();
  return {static_cast<double>(s.sum), s.count};
}

void AddRegistryDelta(const MetricsRegistry::Snapshot& before,
                      const MetricsRegistry::Snapshot& after,
                      const std::string& store_prefix, LayerInputs* in) {
  for (const char* name : kHistograms) {
    in->hist[name] += HistSum::Of(after, name) - HistSum::Of(before, name);
  }
  in->exported += IoCounts::Of(after, store_prefix) -
                  IoCounts::Of(before, store_prefix);
}

LayerReport DeriveLayers(const LayerInputs& in) {
  LayerReport r;
  auto delta = [&](const char* name) {
    auto it = in.hist.find(name);
    return it == in.hist.end() ? HistSum{} : it->second;
  };
  const HistSum api_nbrs = delta("bg3.api.get_neighbors_ns");
  const HistSum api_add = delta("bg3.api.add_edge_ns");
  const HistSum forest_scan = delta("bg3.forest.scan_ns");
  const HistSum forest_upsert = delta("bg3.forest.upsert_ns");
  const HistSum bw_scan = delta("bg3.bwtree.scan_ns");
  const HistSum bw_write = delta("bg3.bwtree.write_ns");
  const HistSum cloud_read = delta("bg3.cloud.read_ns");
  const HistSum cloud_append = delta("bg3.cloud.append_ns");
  const HistSum gc_cycle = delta("bg3.api.run_gc_cycle_ns");
  // Foreground cloud time: what client 0's inline GC cycles did not issue.
  const HistSum fg_read = cloud_read - in.gc_cloud_read;
  const HistSum fg_append = cloud_append - in.gc_cloud_append;

  const double ops = static_cast<double>(in.ops);
  const double writes = static_cast<double>(in.writes);
  auto add = [&](const char* name, double value, const char* unit) {
    r.metrics.push_back({name, value, unit});
  };
  add("core.get_neighbors.self_ns",
      Per(api_nbrs.ns - forest_scan.ns, api_nbrs.count), "ns");
  add("core.add_edge.self_ns",
      Per(api_add.ns - forest_upsert.ns, api_add.count), "ns");
  add("core.calls_per_op", Per(in.core_calls, ops), "calls/op");
  add("query.khop.self_ns", Per(in.khop_self_ns, in.khop_ops), "ns");
  add("query.khop.core_calls", Per(in.khop_core_calls, in.khop_ops),
      "calls/op");
  add("graph.reach.self_ns", Per(in.reach_self_ns, in.reach_ops), "ns");
  add("graph.reach.core_calls", Per(in.reach_core_calls, in.reach_ops),
      "calls/op");
  add("forest.scan.self_ns",
      Per(forest_scan.ns - bw_scan.ns, forest_scan.count), "ns");
  add("forest.upsert.self_ns",
      Per(forest_upsert.ns - bw_write.ns, forest_upsert.count), "ns");
  add("forest.split_outs", in.split_outs, "count");
  add("forest.tree_count", in.tree_count, "count");
  add("bwtree.scan.self_ns", Per(bw_scan.ns - fg_read.ns, bw_scan.count), "ns");
  add("bwtree.latch.shared_conflicts_per_kop",
      Per(1000.0 * in.shared_conflicts, ops), "1/kop");
  add("bwtree.latch.exclusive_conflicts_per_kop",
      Per(1000.0 * in.exclusive_conflicts, ops), "1/kop");
  add("bwtree.write.self_ns", Per(bw_write.ns - fg_append.ns, bw_write.count),
      "ns");
  add("bwtree.consolidations_per_kwrite",
      Per(1000.0 * in.consolidations, writes), "1/kwrite");
  add("bwtree.splits", in.splits, "count");
  add("cloud.read.mean_ns", Per(cloud_read.ns, cloud_read.count), "ns");
  add("cloud.reads_per_op", Per(in.io.read_ops, ops), "1/op");
  add("cloud.read_bytes_per_op", Per(in.io.read_bytes, ops), "B/op");
  add("cloud.append.mean_ns", Per(cloud_append.ns, cloud_append.count), "ns");
  add("cloud.appends_per_write", Per(in.io.append_ops, writes), "1/write");
  add("cloud.append_bytes_per_user_byte",
      Per(in.io.append_bytes, writes * kLogicalEdgeBytes),
      "B/B");
  add("gc.cycles", gc_cycle.count, "count");
  add("gc.cycle.mean_ns", Per(gc_cycle.ns, gc_cycle.count), "ns");
  add("gc.moved_bytes_per_write", Per(in.io.gc_moved_bytes, writes), "B/write");
  add("gc.extents_freed", in.io.extents_freed, "count");
  add("obs.traced_qps_ratio", Per(in.qps_traced, in.qps_untraced), "ratio");

  // Self time of every layer over the whole run. The sum telescopes to
  // query + graph self plus core's inclusive time, which the harness's own
  // op timing encloses; the rest is unattributed (client loop, decorator,
  // timer reads).
  const double wall = static_cast<double>(in.op_wall_ns);
  const std::vector<std::pair<const char*, double>> self = {
      {"query", static_cast<double>(in.khop_self_ns)},
      {"graph", static_cast<double>(in.reach_self_ns)},
      {"core", api_nbrs.ns + api_add.ns - forest_scan.ns - forest_upsert.ns},
      {"forest", forest_scan.ns + forest_upsert.ns - bw_scan.ns - bw_write.ns},
      {"bwtree", bw_scan.ns + bw_write.ns - fg_read.ns - fg_append.ns},
      {"cloud", fg_read.ns + fg_append.ns},
  };
  const double tolerance = 1e-3 * wall;
  double attributed = 0;
  for (const auto& [layer, ns] : self) {
    attributed += ns;
    r.shares.push_back({layer, Per(ns, wall), "ratio"});
    if (ns < -tolerance) {
      r.errors.push_back(std::string(layer) + " self time is negative (" +
                         std::to_string(ns) + " ns)");
    }
  }
  const double unattributed = wall - attributed;
  r.shares.push_back({"unattributed", Per(unattributed, wall), "ratio"});
  add("obs.unattributed_frac", Per(unattributed, wall), "ratio");
  if (unattributed < -tolerance) {
    r.errors.push_back("layer self times exceed the ops' wall time by " +
                       std::to_string(-unattributed) + " ns");
  }
  double share_sum = 0;
  for (const Metric& m : r.shares) share_sum += m.value;
  if (wall > 0 && std::fabs(share_sum - 1.0) > 1e-9) {
    r.errors.push_back("layer shares add up to " + std::to_string(share_sum));
  }

  // Every core call the decorator timed is in core's histograms.
  if (api_nbrs.count + api_add.count != in.core_calls) {
    r.errors.push_back("core histograms count " +
                       std::to_string(api_nbrs.count + api_add.count) +
                       " calls; the harness made " +
                       std::to_string(in.core_calls));
  }
  // The cloud counts the store keeps equal what the registry exports, and
  // every append and timed read is counted once.
  if (!(in.exported == in.io)) {
    r.errors.push_back("IoStats deltas differ from the registry's "
                       "bg3.cloud.store<N>.* deltas");
  }
  if (cloud_append.count != in.io.append_ops) {
    r.errors.push_back("bg3.cloud.append_ns counted " +
                       std::to_string(cloud_append.count) +
                       " appends; IoStats " +
                       std::to_string(in.io.append_ops));
  }
  if (cloud_read.count > in.io.read_ops) {
    r.errors.push_back("bg3.cloud.read_ns counted " +
                       std::to_string(cloud_read.count) + " reads; IoStats " +
                       std::to_string(in.io.read_ops));
  }
  return r;
}

}  // namespace bg3::perfbench
