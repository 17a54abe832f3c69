// BG3 end-to-end benchmark. Loads a seeded power-law graph into
// core::GraphDB, runs one Table-1 workload as a closed loop of 4 clients,
// checks the answers against a reference adjacency, and prints every
// metric by name with its unit. The last line of stdout is one JSON object.
//
//   bg3_perfbench --workload follow-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of the program as shipped
// (timing histograms on, tracing off, no harness spans). --trace 1 traces
// every second round of the same run and prints the per-layer metrics of
// the traced rounds. See README.md.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/clock.h"
#include "common/cost_model.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/graph_db.h"
#include "graph/traversal.h"
#include "harness.h"
#include "layers.h"
#include "query/query.h"
#include "workload/graph_gen.h"
#include "workload/workloads.h"

namespace bg3::perfbench {
namespace {

constexpr int kRounds = 20;            // a run's ops, split into equal rounds
constexpr int kSetups = 3;             // loads timed for setup_s

constexpr uint64_t kVertices = 50'000;
constexpr uint64_t kEdges = 200'000;
constexpr double kZipfTheta = 0.8;
constexpr size_t kReadLimit = 32;  // 1-hop GetNeighbors limit

// risk-control's benchmark clock: the load is written over one TTL (an
// hour), the graph then ages 12 minutes, so the oldest fifth of the load
// has expired when the run starts, and each run write advances the clock
// 1 ms. A 10 s run ages out about 2% more of the load, so the share of
// expired entries, and with it the cost of a read, stays nearly constant.
constexpr uint64_t kClockStartUs = 1'000'000'000'000ull;
constexpr uint64_t kLoadStepUs = 18'000;
constexpr uint64_t kTtlUs = kEdges * kLoadStepUs;
constexpr uint64_t kAgeUs = kTtlUs / 5;
constexpr uint64_t kRunStepUs = 1'000;
constexpr uint64_t kGcEveryOps = 2'000;  // client 0's own ops per GC cycle

// recommend-nocache is read-only; its write latencies come from a separate
// write phase after the measured reads, in kRounds rounds of 8,000 writes:
// enough samples per round for a p99 that one host hiccup does not set.
constexpr uint64_t kWritePhaseOpsPerClient = 40'000;

enum class Kind { kFollowHot, kRecommendNoCache, kRiskControl };

struct Spec {
  const char* name;
  Kind kind;
  /// Ops each client runs per second of --seconds. Runs are a fixed,
  /// seeded op count, not a time limit: writes grow the graph, so a
  /// time-bounded run would change its own work.
  uint64_t ops_per_client_per_s;
};

constexpr Spec kSpecs[] = {
    {"follow-hot", Kind::kFollowHot, 90'000},
    {"recommend-nocache", Kind::kRecommendNoCache, 1'550},
    {"risk-control", Kind::kRiskControl, 8'000},
};

// Seed streams derived from --seed.
constexpr uint64_t kGraphStream = 1;
constexpr uint64_t kCheckStream = 2;
constexpr uint64_t kClientStream = 100;  // + client
constexpr uint64_t kPropsStream = 200;   // + client
constexpr uint64_t kWritePhaseStream = 300;  // + client

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return Mix64(Mix64(seed) ^ stream);
}

// --- one loaded database ----------------------------------------------------

struct Instance {
  ManualTimeSource clock;  // declared first: the DB reads it until destroyed
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<core::GraphDB> db;
  std::unique_ptr<HarnessEngine> engine;
  double load_s = 0;
};

/// Creation time of the next edge write; advances the benchmark clock by
/// `step_us` on risk-control.
graph::TimestampUs Stamp(Kind kind, ManualTimeSource* clock, uint64_t step_us) {
  if (kind != Kind::kRiskControl) return NowMicros();
  clock->AdvanceUs(step_us);
  return clock->NowUs();
}

std::unique_ptr<Instance> Load(Kind kind, uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  inst->clock.SetUs(kClockStartUs);
  core::GraphDBOptions opts;
  opts.forest.split_out_threshold = 256;
  if (kind == Kind::kRecommendNoCache) {
    opts.forest.tree_options.read_cache = bwtree::ReadCacheMode::kNone;
  }
  if (kind == Kind::kRiskControl) {
    opts.edge_ttl_us = kTtlUs;
    opts.time_source = &inst->clock;
  }

  workload::GraphGenOptions gen;
  gen.num_sources = kVertices;
  gen.num_dests = kVertices;
  gen.num_edges = kEdges;
  gen.zipf_theta = kZipfTheta;
  gen.edge_type = kEdgeType;
  gen.property_bytes = kPropertyBytes;
  gen.seed = DeriveSeed(seed, kGraphStream);

  const uint64_t t0 = NowNanos();
  inst->store = std::make_unique<cloud::CloudStore>();
  inst->db = std::make_unique<core::GraphDB>(inst->store.get(), opts);
  inst->engine = std::make_unique<HarnessEngine>(inst->db.get());
  // The edge sequence of workload::LoadGraph, with creation times from the
  // benchmark clock so TTL'd edges age on it.
  ZipfGenerator src_gen(gen.num_sources, gen.zipf_theta, gen.seed);
  ZipfGenerator dst_gen(gen.num_dests, gen.zipf_theta, gen.seed + 1);
  const std::string props =
      workload::MakeProperties(gen.seed, gen.property_bytes);
  HarnessEngine::BindWriter(kLoadWriter);
  for (uint64_t i = 0; i < gen.num_edges; ++i) {
    const graph::VertexId src = src_gen.Next();
    graph::VertexId dst = dst_gen.Next();
    if (dst == src) dst = (dst + 1) % gen.num_dests;
    Status s = inst->engine->AddEdge(src, gen.edge_type, dst, props,
                                     Stamp(kind, &inst->clock, kLoadStepUs));
    BG3_CHECK(s.ok()) << "load: " << s.ToString();
  }
  inst->clock.AdvanceUs(kAgeUs);
  inst->load_s = static_cast<double>(NowNanos() - t0) / 1e9;
  return inst;
}

// --- closed-loop clients ----------------------------------------------------

std::unique_ptr<workload::WorkloadGenerator> MakeGenerator(Kind kind,
                                                           bool writes_only,
                                                           uint64_t seed) {
  if (writes_only || kind == Kind::kFollowHot) {
    workload::FollowWorkload::Options o;
    o.num_users = kVertices;
    o.zipf_theta = kZipfTheta;
    o.write_fraction = writes_only ? 1.0 : 0.01;
    return std::make_unique<workload::FollowWorkload>(o, seed);
  }
  if (kind == Kind::kRecommendNoCache) {
    workload::RecommendWorkload::Options o;
    o.num_users = kVertices;
    o.zipf_theta = kZipfTheta;
    return std::make_unique<workload::RecommendWorkload>(o, seed);
  }
  workload::RiskControlWorkload::Options o;
  o.num_accounts = kVertices;
  o.zipf_theta = kZipfTheta;
  o.min_hops = 5;
  o.max_hops = 10;
  return std::make_unique<workload::RiskControlWorkload>(o, seed);
}

struct Client {
  std::unique_ptr<workload::WorkloadGenerator> gen;
  std::string props;
  uint64_t own_ops = 0;  // across rounds: the GC cadence
  std::vector<uint32_t> read_ns;   // this round
  std::vector<uint32_t> write_ns;  // this round
  uint64_t ops = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  LayerInputs trace;  // this client's sums over the traced rounds
};

struct PhaseResult {
  // Per round; qps of untraced and traced rounds apart.
  std::vector<double> qps, traced_qps;
  std::vector<double> read_p50_us, read_p99_us, write_p50_us, write_p99_us;
  uint64_t read_samples = 0;
  uint64_t write_samples = 0;
  uint64_t ops = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  LayerInputs trace;  // summed over clients and traced rounds
};

uint32_t ClampNs(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

/// Nearest-rank percentile in microseconds; 0 without samples.
double PercentileUs(std::vector<uint32_t>* ns, double q) {
  if (ns->empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * ns->size()));
  const size_t idx = std::min(ns->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(ns->begin(), ns->begin() + idx, ns->end());
  return (*ns)[idx] / 1000.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void RunGc(Instance* inst, bool traced, Client* c) {
  static Histogram* const cloud_read =
      MetricsRegistry::Default().GetHistogram("bg3.cloud.read_ns");
  static Histogram* const cloud_append =
      MetricsRegistry::Default().GetHistogram("bg3.cloud.append_ns");
  const HistSum r0 = traced ? HistSum::Of(*cloud_read) : HistSum{};
  const HistSum a0 = traced ? HistSum::Of(*cloud_append) : HistSum{};
  if (!inst->db->RunGcCycle().ok()) ++c->errors;
  if (traced) {
    c->trace.gc_cloud_read += HistSum::Of(*cloud_read) - r0;
    c->trace.gc_cloud_append += HistSum::Of(*cloud_append) - a0;
  }
}

void RunClient(Instance* inst, Kind kind, bool traced, int index, uint64_t ops,
               Client* c) {
  HarnessEngine::BindWriter(index);
  HarnessEngine* engine = inst->engine.get();
  const CoreTally& tally = HarnessEngine::Tally();
  std::vector<graph::Neighbor> neighbors;
  for (uint64_t i = 0; i < ops; ++i) {
    const workload::Op op = c->gen->Next();
    const graph::TimestampUs created_us =
        op.type == workload::Op::Type::kInsertEdge
            ? Stamp(kind, &inst->clock, kRunStepUs)
            : 0;
    const CoreTally before = tally;
    const uint64_t t0 = NowNanos();
    Status s;
    switch (op.type) {
      case workload::Op::Type::kInsertEdge:
        s = engine->AddEdge(op.src, kEdgeType, op.dst, c->props, created_us);
        break;
      case workload::Op::Type::kOneHop:
        neighbors.clear();
        s = engine->GetNeighbors(op.src, kEdgeType, kReadLimit, &neighbors);
        break;
      case workload::Op::Type::kMultiHop: {
        query::Query q(engine);
        q.V(op.src);
        for (int h = 0; h < op.hops; ++h) q.Out(kEdgeType, kFanout);
        s = q.Dedup().Count().status();
        break;
      }
      case workload::Op::Type::kReachCheck: {
        graph::TraversalOptions t;
        t.hops = op.hops;
        t.fanout_per_vertex = kFanout;
        s = graph::IsReachable(engine, op.src, op.dst, kEdgeType, t).status();
        break;
      }
    }
    const uint64_t ns = NowNanos() - t0;
    ++c->ops;
    if (!s.ok() && !s.IsNotFound()) ++c->errors;
    if (op.type == workload::Op::Type::kInsertEdge) {
      ++c->writes;
      c->write_ns.push_back(ClampNs(ns));
    } else {
      c->read_ns.push_back(ClampNs(ns));
    }
    if (traced) {
      const uint64_t calls = tally.calls - before.calls;
      const uint64_t self_ns = ns - (tally.ns - before.ns);
      ++c->trace.ops;
      c->trace.writes += op.type == workload::Op::Type::kInsertEdge;
      c->trace.op_wall_ns += ns;
      c->trace.core_calls += calls;
      if (op.type == workload::Op::Type::kMultiHop) {
        ++c->trace.khop_ops;
        c->trace.khop_self_ns += self_ns;
        c->trace.khop_core_calls += calls;
      } else if (op.type == workload::Op::Type::kReachCheck) {
        ++c->trace.reach_ops;
        c->trace.reach_self_ns += self_ns;
        c->trace.reach_core_calls += calls;
      }
    }
    if (index == 0 && kind == Kind::kRiskControl &&
        ++c->own_ops % kGcEveryOps == 0) {
      RunGc(inst, traced, c);
    }
  }
}

/// Structure counters of every tree the DB owns.
struct TreeCounters {
  uint64_t split_outs = 0;
  uint64_t shared_conflicts = 0;
  uint64_t exclusive_conflicts = 0;
  uint64_t consolidations = 0;
  uint64_t splits = 0;
};

TreeCounters CountTrees(core::GraphDB* db) {
  TreeCounters t;
  t.split_outs = db->forest()->stats().split_outs.Get();
  const auto latch = db->forest()->AggregateLatchCounters();
  t.shared_conflicts = latch.shared_conflicts;
  t.exclusive_conflicts = latch.exclusive_conflicts;
  std::vector<bwtree::BwTree*> trees;
  db->forest()->AppendTrees(&trees);
  trees.push_back(db->vertex_tree());
  for (bwtree::BwTree* tree : trees) {
    t.consolidations += tree->stats().consolidations.Get();
    t.splits += tree->stats().splits.Get();
  }
  return t;
}

/// Every counter a traced round is measured by, at one instant.
struct Probe {
  MetricsRegistry::Snapshot registry;
  IoCounts io;
  TreeCounters trees;

  static Probe Take(Instance* inst) {
    return {MetricsRegistry::Default().TakeSnapshot(),
            IoCounts::Of(inst->store->stats()), CountTrees(inst->db.get())};
  }
};

/// Adds what happened between `b` and `a` to `in`.
void AddProbeDelta(const Probe& b, const Probe& a, Instance* inst,
                   LayerInputs* in) {
  AddRegistryDelta(b.registry, a.registry, inst->store->metrics_prefix(), in);
  in->io += a.io - b.io;
  in->split_outs += a.trees.split_outs - b.trees.split_outs;
  in->shared_conflicts += a.trees.shared_conflicts - b.trees.shared_conflicts;
  in->exclusive_conflicts +=
      a.trees.exclusive_conflicts - b.trees.exclusive_conflicts;
  in->consolidations += a.trees.consolidations - b.trees.consolidations;
  in->splits += a.trees.splits - b.trees.splits;
}

/// Runs `ops_per_client` ops on each of kClients threads, in kRounds
/// rounds; every round reports its own throughput and percentiles. With `trace_odd_rounds`, every second round
/// runs traced: adjacent rounds then see the same host conditions, so the
/// traced/untraced throughput ratio is not swamped by host drift.
PhaseResult RunPhase(Instance* inst, Kind kind, bool trace_odd_rounds,
                     bool writes_only, uint64_t ops_per_client,
                     uint64_t seed) {
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    const uint64_t stream =
        (writes_only ? kWritePhaseStream : kClientStream) + i;
    clients[i].gen = MakeGenerator(kind, writes_only, DeriveSeed(seed, stream));
    clients[i].props = workload::MakeProperties(
        DeriveSeed(seed, kPropsStream + i), kPropertyBytes);
  }
  PhaseResult r;
  const uint64_t per_round = std::max<uint64_t>(1, ops_per_client / kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (Client& c : clients) {
      c.read_ns.clear();
      c.write_ns.clear();
    }
    const bool traced = trace_odd_rounds && round % 2 == 1;
    inst->engine->set_tracing(traced);
    const Probe before = traced ? Probe::Take(inst) : Probe{};
    const uint64_t t0 = NowNanos();
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back(RunClient, inst, kind, traced, i, per_round,
                           &clients[i]);
    }
    for (std::thread& t : threads) t.join();
    const double seconds = static_cast<double>(NowNanos() - t0) / 1e9;
    if (traced) AddProbeDelta(before, Probe::Take(inst), inst, &r.trace);

    std::vector<uint32_t> reads, writes;
    for (Client& c : clients) {
      reads.insert(reads.end(), c.read_ns.begin(), c.read_ns.end());
      writes.insert(writes.end(), c.write_ns.begin(), c.write_ns.end());
    }
    (traced ? r.traced_qps : r.qps)
        .push_back((reads.size() + writes.size()) / seconds);
    r.read_samples += reads.size();
    r.write_samples += writes.size();
    r.read_p50_us.push_back(PercentileUs(&reads, 0.50));
    r.read_p99_us.push_back(PercentileUs(&reads, 0.99));
    r.write_p50_us.push_back(PercentileUs(&writes, 0.50));
    r.write_p99_us.push_back(PercentileUs(&writes, 0.99));
  }
  inst->engine->set_tracing(false);
  for (const Client& c : clients) {
    r.ops += c.ops;
    r.writes += c.writes;
    r.errors += c.errors;
    LayerInputs& t = r.trace;
    t.ops += c.trace.ops;
    t.writes += c.trace.writes;
    t.op_wall_ns += c.trace.op_wall_ns;
    t.core_calls += c.trace.core_calls;
    t.khop_ops += c.trace.khop_ops;
    t.khop_self_ns += c.trace.khop_self_ns;
    t.khop_core_calls += c.trace.khop_core_calls;
    t.reach_ops += c.trace.reach_ops;
    t.reach_self_ns += c.trace.reach_self_ns;
    t.reach_core_calls += c.trace.reach_core_calls;
    t.gc_cloud_read += c.trace.gc_cloud_read;
    t.gc_cloud_append += c.trace.gc_cloud_append;
  }
  return r;
}

CheckResult Check(Instance* inst, Kind kind, uint64_t seed) {
  CheckOptions o;
  if (kind == Kind::kRiskControl) {
    o.ttl_us = kTtlUs;
    o.now_us = inst->clock.NowUs();
  }
  o.num_vertices = kVertices;
  o.khop_queries = kind == Kind::kRecommendNoCache ? 200 : 0;
  o.seed = DeriveSeed(seed, kCheckStream);
  return CheckAnswers(inst->db.get(), *inst->engine, o);
}

// --- output ---------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintMetric(const Metric& m, const std::string& note = "") {
  printf("  %-42s %16.6g %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
         note.c_str());
}

void PrintCheck(const char* what, const CheckResult& c) {
  printf("answer check (%s): %llu probes, %llu mismatches\n", what,
         static_cast<unsigned long long>(c.probes),
         static_cast<unsigned long long>(c.mismatches));
  for (const std::string& e : c.examples) {
    fprintf(stderr, "answer mismatch: %s\n", e.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  printf("%s\n", out.c_str());
  fflush(stdout);
}

std::string Rounds(const std::vector<double>& v) {
  std::string s = "rounds:";
  for (double x : v) s += " " + Num(std::round(x * 100) / 100);
  return s;
}

// --- modes ----------------------------------------------------------------

int RunEndToEnd(const Spec& spec, uint64_t seed, int seconds) {
  std::vector<double> load_s;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();  // one loaded graph at a time
    inst = Load(spec.kind, seed);
    load_s.push_back(inst->load_s);
  }
  const IoCounts io0 = IoCounts::Of(inst->store->stats());
  const PhaseResult run =
      RunPhase(inst.get(), spec.kind, /*trace_odd_rounds=*/false,
               /*writes_only=*/false,
               spec.ops_per_client_per_s * seconds, seed);
  const IoCounts io = IoCounts::Of(inst->store->stats()) - io0;
  PhaseResult write_phase;
  if (spec.kind == Kind::kRecommendNoCache) {
    write_phase = RunPhase(inst.get(), spec.kind, false, /*writes_only=*/true,
                     kWritePhaseOpsPerClient, seed);
  }
  const PhaseResult& w =
      spec.kind == Kind::kRecommendNoCache ? write_phase : run;
  const CheckResult check = Check(inst.get(), spec.kind, seed);

  const CostModel cost;
  const double usd = cost.ReadCostUsd(io.read_ops, io.read_bytes) +
                     cost.WriteCostUsd(io.append_ops, io.append_bytes);
  const double logical =
      static_cast<double>(check.live_edges) * kLogicalEdgeBytes;
  const std::vector<Metric> metrics = {
      {"setup_s", Median(load_s), "s"},
      {"qps", Median(run.qps), "1/s"},
      {"read_p50_us", Median(run.read_p50_us), "us"},
      {"read_p99_us", Median(run.read_p99_us), "us"},
      {"write_p50_us", Median(w.write_p50_us), "us"},
      {"write_p99_us", Median(w.write_p99_us), "us"},
      {"space_amp", inst->store->TotalBytes() / logical, "ratio"},
      {"mem_mb",
       (inst->db->forest()->ApproxMemoryBytes() +
        inst->db->vertex_tree()->ApproxMemoryBytes()) / 1e6,
       "MB"},
      {"storage_usd_per_mop", usd / run.ops * 1e6, "USD/Mop"},
  };
  const uint64_t attempted = run.ops + write_phase.ops + check.probes;
  const uint64_t failed = run.errors + write_phase.errors + check.mismatches;

  PrintCheck("after the run", check);
  printf("end-to-end metrics (median of %d rounds; %d loads for setup_s):\n",
         kRounds, kSetups);
  const std::string rs = "n=" + std::to_string(run.read_samples) + " reads";
  const std::string ws =
      "n=" + std::to_string(w.write_samples) + " writes" +
      (spec.kind == Kind::kRecommendNoCache ? " (separate write phase)" : "");
  std::string loads = "loads:";
  for (double s : load_s) loads += " " + Num(s);
  const std::vector<std::string> notes = {
      loads,
      Rounds(run.qps),
      rs + "; " + Rounds(run.read_p50_us),
      rs + "; " + Rounds(run.read_p99_us),
      ws + "; " + Rounds(w.write_p50_us),
      ws + "; " + Rounds(w.write_p99_us),
      "live edges " + std::to_string(check.live_edges),
      "",
      "cloud reads " + std::to_string(io.read_ops) + ", appends " +
          std::to_string(io.append_ops),
  };
  for (size_t i = 0; i < metrics.size(); ++i) PrintMetric(metrics[i], notes[i]);
  PrintMetric({"failed_frac", static_cast<double>(failed) / attempted, "ratio"},
              std::to_string(failed) + " of " + std::to_string(attempted) +
                  " (not in the JSON: it is 0 when the run is correct)");
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Spec& spec, uint64_t seed, int seconds) {
  auto inst = Load(spec.kind, seed);
  PhaseResult run = RunPhase(inst.get(), spec.kind, /*trace_odd_rounds=*/true,
                             /*writes_only=*/false,
                             spec.ops_per_client_per_s * seconds, seed);
  const CheckResult check = Check(inst.get(), spec.kind, seed);
  LayerInputs& in = run.trace;
  in.tree_count = inst->db->forest()->TreeCount();
  in.qps_traced = Median(run.traced_qps);
  in.qps_untraced = Median(run.qps);
  const LayerReport report = DeriveLayers(in);

  PrintCheck("after the run", check);
  printf("traced rounds: %llu ops, %llu core calls; qps %s traced vs %s "
         "untraced (median of %d rounds each)\n",
         static_cast<unsigned long long>(in.ops),
         static_cast<unsigned long long>(in.core_calls),
         Num(in.qps_traced).c_str(), Num(in.qps_untraced).c_str(),
         kRounds / 2);
  printf("share of the ops' wall time by layer (self time):\n");
  for (const Metric& m : report.shares) PrintMetric(m);
  printf("per-layer metrics:\n");
  for (const Metric& m : report.metrics) PrintMetric(m);
  for (const std::string& e : report.errors) {
    fprintf(stderr, "reconciliation failed: %s\n", e.c_str());
  }
  const uint64_t attempted = run.ops + check.probes;
  const uint64_t failed = run.errors + check.mismatches;
  const bool correct = failed == 0 && report.errors.empty();
  PrintJson(correct, attempted, failed, report.metrics);
  return correct ? 0 : 1;
}

// --- host and build guard -------------------------------------------------

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Empty when this binary is fit to time; otherwise why not.
std::string BuildProblem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef NDEBUG
  return "assertions enabled (Debug-style build)";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  return "";
}

int Usage(const char* msg) {
  fprintf(stderr,
          "%s\nusage: bg3_perfbench --workload "
          "follow-hot|recommend-nocache|risk-control --seed N --seconds S "
          "--trace 0|1\n",
          msg);
  return 2;
}

int Main(int argc, char** argv) {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Spec& s : kSpecs) {
        if (std::strcmp(s.name, value) == 0) spec = &s;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || spec == nullptr || !have_seed || seconds < 1 ||
      seconds > 600 || (trace != 0 && trace != 1)) {
    return Usage("bad arguments");
  }

  const int nproc = Nproc();
  printf("host: nproc=%d clients=%d build=%s dchecks=%s\n", nproc, kClients,
         PERFBENCH_BUILD_TYPE,
#ifdef BG3_ENABLE_DCHECKS
         "on"
#else
         "off"
#endif
  );
  const std::string problem = BuildProblem();
  if (!problem.empty()) {
    fprintf(stderr, "refusing to time a %s\n", problem.c_str());
    return 2;
  }
  if (kClients > nproc) {
    fprintf(stderr, "%d clients need at least %d CPUs; this host has %d\n",
            kClients, kClients, nproc);
    return 2;
  }
  printf("workload %s seed %llu: %llu vertices, %llu edges, zipf %.2f; "
         "%d closed-loop clients x %llu ops in %d rounds\n",
         spec->name, static_cast<unsigned long long>(seed),
         static_cast<unsigned long long>(kVertices),
         static_cast<unsigned long long>(kEdges), kZipfTheta, kClients,
         static_cast<unsigned long long>(spec->ops_per_client_per_s * seconds),
         kRounds);
  // The program as shipped: timing histograms on, tracing off.
  obs::SetTimingEnabled(true);
  return trace == 1 ? RunTraced(*spec, seed, seconds)
                    : RunEndToEnd(*spec, seed, seconds);
}

}  // namespace
}  // namespace bg3::perfbench

int main(int argc, char** argv) { return bg3::perfbench::Main(argc, argv); }
