// Figure 9 reproduction: read amplification of the traditional Bw-tree (the
// SLED baseline) vs BG3's Read Optimized Bw-tree. Setup per §4.3.1: no
// splitting, consolidation after 10 deltas, zero cache (every read misses),
// Douyin-follow-like power-law access at a fixed entry rate.
//
// Paper: 20K entry QPS -> 76K storage QPS on SLED (3.87x) vs 48K on BG3
// (2.4x), a 36.8% reduction.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/random.h"

using namespace bg3;
using namespace bg3::bwtree;

namespace {

constexpr uint64_t kKeys = 20'000;
constexpr int kWriteOps = 120'000;

struct Setup {
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<BwTree> tree;
};

std::string KeyOf(uint64_t id) {
  char buf[16];
  snprintf(buf, sizeof(buf), "u%010llu", static_cast<unsigned long long>(id));
  return buf;
}

Setup Build(DeltaMode mode) {
  Setup s;
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 20;
  s.store = std::make_unique<cloud::CloudStore>(copts);
  BwTreeOptions opts;
  opts.delta_mode = mode;
  opts.consolidate_threshold = 10;  // both systems, as in §4.3.1
  // §4.3.1 "restricted BG3 from splitting the Bw-tree" = no forest
  // split-out: a single tree serves all keys. Leaf pages still split
  // normally so page sizes stay realistic.
  opts.read_cache = ReadCacheMode::kNone;  // "cache size ... to zero"
  opts.max_leaf_entries = 128;
  opts.base_stream = s.store->CreateStream("base");
  opts.delta_stream = s.store->CreateStream("delta");
  s.tree = std::make_unique<BwTree>(s.store.get(), opts);
  // Power-law write phase (Douyin follow data: hot users updated often).
  ZipfGenerator keys(kKeys, 0.8, 99);
  for (int i = 0; i < kWriteOps; ++i) {
    (void)s.tree->Upsert(KeyOf(keys.Next()), "follow-record-payload");
  }
  return s;
}

/// Storage reads per query of the last run, by mode (0 = traditional,
/// 1 = read-optimized), for the JSON report.
double reads_per_query[2] = {0, 0};

void BM_Fig9_ZeroCacheRead(benchmark::State& state) {
  const DeltaMode mode =
      state.range(0) == 0 ? DeltaMode::kTraditional : DeltaMode::kReadOptimized;
  static Setup traditional = Build(DeltaMode::kTraditional);
  static Setup read_optimized = Build(DeltaMode::kReadOptimized);
  Setup& s = mode == DeltaMode::kTraditional ? traditional : read_optimized;

  ZipfGenerator keys(kKeys, 0.8, 7);
  const uint64_t reads_before = s.store->stats().read_ops.Get();
  uint64_t queries = 0;
  for (auto _ : state) {
    auto v = s.tree->Get(KeyOf(keys.Next()));
    benchmark::DoNotOptimize(v);
    ++queries;
  }
  const uint64_t storage_reads = s.store->stats().read_ops.Get() - reads_before;
  reads_per_query[state.range(0)] =
      static_cast<double>(storage_reads) /
      static_cast<double>(queries ? queries : 1);
  state.counters["storage_reads_per_query"] =
      benchmark::Counter(reads_per_query[state.range(0)]);
  state.SetLabel(mode == DeltaMode::kTraditional ? "SLED(traditional)"
                                                 : "BG3(read-optimized)");
}
BENCHMARK(BM_Fig9_ZeroCacheRead)->Arg(0)->Arg(1)->Iterations(20000);

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("Figure 9 — read amplification, zero cache (§4.3.1)",
                "SLED 3.87x vs BG3 2.4x storage reads per entry query "
                "(-36.8%); counter storage_reads_per_query below");
  bench::BenchReport report("fig9_read_amp");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  report.Scalar("storage_reads_per_query_traditional", reads_per_query[0]);
  report.Scalar("storage_reads_per_query_read_optimized", reads_per_query[1]);
  return 0;
}
