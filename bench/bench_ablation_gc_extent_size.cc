// Ablation (beyond the paper's figures): extent size vs reclamation
// efficiency. ArkDB-style uniform extents (§3.3) trade metadata overhead
// against relocation granularity: small extents isolate garbage well (fewer
// valid bytes moved per freed extent) but multiply tracking state; large
// extents mix hot and cold data and drag live bytes along.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "cloud/cloud_store.h"
#include "common/random.h"
#include "core/graph_db.h"

using namespace bg3;

namespace {

struct Point {
  double moved_mb;
  double freed_mb;
  double move_ratio;  // moved / freed: write amplification of reclamation
};

Point Run(size_t extent_capacity) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = extent_capacity;
  cloud::CloudStore store(copts);
  cloud::ManualTimeSource clock;
  core::GraphDBOptions opts;
  opts.gc_policy = core::GcPolicyKind::kWorkloadAware;
  opts.gc_target_dead_ratio = 0.05;
  opts.gc_min_fragmentation = 0.05;
  opts.gc_extents_per_cycle = 4;
  opts.forest.tree_options.consolidate_threshold = 8;
  opts.time_source = &clock;
  core::GraphDB db(&store, opts);

  ZipfGenerator users(2'000, 0.9, 31);
  Random rng(32);
  const std::string props(24, 'x');
  for (int i = 0; i < 80'000; ++i) {
    clock.AdvanceUs(25);
    BG3_IGNORE_STATUS(db.AddEdge(users.Next(), 1, rng.Uniform(20'000), props, 0));
    if (i % 2'000 == 0) (void)db.RunGcCycle();
  }
  BG3_IGNORE_STATUS(db.RunGcCycle());

  Point p;
  p.moved_mb = store.stats().gc_moved_bytes.Get() / 1e6;
  p.freed_mb = db.reclaimer()->totals().bytes_freed / 1e6;
  p.move_ratio = p.freed_mb > 0 ? p.moved_mb / p.freed_mb : 0;
  return p;
}

}  // namespace

int main() {
  bench::Banner("Ablation — extent size vs reclamation write amplification",
                "no paper counterpart; explores the uniform-extent design "
                "choice adopted from ArkDB (§3.3)");

  printf("%12s %12s %12s %14s\n", "extent", "moved(MB)", "freed(MB)",
         "moved/freed");
  bench::BenchReport report("ablation_gc_extent_size");
  for (size_t cap : {16ul << 10, 64ul << 10, 256ul << 10, 1ul << 20}) {
    const Point p = Run(cap);
    printf("%10zuKB %12.2f %12.2f %14.3f\n", cap >> 10, p.moved_mb, p.freed_mb,
           p.move_ratio);
    report.AddRow("extent_size", std::to_string(cap >> 10) + "KB")
        .Num("moved_mb", p.moved_mb)
        .Num("freed_mb", p.freed_mb)
        .Num("move_ratio", p.move_ratio);
    fflush(stdout);
  }
  bench::Note("smaller extents free more space per moved byte (finer "
              "garbage isolation) at the cost of more extents to track");
  return 0;
}
