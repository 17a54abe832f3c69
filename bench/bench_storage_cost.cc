// §4.2 "Storage Cost Saving" reproduction: the same logical edge workload on
// BG3 (Bw-tree forest over append-only storage + workload-aware GC) and on
// ByteGraph (edge trees over a leveled LSM). The paper reports ~80% average
// storage-cost saving, driven by LSM write amplification and per-bit cost.
//
// Part 1 also runs the workload on a durable GraphDB (checkpoint.enabled:
// every write logged to the WAL, pages persisted by group flushes) and
// reports append bytes per user byte and stored bytes against the default
// per-write flushing GraphDB.
//
// Part 2 prices GC policies in dollars: the same TTL churn workload runs
// under workload-aware and FIFO reclamation and each run's I/O + resident
// footprint is folded through the CostModel (DESIGN.md §5.8) into an
// estimated monthly bill. FIFO relocates soon-to-expire bytes, so under
// per-GB-written pricing its bill must come out >= the workload-aware one
// (pinned by scripts/check_bench_json.py).
#include <cstdio>

#include "bench_common.h"
#include "bytegraph/bytegraph_db.h"
#include "cloud/cloud_store.h"
#include "common/cost_model.h"
#include "common/random.h"
#include "core/graph_db.h"
#include "workload/graph_gen.h"

using namespace bg3;

namespace {

struct CostRun {
  uint64_t append_ops = 0;
  uint64_t append_bytes = 0;
  uint64_t read_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t stored_bytes = 0;
  double monthly_usd = 0;
};

// TTL churn (the Table 2 risk-control shape): insert-heavy audit edges with
// a short TTL. Workload-aware GC lets whole extents die in place; FIFO
// relocates them just before they expire, paying for the moved bytes.
CostRun RunGcPolicyCost(core::GcPolicyKind policy, const CostModel& model) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 64 << 10;
  cloud::CloudStore store(copts);
  cloud::ManualTimeSource clock;
  core::GraphDBOptions opts;
  opts.gc_policy = policy;
  opts.gc_target_dead_ratio = 0.05;
  opts.gc_min_fragmentation = 0.02;
  opts.gc_extents_per_cycle = 24;
  opts.edge_ttl_us = 500'000;
  opts.forest.tree_options.consolidate_threshold = 8;
  opts.time_source = &clock;
  core::GraphDB db(&store, opts);

  constexpr int kOps = 60'000;
  constexpr uint64_t kOpIntervalUs = 25;  // 40K QPS offered rate
  ZipfGenerator accounts(5'000, 0.9, 5);
  Random rng(6);
  const std::string props(24, 'a');
  for (int i = 0; i < kOps; ++i) {
    clock.AdvanceUs(kOpIntervalUs);
    BG3_IGNORE_STATUS(
        db.AddEdge(accounts.Next(), 1, rng.Uniform(5'000), props, 0));
    if (i % 500 == 0) (void)db.RunGcCycle();
  }
  BG3_IGNORE_STATUS(db.RunGcCycle());

  CostRun r;
  r.append_ops = store.stats().append_ops.Get();
  r.append_bytes = store.stats().append_bytes.Get();
  r.read_ops = store.stats().read_ops.Get();
  r.read_bytes = store.stats().read_bytes.Get();
  r.stored_bytes = store.TotalBytes();
  r.monthly_usd = model.ReadCostUsd(r.read_ops, r.read_bytes) +
                  model.WriteCostUsd(r.append_ops, r.append_bytes) +
                  model.StorageCostUsdPerMonth(r.stored_bytes);
  return r;
}

const char* PolicyName(core::GcPolicyKind policy) {
  return policy == core::GcPolicyKind::kWorkloadAware ? "workload_aware"
                                                      : "fifo";
}

}  // namespace

int main() {
  bench::Banner("Storage cost saving (§4.2)",
                "BG3 saves ~80% of storage cost vs ByteGraph across the "
                "three workloads (write amplification + cheaper bytes)");

  bench::BenchReport report("storage_cost");
  constexpr int kUsers = 2'000;
  constexpr int kRounds = 40;
  constexpr int kEdgesPerRound = 2'000;

  // BG3 with periodic space reclamation.
  cloud::CloudStoreOptions bg3_copts;
  bg3_copts.extent_capacity = 256 << 10;
  cloud::CloudStore bg3_store(bg3_copts);
  core::GraphDBOptions bg3_opts;
  bg3_opts.gc_policy = core::GcPolicyKind::kWorkloadAware;
  bg3_opts.gc_target_dead_ratio = 0.2;
  bg3_opts.forest.tree_options.max_leaf_entries = 64;
  core::GraphDB bg3(&bg3_store, bg3_opts);

  // The same engine, durable per write: WAL plus group flushes.
  cloud::CloudStore durable_store(bg3_copts);
  core::GraphDBOptions durable_opts = bg3_opts;
  durable_opts.checkpoint.enabled = true;
  core::GraphDB durable(&durable_store, durable_opts);

  // ByteGraph over the sharded LSM.
  cloud::CloudStore bg_store;
  bytegraph::ByteGraphOptions bg_opts;
  bg_opts.lsm.memtable_bytes = 64 << 10;  // RocksDB-like write-buffer : data
  bg_opts.lsm.compaction.l0_compaction_trigger = 2;
  bg_opts.lsm.compaction.level_base_bytes = 512 << 10;
  bytegraph::ByteGraphDB bytegraph(&bg_store, bg_opts);

  Random rng(11);
  ZipfGenerator src_gen(kUsers, 0.9, 21);
  ZipfGenerator dst_gen(50'000, 0.9, 22);
  const std::string props = workload::MakeProperties(3, 24);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kEdgesPerRound; ++i) {
      const graph::VertexId src = src_gen.Next();
      const graph::VertexId dst = dst_gen.Next();
      BG3_IGNORE_STATUS(bg3.AddEdge(src, 1, dst, props, 1));
      BG3_IGNORE_STATUS(durable.AddEdge(src, 1, dst, props, 1));
      BG3_IGNORE_STATUS(bytegraph.AddEdge(src, 1, dst, props, 1));
    }
    BG3_IGNORE_STATUS(bg3.RunGcCycle());
    BG3_IGNORE_STATUS(durable.RunGcCycle());
  }
  BG3_IGNORE_STATUS(durable.checkpointer()->CheckpointNow());

  const uint64_t bg3_written = bg3_store.stats().append_bytes.Get();
  const uint64_t bg3_live = bg3_store.LiveBytes();
  const uint64_t bg_written = bg_store.stats().append_bytes.Get();
  const uint64_t bg_live = bg_store.LiveBytes();

  printf("%-12s %14s %14s\n", "system", "bytes written", "live bytes");
  printf("%-12s %14s %14s\n", "BG3", bench::Mb(bg3_written).c_str(),
         bench::Mb(bg3_live).c_str());
  printf("%-12s %14s %14s\n", "ByteGraph", bench::Mb(bg_written).c_str(),
         bench::Mb(bg_live).c_str());
  printf("\nwrite saving: %.1f%% (paper: ~80%% cost saving)\n",
         100.0 * (1.0 - static_cast<double>(bg3_written) / bg_written));
  printf("live saving : %.1f%%\n",
         100.0 * (1.0 - static_cast<double>(bg3_live) / bg_live));
  report.AddRow("bytes", "BG3")
      .Num("written", static_cast<double>(bg3_written))
      .Num("live", static_cast<double>(bg3_live));
  report.AddRow("bytes", "ByteGraph")
      .Num("written", static_cast<double>(bg_written))
      .Num("live", static_cast<double>(bg_live));
  report.Scalar("write_saving_pct",
                100.0 * (1.0 - static_cast<double>(bg3_written) / bg_written));
  report.Scalar("live_saving_pct",
                100.0 * (1.0 - static_cast<double>(bg3_live) / bg_live));

  // Owner bookkeeping of the default engine: the forest's owner table per
  // owner (a 24-byte record, its index share and fixed costs).
  const double owner_table_bytes_per_owner =
      static_cast<double>(bg3.forest()->OwnerTableBytes()) /
      static_cast<double>(bg3.forest()->OwnerCount());
  printf("owner table : %.2f B per owner over %zu owners\n",
         owner_table_bytes_per_owner, bg3.forest()->OwnerCount());
  report.Scalar("owner_table_bytes_per_owner", owner_table_bytes_per_owner);

  // Durability modes of BG3 itself. A user byte is one edge's logical
  // payload: source, destination, creation time and properties.
  const double user_bytes =
      static_cast<double>(kRounds) * kEdgesPerRound *
      static_cast<double>(3 * sizeof(uint64_t) + props.size());
  printf("\n%-16s %16s %14s %12s %12s\n", "durability", "append B/user B",
         "of which WAL", "stored", "live");
  for (const auto& [name, store] :
       {std::pair<const char*, cloud::CloudStore*>{"sync_flush", &bg3_store},
        {"wal_group_flush", &durable_store}}) {
    const double per_user_byte =
        static_cast<double>(store->stats().append_bytes.Get()) / user_bytes;
    // The WAL is never truncated here, so its stored bytes are its appends.
    const double wal_per_user_byte =
        static_cast<double>(store->TotalBytes(store->CreateStream("bg3-wal"))) /
        user_bytes;
    printf("%-16s %16.2f %14.2f %12s %12s\n", name, per_user_byte,
           wal_per_user_byte, bench::Mb(store->TotalBytes()).c_str(),
           bench::Mb(store->LiveBytes()).c_str());
    report.AddRow("durability", name)
        .Num("append_bytes_per_user_byte", per_user_byte)
        .Num("wal_bytes_per_user_byte", wal_per_user_byte)
        .Num("stored_bytes", static_cast<double>(store->TotalBytes()))
        .Num("live_bytes", static_cast<double>(store->LiveBytes()));
  }
  // GC victims the durable engine's reclaim horizon still holds: relocated,
  // but named by a manifest slot a restart could start from.
  const int64_t retired_bytes =
      durable.checkpointer()->horizon()->retired_bytes().Get();
  printf("wal_group_flush retired by the reclaim horizon: %s\n",
         bench::Mb(static_cast<double>(retired_bytes)).c_str());
  report.Scalar("durable_retired_bytes", static_cast<double>(retired_bytes));

  // --- Part 2: dollar-denominated GC policy comparison ----------------------
  // Provisioned-throughput pricing (per-GB transfer is NOT free) so GC byte
  // movement differences surface in the bill, not just the op counts.
  CostModelOptions pricing;
  pricing.usd_per_gb_written = 0.05;
  pricing.usd_per_gb_read = 0.01;
  const CostModel model(pricing);
  report.Config("usd_per_write_op", pricing.usd_per_write_op);
  report.Config("usd_per_gb_written", pricing.usd_per_gb_written);
  report.Config("usd_per_gb_month_stored", pricing.usd_per_gb_month_stored);

  printf("\n%-16s %12s %14s %12s %14s\n", "gc policy", "append ops",
         "bytes written", "stored", "monthly USD");
  for (const auto policy : {core::GcPolicyKind::kWorkloadAware,
                            core::GcPolicyKind::kFifo}) {
    const CostRun run = RunGcPolicyCost(policy, model);
    printf("%-16s %12llu %14s %12s %14.6f\n", PolicyName(policy),
           static_cast<unsigned long long>(run.append_ops),
           bench::Mb(static_cast<double>(run.append_bytes)).c_str(),
           bench::Mb(static_cast<double>(run.stored_bytes)).c_str(),
           run.monthly_usd);
    report.AddRow("gc_cost", PolicyName(policy))
        .Num("append_ops", static_cast<double>(run.append_ops))
        .Num("append_bytes", static_cast<double>(run.append_bytes))
        .Num("stored_bytes", static_cast<double>(run.stored_bytes))
        .Num("monthly_usd", run.monthly_usd);
    report.Scalar(std::string("estimated_monthly_cost_usd_") +
                      PolicyName(policy),
                  run.monthly_usd);
  }

  bench::Note(
      "the paper's 80%% also includes cheaper $/bit of shared cloud storage "
      "vs SSD-backed KV clusters, which a simulator cannot price");
  return 0;
}
