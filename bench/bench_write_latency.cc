// Write-path commit latency (ISSUE 9 / DESIGN.md §5.9): enqueue-to-ack
// latency of WalWriter::Append under concurrent writers, legacy sync mode
// vs the BtrLog-style pipeline, swept across in-flight append depth.
//
//   sync      — the baseline inline path: every sealing Append encodes and
//       appends under the writer mutex, so W concurrent writers serialize
//       and the tail latency is ~W append round trips (head-of-line
//       blocking behind every other writer's I/O).
//   pipelined — Append seals into the serializer queue and waits only for
//       its own batch's in-order acknowledgment; up to `inflight` cloud
//       appends overlap, so the queue drains `inflight` batches per round
//       trip and the tail collapses toward a single round trip.
//
// Both modes run group_size=1 (the default write-through configuration:
// the paper appends the WAL "immediately after the RW update") and
// wall_latency_scale=1.0, so each simulated append costs its modeled
// latency in real wall time — the queueing the percentiles measure is
// real, not modeled. The CI floor (scripts/check_bench_json.py) is
// p99_speedup_default_group >= 5: the deepest pipeline's p99 must beat the
// sync baseline's by at least 5x. Each reported percentile is the median
// over kTrials runs of 320 samples (1,600 samples per mode), so one
// scheduling stall of the writers in one run cannot set the verdict.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cloud/cloud_store.h"
#include "common/clock.h"
#include "wal/record.h"
#include "wal/writer.h"

using namespace bg3;

namespace {

constexpr int kWriters = 16;
constexpr int kRecordsPerWriter = 20;
constexpr int kDepths[] = {1, 2, 4, 8};
constexpr int kTrials = 5;

wal::WalRecord Mutation(int writer, int i) {
  wal::WalRecord r;
  r.type = wal::WalRecord::Type::kMutation;
  r.tree_id = 1;
  r.page_id = static_cast<uint64_t>(writer);
  r.lsn = static_cast<uint64_t>(writer * kRecordsPerWriter + i + 1);
  r.entry = {bwtree::DeltaOp::kUpsert,
             "k" + std::to_string(writer) + "_" + std::to_string(i),
             "write-latency-bench-payload"};
  return r;
}

/// Runs kWriters threads, each appending kRecordsPerWriter records with
/// commit-wait semantics (Append returns when the record is acknowledged),
/// and returns every enqueue-to-ack latency in microseconds.
std::vector<uint64_t> RunWriters(const wal::WalWriterOptions& opts) {
  cloud::CloudStore store;
  wal::WalWriterOptions w = opts;
  w.stream = store.CreateStream("wal");
  wal::WalWriter writer(&store, w);

  std::vector<std::vector<uint64_t>> per_thread(kWriters);
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(kRecordsPerWriter);
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        const uint64_t start = NowMicros();
        BG3_CHECK(writer.Append(Mutation(t, i)).ok());
        per_thread[t].push_back(NowMicros() - start);
      }
    });
  }
  for (auto& th : threads) th.join();
  BG3_CHECK(writer.Flush().ok());
  BG3_CHECK(writer.committed_records() ==
            static_cast<uint64_t>(kWriters) * kRecordsPerWriter);

  std::vector<uint64_t> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  return all;
}

uint64_t Pct(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
  return sorted[idx];
}

struct Tail {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
};

/// p50 and p99 of one configuration, each the median over kTrials runs.
Tail MedianTail(const wal::WalWriterOptions& opts) {
  std::vector<uint64_t> p50s;
  std::vector<uint64_t> p99s;
  for (int t = 0; t < kTrials; ++t) {
    const auto lat = RunWriters(opts);
    p50s.push_back(Pct(lat, 0.50));
    p99s.push_back(Pct(lat, 0.99));
  }
  std::sort(p50s.begin(), p50s.end());
  std::sort(p99s.begin(), p99s.end());
  return {p50s[kTrials / 2], p99s[kTrials / 2]};
}

}  // namespace

int main() {
  bench::Banner(
      "WAL write latency — enqueue-to-ack p50/p99 under 16 concurrent "
      "writers, sync baseline vs pipelined across in-flight depth",
      "BtrLog-style pipelined logging (DESIGN.md §5.9): out-of-order "
      "append, in-order acknowledgment");

  bench::BenchReport report("write_latency");
  report.Config("writers", static_cast<uint64_t>(kWriters));
  report.Config("records_per_writer", static_cast<uint64_t>(kRecordsPerWriter));
  report.Config("trials", static_cast<uint64_t>(kTrials));
  report.Config("group_size", static_cast<uint64_t>(1));
  report.Config("wall_latency_scale", 1.0);

  printf("%12s %10s %12s %12s\n", "series", "inflight", "p50-us", "p99-us");

  wal::WalWriterOptions sync_opts;
  sync_opts.mode = wal::WalWriterMode::kSync;
  sync_opts.group_size = 1;
  sync_opts.wall_latency_scale = 1.0;
  const Tail sync = MedianTail(sync_opts);
  printf("%12s %10s %12llu %12llu\n", "sync", "-",
         (unsigned long long)sync.p50, (unsigned long long)sync.p99);
  report.AddRow("sync", "inline")
      .Num("p50_us", static_cast<double>(sync.p50))
      .Num("p99_us", static_cast<double>(sync.p99));

  uint64_t deepest_p99 = 0;
  for (const int depth : kDepths) {
    wal::WalWriterOptions p;
    p.mode = wal::WalWriterMode::kPipelined;
    p.group_size = 1;
    p.inflight_appends = static_cast<size_t>(depth);
    p.wall_latency_scale = 1.0;
    const Tail tail = MedianTail(p);
    printf("%12s %10d %12llu %12llu\n", "pipelined", depth,
           (unsigned long long)tail.p50, (unsigned long long)tail.p99);
    report.AddRow("pipelined", "inflight" + std::to_string(depth))
        .Num("p50_us", static_cast<double>(tail.p50))
        .Num("p99_us", static_cast<double>(tail.p99));
    deepest_p99 = tail.p99;
  }

  // CI floor: the deepest pipeline must cut the sync baseline's tail by at
  // least 5x. Both runs pay identical simulated I/O in real wall time, so
  // the ratio measures exactly what the pipeline removes — head-of-line
  // blocking — and is robust to machine speed.
  const double speedup =
      deepest_p99 > 0 ? static_cast<double>(sync.p99) / deepest_p99 : 0.0;
  report.Scalar("p99_speedup_default_group", speedup);

  bench::Note("sync p99 %.2fms vs pipelined(inflight=8) p99 %.2fms: "
              "%.1fx tail reduction (floor 5x)",
              sync.p99 / 1e3, deepest_p99 / 1e3, speedup);
  report.Write();
  return 0;
}
