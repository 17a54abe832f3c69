// Read-path scaling with shared leaf latches: N threads issuing point
// reads against one Bw-tree, for the two delta modes of §3.2.2 and the
// two cache regimes of Fig. 9, plus cache-hit range scans.
//
//   hit      — ReadCacheMode::kFull with a warmed cache: every Get is served
//              from the resident page under a *shared* leaf latch.
//   miss     — ReadCacheMode::kNone: every Get fetches the base/delta images
//              from storage (the Fig. 9 regime); with shared latching those
//              fetches overlap instead of convoying on the leaf.
//   scan_hit — kFull again, but every read is a limit-32 Visit from a Zipf
//              start key (the adjacency-scan shape of a one-hop query); its
//              leaf hops must take shared latches too.
//
// Hit reads that latch exclusively would be flat in the thread count no
// matter how hot the cache. The bench reports, per configuration,
//   (a) the single-thread rate in reads per second of the reading
//       thread's CPU time, the best of kSinglePasses passes over one key
//       sequence: a single wall-clock pass on a shared host spreads widely
//       from run to run,
//   (b) the shared fraction of leaf-latch acquisitions during the read
//       phase — a latch-count ratio, identical from run to run (shared
//       acquisitions run concurrently, exclusive ones serialize),
//   (c) the measured rate at 1/2/4/8 reader threads, and for misses the
//       4-thread over 1-thread ratio (miss_scaling_4t_<mode>).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/clock.h"
#include "common/random.h"

using namespace bg3;

namespace {

constexpr int kKeys = 20'000;
constexpr double kTheta = 0.8;  // Zipf head keeps leaf hints hot
constexpr int kHitReads = 120'000;
constexpr int kMissReads = 12'000;
constexpr int kScanReads = 40'000;
constexpr size_t kScanLimit = 32;
constexpr int kSinglePasses = 5;

/// CPU time the calling thread has used, in microseconds.
uint64_t ThreadCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1'000;
}

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct Setup {
  const char* mode;      // read_optimized | traditional
  const char* workload;  // hit | miss | scan_hit
};

struct RunResult {
  double single_qps = 0;
  double shared_frac = 0.0;
  uint64_t shared_acquires = 0;
  uint64_t exclusive_acquires = 0;
  /// The loaded tree's ApproxMemoryBytes per key.
  double leaf_bytes_per_entry = 0;
  // measured_qps[i] for threads {1, 2, 4, 8}
  std::vector<double> measured_qps;
};

constexpr int kThreadSweeps[] = {1, 2, 4, 8};

RunResult RunConfig(const Setup& setup) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 4u << 20;
  cloud::CloudStore store(copts);
  bwtree::BwTreeOptions topts;
  topts.base_stream = store.CreateStream("base");
  topts.delta_stream = store.CreateStream("delta");
  topts.max_leaf_entries = 256;
  topts.delta_mode = std::string(setup.mode) == "read_optimized"
                         ? bwtree::DeltaMode::kReadOptimized
                         : bwtree::DeltaMode::kTraditional;
  topts.consolidate_threshold = 10;  // both systems in §4.3.1 use 10
  topts.read_cache = std::string(setup.workload) == "miss"
                         ? bwtree::ReadCacheMode::kNone
                         : bwtree::ReadCacheMode::kFull;
  bwtree::BwTree tree(&store, topts);

  for (int i = 0; i < kKeys; ++i) {
    BG3_IGNORE_STATUS(tree.Upsert(Key(i), "value-" + std::to_string(i)));
  }
  // Leave live delta chains on the hot head so reads traverse them (the
  // read-optimized mode keeps them at <=1; traditional grows chains).
  ZipfGenerator hot(kKeys, kTheta, 17);
  for (int i = 0; i < kKeys / 4; ++i) {
    const int k = static_cast<int>(hot.Next());
    BG3_IGNORE_STATUS(tree.Upsert(Key(k), "update"));
  }
  RunResult r;
  r.leaf_bytes_per_entry =
      static_cast<double>(tree.ApproxMemoryBytes()) / kKeys;

  const std::string workload = setup.workload;
  const bool scan_reads = workload == "scan_hit";
  const int reads = workload == "miss" ? kMissReads
                    : scan_reads       ? kScanReads
                                       : kHitReads;
  // One read of key `k`: a point Get, or a limit-32 scan starting there.
  const auto read_one = [&tree, scan_reads](int k) {
    if (!scan_reads) {
      BG3_IGNORE_STATUS(tree.Get(Key(k)));
      return;
    }
    bwtree::BwTree::ScanOptions scan;
    scan.start_key = Key(k);
    scan.limit = kScanLimit;
    BG3_IGNORE_STATUS(tree.Visit(
        scan, [](const Slice&, const Slice&) { return true; }));
  };
  // Warm pass (also populates the per-thread route hints).
  ZipfGenerator warm(kKeys, kTheta, 23);
  for (int i = 0; i < 2'000; ++i) {
    BG3_IGNORE_STATUS(tree.Get(Key(static_cast<int>(warm.Next()))));
  }

  const uint64_t sh0 = tree.stats().latch_shared_acquires.Get();
  const uint64_t ex0 = tree.stats().latch_exclusive_acquires.Get();

  for (int pass = 0; pass < kSinglePasses; ++pass) {
    ZipfGenerator zipf(kKeys, kTheta, 29);
    const uint64_t start = ThreadCpuMicros();
    for (int i = 0; i < reads; ++i) read_one(static_cast<int>(zipf.Next()));
    r.single_qps =
        std::max(r.single_qps, reads / ((ThreadCpuMicros() - start) / 1e6));
  }

  r.shared_acquires = tree.stats().latch_shared_acquires.Get() - sh0;
  r.exclusive_acquires = tree.stats().latch_exclusive_acquires.Get() - ex0;
  const uint64_t total = r.shared_acquires + r.exclusive_acquires;
  r.shared_frac =
      total == 0 ? 0.0 : static_cast<double>(r.shared_acquires) / total;

  // Real-thread sweep.
  for (int threads : kThreadSweeps) {
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    const int per_thread = reads / threads;
    const uint64_t t_start = NowMicros();
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&read_one, &go, per_thread, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        ZipfGenerator zipf(kKeys, kTheta, 101 + t);
        for (int i = 0; i < per_thread; ++i) {
          read_one(static_cast<int>(zipf.Next()));
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    const double secs = (NowMicros() - t_start) / 1e6;
    r.measured_qps.push_back(per_thread * threads / secs);
  }
  return r;
}

}  // namespace

int main() {
  bench::Banner(
      "Read-path scaling — shared leaf latches vs the exclusive-only "
      "baseline",
      "hit reads take shared latches (shared fraction ~ 1) and scale with "
      "threads; measured at 1/2/4/8 readers");

  bench::BenchReport report("read_scaling");
  report.Config("keys", kKeys);
  report.Config("zipf_theta", kTheta);
  report.Config("hit_reads", kHitReads);
  report.Config("miss_reads", kMissReads);
  report.Config("scan_reads", kScanReads);
  report.Config("scan_limit", static_cast<uint64_t>(kScanLimit));
  report.Config("single_passes", static_cast<uint64_t>(kSinglePasses));
  report.Config("hardware_concurrency",
                static_cast<uint64_t>(std::thread::hardware_concurrency()));

  const Setup setups[] = {
      {"read_optimized", "hit"},
      {"read_optimized", "miss"},
      {"traditional", "hit"},
      {"traditional", "miss"},
      {"read_optimized", "scan_hit"},
  };

  for (const Setup& s : setups) {
    const RunResult r = RunConfig(s);
    const std::string series = std::string(s.mode) + "_" + s.workload;
    printf("\n[%s / %s] 1-thr %s  shared/exclusive latches %llu/%llu "
           "(shared %.4f)\n",
           s.mode, s.workload, bench::Qps(r.single_qps).c_str(),
           (unsigned long long)r.shared_acquires,
           (unsigned long long)r.exclusive_acquires, r.shared_frac);
    printf("%8s %16s\n", "threads", "measured-QPS");
    for (size_t i = 0; i < std::size(kThreadSweeps); ++i) {
      const int threads = kThreadSweeps[i];
      printf("%8d %16s   (x%.2f)\n", threads,
             bench::Qps(r.measured_qps[i]).c_str(),
             r.measured_qps[i] / r.measured_qps[0]);
      report.AddRow(series, std::to_string(threads))
          .Num("measured_qps", r.measured_qps[i]);
    }
    report.Scalar("single_qps_" + series, r.single_qps);
    report.Scalar("shared_latch_frac_" + series, r.shared_frac);
    if (series == "read_optimized_hit") {
      // Memory per key of the loaded tree: seeded keys and updates, so it
      // does not vary between runs.
      printf("leaf bytes per entry %.2f\n", r.leaf_bytes_per_entry);
      report.Scalar("leaf_bytes_per_entry", r.leaf_bytes_per_entry);
    }
    if (std::string(s.workload) == "miss") {
      // Storage-miss scaling: 4-thread over 1-thread measured rate. Reported
      // only — a wall-clock ratio on a shared host is too noisy to gate.
      report.Scalar(std::string("miss_scaling_4t_") + s.mode,
                    r.measured_qps[2] / r.measured_qps[0]);
    }
  }
  return 0;
}
