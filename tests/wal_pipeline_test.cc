// Property tests for the pipelined WAL (DESIGN.md §5.9): with latency
// spikes and transient errors permuting the completion order of parallel
// in-flight appends, acknowledgments still move strictly in log order, a
// crash leaves a contiguous committed prefix, and cursor-exact SeekTo
// replays exactly the suffix. Failing runs print their seed;
// BG3_TEST_SEED=<seed> replays them.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "common/random.h"
#include "test_seed.h"
#include "wal/reader.h"
#include "wal/record.h"
#include "wal/writer.h"

namespace bg3::wal {
namespace {

WalRecord Mutation(bwtree::Lsn lsn) {
  WalRecord r;
  r.type = WalRecord::Type::kMutation;
  r.tree_id = 1;
  r.page_id = lsn % 7;
  r.lsn = lsn;
  r.entry = {bwtree::DeltaOp::kUpsert, "k" + std::to_string(lsn),
             "v" + std::to_string(lsn)};
  return r;
}

/// Reads everything a fresh reader can deliver from the stream in strict
/// log order (null-cursor seek: the first term must open at seq 1, exactly
/// what an out-of-order physical stream needs).
std::vector<WalRecord> StrictReplay(cloud::CloudStore* store,
                                    cloud::StreamId stream) {
  // These properties are about what the writer left in the stream, not
  // about the reader's own fault handling — stop injecting before replay.
  store->SetFaultInjector(nullptr);
  WalReader reader(store, stream);
  reader.SeekTo(WalCursor{});
  std::vector<WalRecord> all;
  for (;;) {
    auto batch = reader.Poll();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok() || batch.value().empty()) break;
    for (auto& r : batch.value()) all.push_back(std::move(r));
  }
  return all;
}

/// `records` must be exactly lsns 1..records.size() in order — the
/// contiguous-prefix invariant (no loss inside the prefix, no duplicates,
/// no reordering).
void ExpectContiguousPrefix(const std::vector<WalRecord>& records,
                            uint64_t seed, int trial) {
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].lsn, i + 1)
        << "seed=" << seed << " trial=" << trial << " at index " << i;
  }
}

// transient_error_p^6: exhaustion ~never.
cloud::CloudStoreOptions DeepRetry() {
  cloud::CloudStoreOptions sopts;
  sopts.retry.max_attempts = 6;
  return sopts;
}

WalWriterOptions PipelinedOptions(cloud::StreamId stream, Random& rng) {
  WalWriterOptions w;
  w.stream = stream;
  w.group_size = 1 + rng.Uniform(3);
  w.group_window_us = 0;
  w.inflight_appends = 2 + rng.Uniform(3);  // 2..4 parallel appends.
  // Sleep a slice of the simulated latency for real, so a latency spike
  // genuinely delays one in-flight append past its successors — the
  // completion-order permutation these properties are about.
  w.wall_latency_scale = 0.02;
  return w;
}

cloud::FaultInjectorOptions SpikyFaults(Random& rng) {
  cloud::FaultInjectorOptions fopts;
  fopts.seed = rng.Next();
  fopts.latency_spike_p = 0.35;
  fopts.latency_spike_us = 20'000;
  fopts.transient_error_p = 0.05;
  return fopts;
}

// Acknowledgment order is log order, never completion order: whatever the
// spikes do to which append lands first, WaitCommitted(ticket) implies
// every earlier record is durable, and the committed count never runs
// ahead of a contiguous durable prefix.
TEST(WalPipelineTest, AcksAreLogOrderedUnderCompletionReorder) {
  const uint64_t seed =
      test::AnnouncedSeed("WalPipelineTest.AcksLogOrdered", 0xB7101);
  Random rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    cloud::FaultInjector fi(SpikyFaults(rng));
    cloud::CloudStore store(DeepRetry());
    store.SetFaultInjector(&fi);
    const cloud::StreamId stream = store.CreateStream("wal");
    WalWriter writer(&store, PipelinedOptions(stream, rng));

    const size_t n = 20 + rng.Uniform(40);
    std::vector<WalTicket> tickets(n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          writer.AppendAsync(Mutation(i + 1), nullptr, &tickets[i]).ok())
          << "seed=" << seed << " trial=" << trial;
    }
    // Wait on a random subset of tickets, deliberately out of enqueue
    // order. Each successful wait pins the in-order invariant at that
    // point: committed_records() covers the ticket's whole prefix.
    for (int probe = 0; probe < 8; ++probe) {
      const size_t idx = rng.Uniform(n);
      ASSERT_TRUE(writer.WaitCommitted(tickets[idx]).ok())
          << "seed=" << seed << " trial=" << trial;
      EXPECT_GE(writer.committed_records(), tickets[idx].index)
          << "seed=" << seed << " trial=" << trial;
    }
    ASSERT_TRUE(writer.Flush().ok()) << "seed=" << seed << " trial=" << trial;
    EXPECT_EQ(writer.committed_records(), n);

    // The stream replays to exactly the full run, in order, no duplicates
    // — retries may have landed duplicate batches physically, but the
    // (term, seq) dedupe hides them.
    const auto replay = StrictReplay(&store, stream);
    ASSERT_EQ(replay.size(), n) << "seed=" << seed << " trial=" << trial;
    ExpectContiguousPrefix(replay, seed, trial);
  }
}

// Crashing mid-pipeline (writer destroyed with appends still in flight)
// leaves a stream whose strict replay is a contiguous prefix covering at
// least everything that was acknowledged before the crash.
TEST(WalPipelineTest, CrashLeavesContiguousCommittedPrefix) {
  const uint64_t seed =
      test::AnnouncedSeed("WalPipelineTest.CrashPrefix", 0xB7102);
  Random rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    cloud::FaultInjector fi(SpikyFaults(rng));
    cloud::CloudStore store(DeepRetry());
    store.SetFaultInjector(&fi);
    const cloud::StreamId stream = store.CreateStream("wal");

    const size_t n = 20 + rng.Uniform(40);
    uint64_t acked = 0;
    {
      WalWriter writer(&store, PipelinedOptions(stream, rng));
      std::vector<WalTicket> tickets(n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(
            writer.AppendAsync(Mutation(i + 1), nullptr, &tickets[i]).ok())
            << "seed=" << seed << " trial=" << trial;
      }
      // Wait for a random mid-stream ticket, then "crash" by destroying
      // the writer with the rest still in flight.
      const size_t idx = rng.Uniform(n);
      ASSERT_TRUE(writer.WaitCommitted(tickets[idx]).ok())
          << "seed=" << seed << " trial=" << trial;
      acked = writer.committed_records();
      ASSERT_GE(acked, tickets[idx].index);
    }

    const auto replay = StrictReplay(&store, stream);
    EXPECT_GE(replay.size(), acked) << "seed=" << seed << " trial=" << trial;
    EXPECT_LE(replay.size(), n) << "seed=" << seed << " trial=" << trial;
    ExpectContiguousPrefix(replay, seed, trial);
  }
}

// Cursor-exact SeekTo replays exactly the records enqueued after the
// cursor — even when both halves of the stream were physically reordered.
TEST(WalPipelineTest, SeekToCursorReplaysExactSuffix) {
  const uint64_t seed =
      test::AnnouncedSeed("WalPipelineTest.SeekToSuffix", 0xB7103);
  Random rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    cloud::FaultInjector fi(SpikyFaults(rng));
    cloud::CloudStore store(DeepRetry());
    store.SetFaultInjector(&fi);
    const cloud::StreamId stream = store.CreateStream("wal");
    WalWriter writer(&store, PipelinedOptions(stream, rng));

    const size_t first = 10 + rng.Uniform(20);
    const size_t second = 10 + rng.Uniform(20);
    for (size_t i = 0; i < first; ++i) {
      ASSERT_TRUE(writer.AppendAsync(Mutation(i + 1), nullptr, nullptr).ok());
    }
    // The Flush barrier leaves committed_cursor() fresh: nothing pending,
    // nothing in flight, so the cursor names a durable gap-free position.
    ASSERT_TRUE(writer.Flush().ok()) << "seed=" << seed << " trial=" << trial;
    const WalCursor cut = writer.committed_cursor();
    ASSERT_EQ(cut.term, writer.term());

    for (size_t i = 0; i < second; ++i) {
      ASSERT_TRUE(
          writer.AppendAsync(Mutation(first + i + 1), nullptr, nullptr).ok());
    }
    ASSERT_TRUE(writer.Flush().ok()) << "seed=" << seed << " trial=" << trial;

    store.SetFaultInjector(nullptr);  // replay the suffix without faults.
    WalReader reader(&store, stream);
    reader.SeekTo(cut);
    std::vector<WalRecord> suffix;
    for (;;) {
      auto batch = reader.Poll();
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (batch.value().empty()) break;
      for (auto& r : batch.value()) suffix.push_back(std::move(r));
    }
    ASSERT_EQ(suffix.size(), second)
        << "seed=" << seed << " trial=" << trial;
    for (size_t i = 0; i < suffix.size(); ++i) {
      EXPECT_EQ(suffix[i].lsn, first + i + 1)
          << "seed=" << seed << " trial=" << trial;
    }
  }
}

// An append failure reaches a commit waiter that is already asleep: writer
// B waits in Append for its own batch when an earlier batch spends its one
// attempt and parks. B fails with that append error while later batches
// are still in flight, not OK and not a hang; the next Flush re-kicks the
// parked batch and the stream replays contiguously.
TEST(WalPipelineTest, EarlierBatchParkingFailsAWaitingAppend) {
  cloud::CloudStoreOptions sopts;
  sopts.retry.max_attempts = 1;  // retries off: one failure parks a batch.
  // One simulated microsecond per byte, slept in wall time below: a
  // record's value size sets how long its append holds a worker.
  sopts.latency.bandwidth_mb_per_s = 1;
  cloud::CloudStore store(sopts);
  cloud::FaultInjector fi;
  store.SetFaultInjector(&fi);
  WalWriterOptions w;
  w.stream = store.CreateStream("wal");
  w.inflight_appends = 2;
  w.wall_latency_scale = 1.0;
  WalWriter writer(&store, w);

  auto sized = [](bwtree::Lsn lsn, size_t value_bytes) {
    WalRecord r = Mutation(lsn);
    r.entry.value.assign(value_bytes, 'v');
    return r;
  };
  // Batches 1 and 2 hold both workers, for ~0.75 s and ~0.25 s. Batch 3
  // queues behind them and fails its attempt (the third append) once
  // batch 2's worker frees up. Batch 2 landing commits nothing, so only
  // the park itself can wake B.
  fi.Arm(cloud::FaultOp::kAppend, cloud::FaultClass::kTransientError, 2);
  ASSERT_TRUE(writer.AppendAsync(sized(1, 750'000), nullptr, nullptr).ok());
  ASSERT_TRUE(writer.AppendAsync(sized(2, 250'000), nullptr, nullptr).ok());
  ASSERT_TRUE(writer.AppendAsync(Mutation(3), nullptr, nullptr).ok());
  // B starts once both workers are mid-append, before batch 3 can fail.
  while (fi.OpCount(cloud::FaultOp::kAppend) < 2) std::this_thread::yield();
  Status b;
  std::thread writer_b([&] { b = writer.Append(Mutation(4)); });
  writer_b.join();
  EXPECT_TRUE(b.IsIOError()) << b.ToString();
  EXPECT_NE(b.ToString().find("injected transient append failure"),
            std::string::npos)
      << b.ToString();
  // Batch 1 is still on the wire: B did not wait past the failure.
  EXPECT_EQ(writer.committed_records(), 0u);

  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_EQ(writer.committed_records(), 4u);
  EXPECT_EQ(fi.OpCount(cloud::FaultOp::kAppend), 5u);  // one re-kick.
  const auto replay = StrictReplay(&store, w.stream);
  ASSERT_EQ(replay.size(), 4u);
  ExpectContiguousPrefix(replay, /*seed=*/0, /*trial=*/0);
}

}  // namespace
}  // namespace bg3::wal
