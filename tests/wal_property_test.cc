// Property test for WAL torn-tail recovery: whatever batch sizes, record
// shapes and tear points a seeded RNG produces, a reader recovers exactly
// the committed prefix — never a corrupt record, never a reordering, and
// (with writer retries) never a duplicate. Failing runs print their seed;
// BG3_TEST_SEED=<seed> replays them.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
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

using ExpectedRecord = std::tuple<bwtree::Lsn, std::string, std::string>;

std::string RandomBytes(Random& rng, size_t min_len, size_t max_len) {
  const size_t len = min_len + rng.Uniform(max_len - min_len + 1);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>('a' + rng.Uniform(26));
  return out;
}

WalRecord Mutation(bwtree::Lsn lsn, std::string key, std::string value) {
  WalRecord r;
  r.type = WalRecord::Type::kMutation;
  r.tree_id = 1;
  r.page_id = lsn % 13;
  r.lsn = lsn;
  r.entry = {bwtree::DeltaOp::kUpsert, std::move(key), std::move(value)};
  return r;
}

void ExpectPrefix(const std::vector<WalRecord>& got,
                  const std::vector<ExpectedRecord>& expected, size_t count,
                  uint64_t seed, int trial) {
  ASSERT_EQ(got.size(), count) << "seed=" << seed << " trial=" << trial;
  for (size_t i = 0; i < count; ++i) {
    const auto& [lsn, key, value] = expected[i];
    EXPECT_EQ(got[i].lsn, lsn) << "seed=" << seed << " trial=" << trial;
    EXPECT_EQ(got[i].entry.key, key) << "seed=" << seed << " trial=" << trial;
    EXPECT_EQ(got[i].entry.value, value)
        << "seed=" << seed << " trial=" << trial;
  }
}

// A tear at the stream tail (medium damage after the fact) erases exactly
// the last batch; everything before it survives byte-for-byte.
TEST(WalPropertyTest, TornTailYieldsExactlyCommittedPrefix) {
  const uint64_t seed =
      test::AnnouncedSeed("WalPropertyTest.TornTail", 0xC0FFEE);
  Random rng(seed);
  for (int trial = 0; trial < 50; ++trial) {
    cloud::CloudStore store;
    WalWriterOptions w;
    w.stream = store.CreateStream("wal");
    w.group_size = 1 + rng.Uniform(4);  // 1..4 records per batch.
    WalWriter writer(&store, w);

    const size_t n = 1 + rng.Uniform(40);
    std::vector<ExpectedRecord> expected;
    for (size_t i = 0; i < n; ++i) {
      std::string key = RandomBytes(rng, 1, 16);
      std::string value = RandomBytes(rng, 0, 64);
      expected.emplace_back(i + 1, key, value);
      ASSERT_TRUE(writer.Append(Mutation(i + 1, key, value)).ok());
    }
    ASSERT_TRUE(writer.Flush().ok());

    // Tear the tail: damage one byte of the last appended batch. The last
    // batch holds the final n % group_size records (a full group when the
    // count divides evenly).
    const size_t last_batch =
        n % w.group_size == 0 ? w.group_size : n % w.group_size;
    const size_t committed = n - last_batch;
    ASSERT_TRUE(store.CorruptRecordForTesting(
        writer.last_append_ptr(), static_cast<uint32_t>(rng.Uniform(8))));

    WalReader reader(&store, w.stream);
    auto records = reader.Poll();
    ASSERT_TRUE(records.ok()) << "seed=" << seed << " trial=" << trial << " "
                              << records.status().ToString();
    ExpectPrefix(records.value(), expected, committed, seed, trial);

    // The torn batch never materializes on a later poll either.
    auto again = reader.Poll();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.value().empty())
        << "seed=" << seed << " trial=" << trial;
  }
}

// Injected torn appends (a tear the writer *observes*) are repaired by the
// writer's retry: the reader sees every record exactly once, in order.
TEST(WalPropertyTest, InjectedTearsWithRetryLoseAndDuplicateNothing) {
  const uint64_t seed =
      test::AnnouncedSeed("WalPropertyTest.InjectedTears", 0x7EA55);
  Random rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    cloud::FaultInjectorOptions fopts;
    fopts.seed = rng.Next();
    fopts.torn_append_p = 0.15;
    fopts.transient_error_p = 0.05;
    cloud::FaultInjector fi(fopts);
    cloud::CloudStoreOptions sopts;
    sopts.retry.max_attempts = 6;  // 0.15^6: exhaustion is effectively never.
    cloud::CloudStore store(sopts);
    store.SetFaultInjector(&fi);

    WalWriterOptions w;
    w.stream = store.CreateStream("wal");
    w.group_size = 1 + rng.Uniform(4);
    WalWriter writer(&store, w);

    const size_t n = 30 + rng.Uniform(40);
    std::vector<ExpectedRecord> expected;
    for (size_t i = 0; i < n; ++i) {
      std::string key = RandomBytes(rng, 1, 16);
      std::string value = RandomBytes(rng, 0, 64);
      expected.emplace_back(i + 1, key, value);
      ASSERT_TRUE(writer.Append(Mutation(i + 1, key, value)).ok())
          << "seed=" << seed << " trial=" << trial << " " << fi.ToString();
    }
    ASSERT_TRUE(writer.Flush().ok());

    // The property under test is what landed in the log: read it back over
    // a healthy substrate (transient faults also hit the tail op).
    store.SetFaultInjector(nullptr);
    WalReader reader(&store, w.stream);
    auto records = reader.Poll();
    ASSERT_TRUE(records.ok()) << "seed=" << seed << " trial=" << trial;
    ExpectPrefix(records.value(), expected, n, seed, trial);
  }
}

}  // namespace
}  // namespace bg3::wal
