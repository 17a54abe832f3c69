// Cost model (DESIGN.md §5.8): pricing arithmetic against hand-computed
// fixtures, and the process-wide CostAccounting fold into bg3.cost.*
// counters (integer nano-USD, so attribution sums stay exact).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/cost_model.h"
#include "common/metrics_registry.h"
#include "common/op_stats.h"
#include "common/timed_scope.h"

namespace bg3 {
namespace {

constexpr uint64_t kGiB = 1024ull * 1024 * 1024;

TEST(CostModelTest, DefaultS3LikeRequestPricing) {
  const CostModel m;
  // $0.40 per 1M GETs, $5.00 per 1M PUTs, free same-region transfer.
  EXPECT_DOUBLE_EQ(m.ReadCostUsd(1'000'000, 0), 0.4);
  EXPECT_DOUBLE_EQ(m.WriteCostUsd(1'000'000, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.ReadCostUsd(0, 10 * kGiB), 0.0);
  EXPECT_DOUBLE_EQ(m.WriteCostUsd(0, 10 * kGiB), 0.0);
  // $0.023 per GiB-month.
  EXPECT_DOUBLE_EQ(m.StorageCostUsdPerMonth(kGiB), 0.023);
  EXPECT_DOUBLE_EQ(m.StorageCostUsdPerMonth(0), 0.0);
}

TEST(CostModelTest, PerGbTransferPricing) {
  CostModelOptions opts;
  opts.usd_per_read_op = 0;
  opts.usd_per_write_op = 0;
  opts.usd_per_gb_read = 0.01;
  opts.usd_per_gb_written = 0.05;
  const CostModel m(opts);
  EXPECT_DOUBLE_EQ(m.ReadCostUsd(1000, 2 * kGiB), 0.02);
  EXPECT_DOUBLE_EQ(m.WriteCostUsd(1000, 2 * kGiB), 0.10);
  // Half a GiB prices linearly.
  EXPECT_DOUBLE_EQ(m.ReadCostUsd(0, kGiB / 2), 0.005);
}

TEST(CostModelTest, OpCostSumsReadsAndAppendsAcrossLayers) {
  CostModelOptions opts;
  opts.usd_per_read_op = 1.0;
  opts.usd_per_write_op = 10.0;
  opts.usd_per_gb_read = 0;
  opts.usd_per_gb_written = 0;
  const CostModel m(opts);

  OpStats s;
  {
    obs::Scope bwtree(OpLayer::kBwtree);
    OpStats::RecordCloudRead(&s, 100);
    OpStats::RecordCloudRead(&s, 100);
  }
  {
    obs::Scope wal(OpLayer::kWal);
    OpStats::RecordCloudAppend(&s, 300);
  }
  EXPECT_EQ(s.CloudReadOps(), 2u);
  EXPECT_EQ(s.CloudReadBytes(), 200u);
  EXPECT_EQ(s.CloudAppendOps(), 1u);
  EXPECT_EQ(s.CloudAppendBytes(), 300u);
  // 2 reads * $1 + 1 append * $10.
  EXPECT_DOUBLE_EQ(m.OpCostUsd(s), 12.0);
}

uint64_t CounterOrZero(const MetricsRegistry::Snapshot& snap,
                       const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(CostModelTest, AccountingFoldsIntoNanoUsdCounters) {
  // Simple prices so the expected nano-USD values are exact integers:
  // $0.001/read, $0.002/write.
  CostModelOptions opts;
  opts.usd_per_read_op = 1e-3;
  opts.usd_per_write_op = 2e-3;
  opts.usd_per_gb_read = 0;
  opts.usd_per_gb_written = 0;
  CostAccounting::Default().SetModel(opts);

  OpStats s;
  {
    obs::Scope bwtree(OpLayer::kBwtree);
    OpStats::RecordCloudRead(&s, 4096);  // $0.001
    OpStats::RecordCloudRead(&s, 4096);  // $0.001
    OpStats::RecordCloudRead(&s, 4096);  // $0.001
  }
  {
    obs::Scope wal(OpLayer::kWal);
    OpStats::RecordCloudAppend(&s, 512);  // $0.002
  }

  const auto before = MetricsRegistry::Default().TakeSnapshot();
  CostAccounting::Default().RecordOp(s, "cost_test_class");
  const auto after = MetricsRegistry::Default().TakeSnapshot();

  // 3 reads * 1e6 nano-USD into bwtree, 1 write * 2e6 into wal.
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.layer.bwtree.nanousd") -
                CounterOrZero(before, "bg3.cost.layer.bwtree.nanousd"),
            3'000'000u);
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.layer.wal.nanousd") -
                CounterOrZero(before, "bg3.cost.layer.wal.nanousd"),
            2'000'000u);
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.class.cost_test_class.nanousd") -
                CounterOrZero(before, "bg3.cost.class.cost_test_class.nanousd"),
            5'000'000u);
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.total_nanousd") -
                CounterOrZero(before, "bg3.cost.total_nanousd"),
            5'000'000u);
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.requests") -
                CounterOrZero(before, "bg3.cost.requests"),
            1u);

  CostAccounting::Default().SetModel(CostModelOptions{});
}

TEST(CostModelTest, NullOrEmptyClassFoldsUnderDefault) {
  CostModelOptions opts;
  opts.usd_per_read_op = 1e-3;
  opts.usd_per_write_op = 0;
  CostAccounting::Default().SetModel(opts);

  OpStats s;
  OpStats::RecordCloudRead(&s, 1);
  const auto before = MetricsRegistry::Default().TakeSnapshot();
  CostAccounting::Default().RecordOp(s, nullptr);
  const auto after = MetricsRegistry::Default().TakeSnapshot();
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.class.default.nanousd") -
                CounterOrZero(before, "bg3.cost.class.default.nanousd"),
            1'000'000u);

  CostAccounting::Default().SetModel(CostModelOptions{});
}

TEST(CostModelTest, ZeroStatsRecordNothingButCountTheRequest) {
  const OpStats s;
  const auto before = MetricsRegistry::Default().TakeSnapshot();
  CostAccounting::Default().RecordOp(s, "idle_class");
  const auto after = MetricsRegistry::Default().TakeSnapshot();
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.total_nanousd"),
            CounterOrZero(before, "bg3.cost.total_nanousd"));
  EXPECT_EQ(CounterOrZero(after, "bg3.cost.requests") -
                CounterOrZero(before, "bg3.cost.requests"),
            1u);
}

TEST(CostModelTest, RenderCostzIsJsonWithPricingBlock) {
  const std::string doc = RenderCostz();
  EXPECT_EQ(doc.front(), '{');
  EXPECT_NE(doc.find("\"pricing\""), std::string::npos);
  EXPECT_NE(doc.find("\"usd_per_write_op\""), std::string::npos);
  EXPECT_NE(doc.find("\"by_class\""), std::string::npos);
  EXPECT_NE(doc.find("\"by_layer\""), std::string::npos);
}

}  // namespace
}  // namespace bg3
