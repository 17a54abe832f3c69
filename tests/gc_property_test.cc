// Property-based space-reclamation tests: arbitrary churn interleaved with
// reclamation cycles must never lose or corrupt data, across every policy.
// Reads go through the zero-cache path, so correctness is checked against
// the *storage images* that GC relocates — not the in-memory state.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/random.h"
#include "gc/policy.h"
#include "gc/space_reclaimer.h"

namespace bg3::gc {
namespace {

// The workload-aware policy runs at two bypass windows: unbounded (§3.3's
// pure TTL bypass) and 1 s (only near-expiry extents bypassed).
enum class PolicyKind { kFifo, kDirtyRatio, kWorkloadAware, kWorkloadAware1s };

struct GcFuzzParam {
  PolicyKind policy;
  uint64_t seed;
  size_t extent_capacity;
  uint32_t consolidate_threshold;
};

std::string ParamName(const testing::TestParamInfo<GcFuzzParam>& info) {
  const char* names[] = {"fifo", "dirty", "aware", "aware_window1s"};
  return std::string(names[static_cast<int>(info.param.policy)]) + "_seed" +
         std::to_string(info.param.seed) + "_ext" +
         std::to_string(info.param.extent_capacity) + "_cons" +
         std::to_string(info.param.consolidate_threshold);
}

std::unique_ptr<GcPolicy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>();
    case PolicyKind::kDirtyRatio:
      return std::make_unique<DirtyRatioPolicy>(0.01);
    case PolicyKind::kWorkloadAware:
      return std::make_unique<WorkloadAwarePolicy>(
          WorkloadAwarePolicy::kUnboundedWindow, 0.01);
    case PolicyKind::kWorkloadAware1s:
      return std::make_unique<WorkloadAwarePolicy>(1'000'000, 0.01);
  }
  return nullptr;
}

class GcFuzzTest : public testing::TestWithParam<GcFuzzParam> {};

TEST_P(GcFuzzTest, ChurnPlusReclamationMatchesModel) {
  const GcFuzzParam& p = GetParam();
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = p.extent_capacity;
  cloud::CloudStore store(copts);
  cloud::ManualTimeSource clock;
  ExtentUsageTracker tracker(&clock);
  store.SetObserver(&tracker);

  bwtree::BwTreeOptions topts;
  topts.consolidate_threshold = p.consolidate_threshold;
  topts.max_leaf_entries = 32;
  topts.read_cache = bwtree::ReadCacheMode::kNone;  // storage is the truth
  topts.base_stream = store.CreateStream("base");
  topts.delta_stream = store.CreateStream("delta");
  bwtree::BwTree tree(&store, topts);

  auto policy = MakePolicy(p.policy);
  SingleTreeResolver resolver(&tree);
  ReclaimOptions ropts;
  ropts.target_dead_ratio = 0.01;
  SpaceReclaimer reclaimer(&store, &resolver, policy.get(), &tracker, ropts);

  std::map<std::string, std::string> model;
  Random rng(p.seed);
  for (int i = 0; i < 3000; ++i) {
    clock.AdvanceUs(50);
    const std::string key = "k" + std::to_string(rng.Uniform(150));
    const int action = static_cast<int>(rng.Uniform(20));
    if (action < 12) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree.Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 15) {
      ASSERT_TRUE(tree.Delete(key).ok());
      model.erase(key);
    } else if (action < 18) {
      auto got = tree.Get(key);
      auto mit = model.find(key);
      if (mit == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key << " @" << i;
      } else {
        ASSERT_TRUE(got.ok()) << key << " @" << i;
        EXPECT_EQ(got.value(), mit->second) << key << " @" << i;
      }
    } else {
      // Reclamation cycle on a random stream.
      const cloud::StreamId stream = rng.Uniform(2) == 0 ? 0 : 1;
      ASSERT_TRUE(reclaimer.RunCycle(stream, 4).ok()) << "@" << i;
    }
  }
  // Drain reclamation, then verify the full model through storage reads.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reclaimer.RunCycle(0, 8).ok());
    ASSERT_TRUE(reclaimer.RunCycle(1, 8).ok());
  }
  for (const auto& [key, value] : model) {
    auto got = tree.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), value) << key;
  }
  // Reclamation must actually have reclaimed something over this much churn.
  EXPECT_GT(store.stats().extents_freed.Get(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GcFuzzTest,
    testing::Values(GcFuzzParam{PolicyKind::kFifo, 1, 1024, 4},
                    GcFuzzParam{PolicyKind::kDirtyRatio, 2, 1024, 4},
                    GcFuzzParam{PolicyKind::kWorkloadAware, 3, 1024, 4},
                    GcFuzzParam{PolicyKind::kWorkloadAware1s, 4, 1024, 4},
                    GcFuzzParam{PolicyKind::kDirtyRatio, 5, 4096, 10},
                    GcFuzzParam{PolicyKind::kWorkloadAware, 6, 256, 2}),
    ParamName);

}  // namespace
}  // namespace bg3::gc
