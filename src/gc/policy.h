#ifndef BG3_GC_POLICY_H_
#define BG3_GC_POLICY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cloud/stream.h"
#include "gc/extent_usage.h"

namespace bg3::gc {

/// One reclaimable extent as seen by a policy.
struct GcCandidate {
  cloud::ExtentStats stats;
  ExtentUsage usage;
};

/// Inputs common to a selection round.
struct SelectContext {
  uint64_t now_us = 0;
  /// TTL configured for this stream's data (0 = none). The workload-aware
  /// policy bypasses extents about to expire on their own (§3.3 Obs. 2).
  uint64_t ttl_us = 0;
};

/// Victim-selection strategy for one reclamation cycle.
class GcPolicy {
 public:
  virtual ~GcPolicy() = default;
  virtual std::string name() const = 0;

  /// Picks up to `max_victims` extents to relocate, best victims first.
  virtual std::vector<cloud::ExtentId> SelectVictims(
      std::vector<GcCandidate> candidates, size_t max_victims,
      const SelectContext& ctx) = 0;
};

/// Traditional Bw-tree reclamation: a FIFO queue — always relocate the
/// oldest extents regardless of their content (§3.3 opening).
class FifoPolicy : public GcPolicy {
 public:
  std::string name() const override { return "fifo"; }
  std::vector<cloud::ExtentId> SelectVictims(std::vector<GcCandidate> c,
                                             size_t n,
                                             const SelectContext& ctx) override;
};

/// ArkDB-style baseline [31]: pick the extents with the highest ratio of
/// reclaimable space (fragmentation / dirty ratio).
class DirtyRatioPolicy : public GcPolicy {
 public:
  /// Extents below `min_fragmentation` are not worth moving.
  explicit DirtyRatioPolicy(double min_fragmentation = 0.05)
      : min_fragmentation_(min_fragmentation) {}

  std::string name() const override { return "dirty-ratio"; }
  std::vector<cloud::ExtentId> SelectVictims(std::vector<GcCandidate> c,
                                             size_t n,
                                             const SelectContext& ctx) override;

 private:
  const double min_fragmentation_;
};

/// BG3's workload-aware policy (Algorithm 2): prefer cold extents (smallest
/// update gradient) and, among those, the highest fragmentation rate.
/// TTL'd extents whose deadline falls within `bypass_window_us` of now are
/// bypassed and left to expire in place (§3.3 Observation 2); the rest
/// compete like any other extent, which is the paper's §4.4 proposal to
/// bypass only extents "close to their expiration time". Two values of the
/// window span both behaviours: kUnboundedWindow is §3.3's pure bypass
/// (never relocate a TTL'd extent), and any TTL no longer than the window
/// bypasses every TTL'd extent.
class WorkloadAwarePolicy : public GcPolicy {
 public:
  /// Bypass every TTL'd extent, however distant its deadline.
  static constexpr uint64_t kUnboundedWindow =
      std::numeric_limits<uint64_t>::max();

  /// `cold_pool_factor`: the lowest-gradient pool examined per round is
  /// max_victims * this factor, mirroring Algorithm 2's
  /// getExtentsWithSmallestUpdateGradient / sortByFragmentationRate split.
  explicit WorkloadAwarePolicy(uint64_t bypass_window_us,
                               double min_fragmentation = 0.05,
                               size_t cold_pool_factor = 4)
      : bypass_window_us_(bypass_window_us),
        min_fragmentation_(min_fragmentation),
        cold_pool_factor_(cold_pool_factor) {}

  std::string name() const override { return "workload-aware"; }
  std::vector<cloud::ExtentId> SelectVictims(std::vector<GcCandidate> c,
                                             size_t n,
                                             const SelectContext& ctx) override;

 private:
  const uint64_t bypass_window_us_;
  const double min_fragmentation_;
  const size_t cold_pool_factor_;
};

}  // namespace bg3::gc

#endif  // BG3_GC_POLICY_H_
