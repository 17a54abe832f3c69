#include "gc/policy.h"

#include <algorithm>

namespace bg3::gc {

std::vector<cloud::ExtentId> FifoPolicy::SelectVictims(
    std::vector<GcCandidate> c, size_t n, const SelectContext& ctx) {
  // Candidates arrive oldest-first (extent ids are monotone); keep order.
  std::sort(c.begin(), c.end(), [](const GcCandidate& a, const GcCandidate& b) {
    return a.stats.id < b.stats.id;
  });
  std::vector<cloud::ExtentId> out;
  for (const GcCandidate& cand : c) {
    if (out.size() >= n) break;
    out.push_back(cand.stats.id);
  }
  return out;
}

std::vector<cloud::ExtentId> DirtyRatioPolicy::SelectVictims(
    std::vector<GcCandidate> c, size_t n, const SelectContext& ctx) {
  std::sort(c.begin(), c.end(), [](const GcCandidate& a, const GcCandidate& b) {
    return a.stats.FragmentationRate() > b.stats.FragmentationRate();
  });
  std::vector<cloud::ExtentId> out;
  for (const GcCandidate& cand : c) {
    if (out.size() >= n) break;
    if (cand.stats.FragmentationRate() < min_fragmentation_) break;
    out.push_back(cand.stats.id);
  }
  return out;
}

std::vector<cloud::ExtentId> WorkloadAwarePolicy::SelectVictims(
    std::vector<GcCandidate> c, size_t n, const SelectContext& ctx) {
  // Algorithm 2, with the TTL bypass of §3.3: "In situations where data
  // expiration is involved, we bypass those extents and allow them to
  // expire naturally" — narrowed to deadlines within the window. The add
  // saturates so an unbounded window bypasses every TTL'd extent.
  if (ctx.ttl_us != 0) {
    const uint64_t horizon =
        bypass_window_us_ > kUnboundedWindow - ctx.now_us
            ? kUnboundedWindow
            : ctx.now_us + bypass_window_us_;
    std::erase_if(c, [&](const GcCandidate& cand) {
      return cand.usage.TtlDeadlineUs(ctx.ttl_us) <= horizon;
    });
  }
  std::erase_if(c, [&](const GcCandidate& cand) {
    return cand.stats.FragmentationRate() < min_fragmentation_;
  });

  // Fully-dead extents are free reclamation regardless of hotness: the
  // update gradient predicts future invalidation of *remaining* valid data,
  // and they have none. Take them first.
  std::vector<cloud::ExtentId> out;
  std::erase_if(c, [&](const GcCandidate& cand) {
    if (out.size() < n &&
        cand.stats.invalid_records == cand.stats.total_records) {
      out.push_back(cand.stats.id);
      return true;
    }
    return false;
  });
  if (out.size() >= n) return out;

  // Line 2: getExtentsWithSmallestUpdateGradient — keep the coldest pool.
  std::sort(c.begin(), c.end(),
            [&](const GcCandidate& a, const GcCandidate& b) {
              return a.usage.UpdateGradient(ctx.now_us) <
                     b.usage.UpdateGradient(ctx.now_us);
            });
  const size_t remaining = n - out.size();
  const size_t pool = std::min(
      c.size(), std::max<size_t>(remaining, 1) *
                    std::max<size_t>(cold_pool_factor_, 1));
  c.resize(pool);

  // Line 3: sortByFragmentationRate within the cold pool.
  std::sort(c.begin(), c.end(), [](const GcCandidate& a, const GcCandidate& b) {
    return a.stats.FragmentationRate() > b.stats.FragmentationRate();
  });

  for (const GcCandidate& cand : c) {
    if (out.size() >= n) break;
    out.push_back(cand.stats.id);
  }
  return out;
}

}  // namespace bg3::gc
