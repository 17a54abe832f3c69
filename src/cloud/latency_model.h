#ifndef BG3_CLOUD_LATENCY_MODEL_H_
#define BG3_CLOUD_LATENCY_MODEL_H_

#include <atomic>
#include <cstdint>
#include <cstddef>

#include "common/op_context.h"
#include "common/status.h"

namespace bg3::cloud {

/// Parameters of the simulated shared cloud storage service.
///
/// The paper's substrate ("ByteDance's internal append-only cloud storage",
/// §4.1) provides millisecond-level latency; we model an op's latency as
///
///   service = base + bytes / bandwidth
///   latency = service / (1 - rho)        (M/M/1-style queueing factor)
///
/// where rho is the offered utilization reported by the benchmark driver
/// (`SetOfferedUtilization`). This keeps the latency experiments
/// (Figs. 13/14) deterministic and fast while still letting saturation show
/// up when a bench overdrives the device.
struct LatencyModelOptions {
  uint64_t append_base_us = 1500;    ///< ms-level append set-up cost.
  uint64_t read_base_us = 2000;      ///< ms-level random read cost.
  uint64_t bandwidth_mb_per_s = 400; ///< streaming bandwidth per stream.
};

class LatencyModel {
 public:
  LatencyModel() = default;
  explicit LatencyModel(const LatencyModelOptions& opts) : opts_(opts) {}

  uint64_t AppendLatencyUs(size_t bytes) const;
  uint64_t ReadLatencyUs(size_t bytes) const;

  /// rho in [0, 0.99]; set by benchmark drivers that know their offered load.
  void SetOfferedUtilization(double rho);

  const LatencyModelOptions& options() const { return opts_; }

 private:
  uint64_t Queued(uint64_t service_us) const;

  LatencyModelOptions opts_;
  std::atomic<double> rho_{0.0};
};

/// Deadline-aware admission of a single I/O: when the model predicts the
/// operation takes longer than the caller's remaining budget, fail fast
/// with DeadlineExceeded *before* issuing it — the simulated latency would
/// be charged against a request whose caller already stopped waiting, and
/// on a real service the bytes would be wasted wire traffic. Null or
/// deadline-less contexts always pass.
inline Status CheckLatencyBudget(const OpContext* ctx, uint64_t predicted_us,
                                 const char* what) {
  if (ctx == nullptr || !ctx->has_deadline()) return Status::OK();
  if (ctx->RemainingUs() < predicted_us) {
    return Status::DeadlineExceeded(
        std::string("predicted ") + what +
        " latency exceeds remaining deadline budget");
  }
  return Status::OK();
}

}  // namespace bg3::cloud

#endif  // BG3_CLOUD_LATENCY_MODEL_H_
