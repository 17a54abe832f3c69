#ifndef BG3_COMMON_COST_MODEL_H_
#define BG3_COMMON_COST_MODEL_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/op_stats.h"

namespace bg3 {

/// Pluggable cloud storage pricing (DESIGN.md §5.8). Defaults approximate
/// S3 standard-tier list prices: per-request charges for GET/PUT, monthly
/// per-GB storage, and free same-region data transfer. Deployments on
/// provisioned-throughput stores (or paying egress) set the per-GB transfer
/// rates; the storage-cost bench does, so written bytes dominate and GC
/// policy differences become dollar-denominated.
struct CostModelOptions {
  double usd_per_read_op = 0.4e-6;        ///< S3 GET: $0.40 per 1M requests.
  double usd_per_write_op = 5.0e-6;       ///< S3 PUT: $5.00 per 1M requests.
  double usd_per_gb_read = 0.0;           ///< same-region transfer is free.
  double usd_per_gb_written = 0.0;
  double usd_per_gb_month_stored = 0.023; ///< S3 standard storage.
};

/// Converts raw I/O volumes into dollars. Stateless aside from the pricing
/// options, so layers can price their own numbers without touching the
/// process-wide accounting (the bench does exactly that).
class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(const CostModelOptions& opts) : opts_(opts) {}

  double ReadCostUsd(uint64_t ops, uint64_t bytes) const {
    return static_cast<double>(ops) * opts_.usd_per_read_op +
           GiB(bytes) * opts_.usd_per_gb_read;
  }
  double WriteCostUsd(uint64_t ops, uint64_t bytes) const {
    return static_cast<double>(ops) * opts_.usd_per_write_op +
           GiB(bytes) * opts_.usd_per_gb_written;
  }
  double StorageCostUsdPerMonth(uint64_t stored_bytes) const {
    return GiB(stored_bytes) * opts_.usd_per_gb_month_stored;
  }
  /// Request cost: per-layer cloud reads + appends priced and summed
  /// (storage is a standing charge, not a per-request one).
  double OpCostUsd(const OpStats& s) const {
    return ReadCostUsd(s.CloudReadOps(), s.CloudReadBytes()) +
           WriteCostUsd(s.CloudAppendOps(), s.CloudAppendBytes());
  }

  const CostModelOptions& options() const { return opts_; }

  static double GiB(uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
  }

 private:
  CostModelOptions opts_;
};

/// Process-wide cost accounting: the root BG3_TIMED_SCOPE of each finished
/// traced request folds its OpStats in here, which breaks the dollars down
/// into
/// `bg3.cost.*` counters in the default metrics registry (integer
/// **nano-USD**, so they stay exact counters):
///
///   bg3.cost.total_nanousd             everything accounted so far
///   bg3.cost.requests                  requests folded in
///   bg3.cost.class.<class>.nanousd     by OpContext workload class
///   bg3.cost.layer.<layer>.nanousd     by issuing layer (OpLayer)
///
/// The OpStats sink must be fresh (or Reset) per request: folding reads the
/// sink's totals, so reusing one sink across requests double-bills.
class CostAccounting {
 public:
  static CostAccounting& Default();

  void SetModel(const CostModelOptions& opts) {
    std::lock_guard<std::mutex> lock(mu_);
    opts_ = opts;
  }
  CostModelOptions model_options() const {
    std::lock_guard<std::mutex> lock(mu_);
    return opts_;
  }

  /// Folds one finished request. `workload_class` may be null ("default").
  void RecordOp(const OpStats& s, const char* workload_class);

 private:
  mutable std::mutex mu_;
  CostModelOptions opts_;
};

/// `/costz` document (compact JSON): the process-wide cloud bill — every
/// `bg3.cloud.store<N>.*` I/O counter in the default registry priced by the
/// accounting's current model, storage priced from the stores' total_bytes
/// callbacks — plus the per-request attribution (`by_class`, `by_layer`)
/// accumulated by CostAccounting.
std::string RenderCostz();

}  // namespace bg3

#endif  // BG3_COMMON_COST_MODEL_H_
