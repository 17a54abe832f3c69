#ifndef BG3_COMMON_RANDOM_H_
#define BG3_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace bg3 {

/// Deterministic xorshift128+ PRNG. Every stochastic component of the repo
/// takes an explicit seed so experiments are reproducible run to run.
class Random {
 public:
  explicit Random(uint64_t seed);

  uint64_t Next();

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t s0_;
  uint64_t s1_;
};

/// Zipf(theta) sampler over [0, n) using the Gray et al. (SIGMOD'94)
/// analytic method, the standard generator for power-law database
/// benchmarks (also used by YCSB). Item 0 is the hottest.
class ZipfGenerator {
 public:
  /// theta in (0, 1); typical social-graph skew is 0.8–0.99.
  ZipfGenerator(uint64_t n, double theta, uint64_t seed);

  uint64_t Next();

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  Random rng_;
};

}  // namespace bg3

#endif  // BG3_COMMON_RANDOM_H_
