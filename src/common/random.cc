#include "common/random.h"

#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace bg3 {

Random::Random(uint64_t seed) {
  // Expand the seed through splitmix64 so nearby seeds give unrelated
  // streams; avoid the all-zero state xorshift cannot leave.
  s0_ = Mix64(seed + 1);
  s1_ = Mix64(seed + 0x632be59bd9b4e019ull);
  if (s0_ == 0 && s1_ == 0) s0_ = 1;
}

uint64_t Random::Next() {
  uint64_t x = s0_;
  const uint64_t y = s1_;
  s0_ = y;
  x ^= x << 23;
  s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s1_ + y;
}

uint64_t Random::Uniform(uint64_t n) {
  BG3_CHECK_GT(n, 0u);
  return Next() % n;
}

double Random::NextDouble() {
  // 53 high-quality bits into [0, 1).
  return (Next() >> 11) * (1.0 / 9007199254740992.0);
}

double ZipfGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta, uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  BG3_CHECK_GT(n, 0u);
  BG3_CHECK(theta > 0.0 && theta < 1.0) << "theta must be in (0,1)";
  // Zeta(n) is O(n); cap the exact sum and extrapolate with the integral
  // approximation for very large n so construction stays cheap.
  constexpr uint64_t kExactLimit = 1u << 20;
  if (n <= kExactLimit) {
    zetan_ = Zeta(n, theta);
  } else {
    double zeta_limit = Zeta(kExactLimit, theta);
    // Integral of x^-theta from kExactLimit to n.
    zeta_limit += (std::pow(static_cast<double>(n), 1 - theta) -
                   std::pow(static_cast<double>(kExactLimit), 1 - theta)) /
                  (1 - theta);
    zetan_ = zeta_limit;
  }
  const double zeta2 = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1 - std::pow(2.0 / static_cast<double>(n), 1 - theta)) /
         (1 - zeta2 / zetan_);
}

uint64_t ZipfGenerator::Next() {
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t v = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

}  // namespace bg3
