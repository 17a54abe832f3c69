#ifndef BG3_COMMON_CLOCK_H_
#define BG3_COMMON_CLOCK_H_

#include <cstdint>

namespace bg3 {

/// Wall-clock helpers (monotonic).
uint64_t NowMicros();
uint64_t NowNanos();

}  // namespace bg3

#endif  // BG3_COMMON_CLOCK_H_
