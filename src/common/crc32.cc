#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define BG3_CRC32C_SSE42 1
#endif

namespace bg3 {

namespace {

// Table for the Castagnoli polynomial 0x1EDC6F41 (reflected: 0x82F63B78),
// generated once at first use.
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

#if BG3_CRC32C_SSE42
// Compiled for SSE4.2 regardless of the build's -march; only called after
// cpuid confirmed the instruction exists.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const char* data,
                                                        size_t n,
                                                        uint32_t seed) {
  uint32_t crc = ~seed;
  // Bytes up to 8-byte alignment, then whole words, then the tail.
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*data++));
    --n;
  }
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*data++));
  }
  return ~crc;
}
#endif

using Crc32cFn = uint32_t (*)(const char*, size_t, uint32_t);

// Chosen once, at first use: the SSE4.2 loop when cpuid reports it.
Crc32cFn Crc32cImpl() {
  static const Crc32cFn impl = []() -> Crc32cFn {
#if BG3_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
    return &Crc32cPortable;
  }();
  return impl;
}

}  // namespace

uint32_t Crc32cPortable(const char* data, size_t n, uint32_t seed) {
  static const Crc32cTable table;
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table.entries[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF] ^
          (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const char* data, size_t n, uint32_t seed) {
  return Crc32cImpl()(data, n, seed);
}

bool Crc32cIsHardware() { return Crc32cImpl() != &Crc32cPortable; }

}  // namespace bg3
