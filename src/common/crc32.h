#ifndef BG3_COMMON_CRC32_H_
#define BG3_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace bg3 {

/// CRC-32C (Castagnoli). Every record the cloud store persists is
/// checksummed on append and verified on read, so bit rot surfaces as
/// Status::Corruption instead of silent bad data. On x86-64 CPUs with
/// SSE4.2 this runs the `crc32` instruction 8 bytes at a time; elsewhere it
/// runs Crc32cPortable. The choice is made once, at first use, from cpuid,
/// and both produce identical values.
uint32_t Crc32c(const char* data, size_t n, uint32_t seed = 0);

/// The byte-table loop: Crc32c's fallback and its reference in tests.
uint32_t Crc32cPortable(const char* data, size_t n, uint32_t seed = 0);

/// True when Crc32c runs the SSE4.2 instruction rather than the table loop.
bool Crc32cIsHardware();

}  // namespace bg3

#endif  // BG3_COMMON_CRC32_H_
