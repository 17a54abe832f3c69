#ifndef BG3_CLOUD_EXTENT_H_
#define BG3_CLOUD_EXTENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/types.h"
#include "common/status.h"

namespace bg3::cloud {

/// One fixed-capacity append-only unit of a stream (§3.3: "divides each
/// stream into extents of equal size"). Records are appended until the
/// capacity is reached, then the extent is sealed and a new one opened.
/// GC works at extent granularity: valid records are relocated and the whole
/// extent is freed.
class Extent {
 public:
  Extent(ExtentId id, size_t capacity);

  Extent(const Extent&) = delete;
  Extent& operator=(const Extent&) = delete;

  ExtentId id() const { return id_; }
  size_t capacity() const { return capacity_; }
  size_t used_bytes() const { return data_.size(); }
  bool sealed() const { return sealed_; }
  bool freed() const { return freed_; }

  /// True if `len` more bytes fit.
  bool HasRoom(size_t len) const { return data_.size() + len <= capacity_; }

  /// Appends a record; the caller must have checked HasRoom. Returns the
  /// record's offset within the extent.
  uint32_t Append(const Slice& record);

  /// Touches no mutable state, so concurrent readers are safe as long as
  /// no writer runs (the owning Stream's shared lock).
  Status Read(uint32_t offset, uint32_t length, std::string* out) const;

  void Seal() { sealed_ = true; }
  /// Releases the payload; subsequent reads fail with IOError.
  void Free();

  /// Marks the record at `offset` invalid (out-of-place update or delete).
  /// Returns the record's length, or 0 if the offset is unknown/already
  /// invalid.
  uint32_t MarkInvalid(uint32_t offset);

  /// Failure injection: flips one byte inside the record at `offset` so the
  /// next whole-record read fails its checksum. Returns false if unknown.
  bool CorruptRecordForTesting(uint32_t offset, uint32_t byte_index);

  // --- accounting used by space reclamation -------------------------------
  uint32_t total_records() const { return total_records_; }
  uint32_t invalid_records() const { return invalid_records_; }
  uint32_t valid_records() const { return total_records_ - invalid_records_; }
  uint64_t dead_bytes() const { return dead_bytes_; }
  uint64_t live_bytes() const { return used_bytes() - dead_bytes_; }

  /// Offsets+lengths of records still valid (for GC relocation).
  std::vector<std::pair<uint32_t, uint32_t>> ValidRecords() const;

  /// Offsets+lengths of all records, valid or not, in append order (log
  /// tailing reads the raw sequence).
  std::vector<std::pair<uint32_t, uint32_t>> AllRecords() const;

  /// Records with offset strictly greater than `after_offset` (pass -1 via
  /// kFromStart for all), capped at `max_records`. O(log n) positioning —
  /// the hot path of WAL tailing.
  std::vector<std::pair<uint32_t, uint32_t>> RecordsAfter(
      int64_t after_offset, size_t max_records) const;

 private:
  struct RecordMeta {
    uint32_t offset;
    uint32_t length;
    uint32_t crc;  ///< CRC-32C of the record bytes, verified on read.
    bool valid;
  };

  // Directory is ordered by offset; lookup by offset is a binary search.
  int FindRecord(uint32_t offset) const;

  const ExtentId id_;
  const size_t capacity_;
  std::string data_;
  std::vector<RecordMeta> records_;
  uint32_t total_records_ = 0;
  uint32_t invalid_records_ = 0;
  uint64_t dead_bytes_ = 0;
  bool sealed_ = false;
  bool freed_ = false;
};

}  // namespace bg3::cloud

#endif  // BG3_CLOUD_EXTENT_H_
