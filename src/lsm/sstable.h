#ifndef BG3_LSM_SSTABLE_H_
#define BG3_LSM_SSTABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/result.h"
#include "lsm/memtable.h"

namespace bg3::lsm {

/// In-memory bloom filter over an SSTable's keys (standard LSM read-path
/// optimization; its absence would overstate ByteGraph's read costs).
class BloomFilter {
 public:
  BloomFilter() = default;
  BloomFilter(const std::vector<std::string>& keys, size_t bits_per_key);

  bool MayContain(const Slice& key) const;

 private:
  std::vector<uint8_t> bits_;
  int probes_ = 1;
};

/// An immutable sorted run. Entry data lives in the cloud store as ~4 KiB
/// block records; the block index (first key per block), key bounds and
/// bloom filter stay in memory — so a point read costs exactly one storage
/// I/O per probed table, and a Get that must consult k levels pays k reads:
/// the multi-layer read overhead of §2.4.
class SsTable {
 public:
  struct Options {
    cloud::StreamId stream = 0;
    size_t block_bytes = 4096;
    size_t bloom_bits_per_key = 10;
  };

  /// Builds a table from key-ordered records (dedup'd by the caller).
  static Result<std::shared_ptr<SsTable>> Build(
      cloud::CloudStore* store, const Options& options,
      const std::vector<KvRecord>& records);

  /// Point lookup. Returns true if this table decides the key.
  Result<bool> Get(const Slice& key, std::string* value,
                   bool* tombstone) const;

  /// All records (compaction / scan input); reads every block.
  Result<std::vector<KvRecord>> ReadAll() const;

  /// Records overlapping [start, end) appended to out.
  Status CollectRange(const Slice& start, const Slice& end,
                      std::vector<KvRecord>* out) const;

  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  uint64_t data_bytes() const { return data_bytes_; }
  bool Overlaps(const Slice& start, const Slice& end) const;

  /// Invalidates all block records (table superseded by compaction).
  void MarkObsolete();

 private:
  SsTable(cloud::CloudStore* store) : store_(store) {}

  static std::string EncodeBlock(const std::vector<KvRecord>& records,
                                 size_t begin, size_t end);
  static Status DecodeBlock(Slice input, std::vector<KvRecord>* out);

  cloud::CloudStore* store_;
  std::string smallest_;
  std::string largest_;
  std::vector<std::string> block_first_keys_;
  std::vector<cloud::PagePointer> block_ptrs_;
  BloomFilter bloom_;
  uint64_t data_bytes_ = 0;
  size_t entry_count_ = 0;
};

}  // namespace bg3::lsm

#endif  // BG3_LSM_SSTABLE_H_
