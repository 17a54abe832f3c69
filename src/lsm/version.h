#ifndef BG3_LSM_VERSION_H_
#define BG3_LSM_VERSION_H_

#include <memory>
#include <vector>

#include "lsm/sstable.h"

namespace bg3::lsm {

/// The level structure of one LSM shard. L0 holds overlapping runs (newest
/// first); L1+ each hold one sorted non-overlapping run (represented as a
/// list of tables chunked by size). Externally synchronized by LsmDb.
class VersionSet {
 public:
  explicit VersionSet(int max_levels);

  /// Prepends a fresh memtable flush to L0.
  void AddToL0(std::shared_ptr<SsTable> table);

  int max_levels() const { return static_cast<int>(levels_.size()); }
  const std::vector<std::shared_ptr<SsTable>>& level(int n) const {
    return levels_[n];
  }

  size_t L0Count() const { return levels_[0].size(); }
  uint64_t LevelBytes(int n) const;
  uint64_t TotalBytes() const;

  /// Replaces the contents of `level` with `tables` (post-compaction),
  /// marking the replaced tables' blocks obsolete.
  void ReplaceLevel(int level, std::vector<std::shared_ptr<SsTable>> tables);

  /// Installs `tables` as the new contents of `level` without touching the
  /// replaced tables' storage (the caller already handled obsolescence —
  /// partial compactions keep most tables alive).
  void InstallLevel(int level, std::vector<std::shared_ptr<SsTable>> tables);

 private:
  std::vector<std::vector<std::shared_ptr<SsTable>>> levels_;
};

}  // namespace bg3::lsm

#endif  // BG3_LSM_VERSION_H_
