#include "lsm/version.h"

namespace bg3::lsm {

VersionSet::VersionSet(int max_levels) : levels_(max_levels) {}

void VersionSet::AddToL0(std::shared_ptr<SsTable> table) {
  levels_[0].insert(levels_[0].begin(), std::move(table));
}

uint64_t VersionSet::LevelBytes(int n) const {
  uint64_t sum = 0;
  for (const auto& t : levels_[n]) sum += t->data_bytes();
  return sum;
}

uint64_t VersionSet::TotalBytes() const {
  uint64_t sum = 0;
  for (int i = 0; i < max_levels(); ++i) sum += LevelBytes(i);
  return sum;
}

void VersionSet::ReplaceLevel(int level,
                              std::vector<std::shared_ptr<SsTable>> tables) {
  for (const auto& t : levels_[level]) t->MarkObsolete();
  levels_[level] = std::move(tables);
}

void VersionSet::InstallLevel(int level,
                              std::vector<std::shared_ptr<SsTable>> tables) {
  levels_[level] = std::move(tables);
}

}  // namespace bg3::lsm
