#include "forest/owner_table.h"

#include "common/hash.h"
#include "common/logging.h"

namespace bg3::forest {

// Bits of Mix64(owner): the shard takes it modulo the shard count, the lock
// bits 16 and up, the index start bits 32 and up.

OwnerTable::OwnerTable(size_t shards)
    : shard_count_(shards), shards_(std::make_unique<Shard[]>(shards)) {
  BG3_CHECK_GT(shards, 0u);
}

size_t OwnerTable::LockIndex(OwnerId owner) {
  return (Mix64(owner) >> 16) % kLocks;
}

OwnerLock& OwnerTable::LockOf(OwnerId owner) {
  static OwnerLock locks[kLocks];
  return locks[LockIndex(owner)];
}

uint32_t* OwnerTable::Shard::Probe(OwnerId owner, uint64_t hash) const {
  const uint32_t mask = capacity - 1;
  for (uint32_t i = static_cast<uint32_t>(hash >> 32) & mask;;
       i = (i + 1) & mask) {
    if (slots[i] == 0 || Record(slots[i] - 1)->owner == owner) {
      return &slots[i];
    }
  }
}

void OwnerTable::Shard::Grow() {
  BG3_CHECK_LT(capacity, 1u << 31) << "owner shard full";
  capacity = capacity == 0 ? 8 : capacity * 2;
  slots = std::make_unique<uint32_t[]>(capacity);
  for (uint32_t r = 0; r < size; ++r) {
    const OwnerId owner = Record(r)->owner;
    *Probe(owner, Mix64(owner)) = r + 1;
  }
}

OwnerState* OwnerTable::FindOrCreate(OwnerId owner) {
  const uint64_t hash = Mix64(owner);
  Shard& shard = ShardOf(hash);
  MutexLock lock(&shard.mu);
  if (shard.capacity != 0) {
    const uint32_t slot = *shard.Probe(owner, hash);
    if (slot != 0) return shard.Record(slot - 1);
  }
  if ((shard.size + 1) * uint64_t{4} > shard.capacity * uint64_t{3}) {
    shard.Grow();
  }
  if (shard.size % kChunk == 0) {
    shard.chunks.push_back(std::make_unique<OwnerState[]>(kChunk));
  }
  OwnerState* state = shard.Record(shard.size);
  state->owner = owner;
  uint32_t* slot = shard.Probe(owner, hash);
  *slot = ++shard.size;
  return state;
}

OwnerState* OwnerTable::Find(OwnerId owner) const {
  const uint64_t hash = Mix64(owner);
  const Shard& shard = ShardOf(hash);
  MutexLock lock(&shard.mu);
  if (shard.capacity == 0) return nullptr;
  const uint32_t slot = *shard.Probe(owner, hash);
  return slot == 0 ? nullptr : shard.Record(slot - 1);
}

void OwnerTable::ForEach(
    const std::function<void(OwnerState*)>& visit) const {
  for (size_t i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    MutexLock lock(&shard.mu);
    for (uint32_t r = 0; r < shard.size; ++r) visit(shard.Record(r));
  }
}

size_t OwnerTable::size() const {
  size_t n = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    MutexLock lock(&shards_[i].mu);
    n += shards_[i].size;
  }
  return n;
}

size_t OwnerTable::MemoryBytes() const {
  size_t bytes = shard_count_ * sizeof(Shard);
  for (size_t i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    MutexLock lock(&shard.mu);
    bytes += shard.capacity * sizeof(uint32_t) +
             shard.chunks.capacity() * sizeof(shard.chunks[0]) +
             shard.chunks.size() * kChunk * sizeof(OwnerState);
  }
  return bytes;
}

}  // namespace bg3::forest
