#ifndef BG3_FOREST_OWNER_TABLE_H_
#define BG3_FOREST_OWNER_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"

namespace bg3::bwtree {
class BwTree;
}  // namespace bg3::bwtree

namespace bg3::forest {

/// Owner of an adjacency list: in the Douyin-likes example of §3.2.1, the
/// user id (the graph layer folds vertex id + edge type into this handle).
using OwnerId = uint64_t;

/// One owner's routing record. Records are never moved or freed before
/// their table, so a pointer to one stays valid and readers use it without
/// any table lock.
struct OwnerState {
  /// Set once, when the record is made, before any pointer to it escapes.
  OwnerId owner = 0;
  /// The owner's dedicated tree. Published (with release order) once the
  /// tree holds every entry and never cleared afterwards: readers load it
  /// with acquire order and, when non-null, go straight to the tree
  /// without touching the owner lock — the Bw-tree's shared leaf latches
  /// make that safe. Null while the owner lives in INIT.
  std::atomic<bwtree::BwTree*> published{nullptr};
  /// Upserts minus deletes attributed to the owner, saturating. Written
  /// only under the owner lock; atomic so the INIT-capacity eviction scan
  /// may read it without taking every lock (the winner is re-validated).
  std::atomic<uint32_t> count{0};
  /// Set (under the owner lock) while a split-out moves the owner out of
  /// INIT; writers wait for it to clear without the lock
  /// (std::atomic::wait).
  std::atomic<bool> splitting{false};
};
static_assert(sizeof(OwnerState) <= 24, "owner records stay compact");

/// Serializes the mutations of every owner whose id hashes to it, and a
/// split-out's claim on an owner. Cache-line sized, so writers of owners
/// on neighboring locks do not share a line.
struct alignas(64) OwnerLock {
  OwnerLock() { mu.SetRank(lock_rank::kOwnerLock_mu, "OwnerLock::mu"); }
  Mutex mu;
};

/// The forest's "hash table of owners" (§3.2.1), sized for many small
/// owners: per shard, a flat open-addressing index of 4-byte record
/// numbers over an append-only arena of fixed-size record chunks. Growth
/// rehashes only the index, so a record's address never changes.
///
/// Owner locks are not per owner but one process-wide array indexed by the
/// owner hash and shared by every table, so no table's memory grows with
/// it, and it is large enough that concurrent writers of different owners
/// rarely meet on one lock. No path holds two owner locks.
class OwnerTable {
 public:
  /// Size of the process-wide owner-lock array (kLocks * 64 bytes).
  static constexpr size_t kLocks = 4096;

  explicit OwnerTable(size_t shards);
  OwnerTable(const OwnerTable&) = delete;
  OwnerTable& operator=(const OwnerTable&) = delete;

  /// The owner's record, made (with count 0, no tree) if absent.
  OwnerState* FindOrCreate(OwnerId owner);
  /// The owner's record, or null; never inserts.
  OwnerState* Find(OwnerId owner) const;

  /// The lock serializing `owner`'s mutations; owners may share one.
  static OwnerLock& LockOf(OwnerId owner);
  static size_t LockIndex(OwnerId owner);

  /// Calls `visit` on every record under its shard's lock; `visit` must
  /// take no lock.
  void ForEach(const std::function<void(OwnerState*)>& visit) const;

  size_t size() const;
  /// Heap bytes the table holds: shards, each shard's index and record
  /// chunks (the table object itself is its holder's, and the owner locks
  /// are the process's).
  size_t MemoryBytes() const;

 private:
  /// Records per arena chunk: small, so a shard of a few dozen owners
  /// wastes little of its last chunk.
  static constexpr uint32_t kChunk = 16;

  struct Shard {
    mutable Mutex mu;
    /// Open-addressing index, linear probing: record number + 1, 0 = free.
    /// A power-of-two capacity kept at most 3/4 full.
    std::unique_ptr<uint32_t[]> slots BG3_GUARDED_BY(mu);
    uint32_t capacity BG3_GUARDED_BY(mu) = 0;
    uint32_t size BG3_GUARDED_BY(mu) = 0;  // records in the arena
    std::vector<std::unique_ptr<OwnerState[]>> chunks BG3_GUARDED_BY(mu);

    OwnerState* Record(uint32_t r) const BG3_REQUIRES(mu) {
      return &chunks[r / kChunk][r % kChunk];
    }
    /// The slot holding `owner`, or the free slot it would take.
    uint32_t* Probe(OwnerId owner, uint64_t hash) const BG3_REQUIRES(mu);
    void Grow() BG3_REQUIRES(mu);
  };

  Shard& ShardOf(uint64_t hash) const { return shards_[hash % shard_count_]; }

  const size_t shard_count_;
  const std::unique_ptr<Shard[]> shards_;
};

}  // namespace bg3::forest

#endif  // BG3_FOREST_OWNER_TABLE_H_
