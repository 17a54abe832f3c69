#ifndef BG3_CLOUD_STREAM_H_
#define BG3_CLOUD_STREAM_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/extent.h"
#include "cloud/types.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace bg3::cloud {

/// Snapshot of one extent's reclamation-relevant state, returned to GC
/// policies. Timestamps are maintained by the gc module, not here.
struct ExtentStats {
  ExtentId id = kInvalidExtent;
  bool sealed = false;
  uint32_t total_records = 0;
  uint32_t invalid_records = 0;
  uint64_t used_bytes = 0;
  uint64_t dead_bytes = 0;

  double FragmentationRate() const {
    return total_records == 0
               ? 0.0
               : static_cast<double>(invalid_records) / total_records;
  }
};

/// An ordered, append-only sequence of extents. BG3 keeps separate streams
/// for base pages, delta pages and the WAL (§3.3, following ArkDB) so each
/// can be reclaimed on its own schedule.
class Stream {
 public:
  Stream(StreamId id, std::string name, size_t extent_capacity,
         std::atomic<ExtentId>* extent_id_allocator);

  /// All public methods are individually thread-safe. Each stream has one
  /// reader/writer lock, so appends to different streams never contend.
  /// Reads, log tailing and the getters take it shared and run in parallel
  /// (Extent::Read mutates nothing, so the checksum check and the copy run
  /// concurrently); appends, fencing, invalidation and frees take it
  /// exclusively.

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  StreamId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Appends one record, sealing the active extent and opening a new one if
  /// needed. A record larger than the extent capacity gets a dedicated
  /// oversized extent.
  PagePointer Append(const Slice& record);

  /// Term-fenced append (DESIGN.md §5.10): the record is placed only if
  /// `term` is at least the stream's fence term, atomically with the fence
  /// check — a deposed leader's batch can never land after a newer leader's
  /// fence is raised. `term == 0` means unfenced legacy callers, which are
  /// rejected too once a fence is raised (a fenced stream accepts only
  /// writers that present a current term).
  Result<PagePointer> AppendFenced(const Slice& record, uint64_t term);

  /// Raises the fence to `min_term` (monotone; lower values are ignored).
  /// After this returns, every append carrying a term < min_term fails with
  /// Status::Fenced.
  void Fence(uint64_t min_term);

  /// Current fence term (0 = never fenced).
  uint64_t fence_term() const;

  Status Read(const PagePointer& ptr, std::string* out) const;

  /// See Extent::MarkInvalid; returns the invalidated length (0 if unknown).
  uint32_t MarkInvalid(const PagePointer& ptr);

  /// Failure injection passthrough (see Extent::CorruptRecordForTesting).
  bool CorruptRecordForTesting(const PagePointer& ptr, uint32_t byte_index);

  /// Frees a fully processed extent and releases its space.
  Status FreeExtent(ExtentId id);

  /// Sealed-extent stats oldest-first (the FIFO order traditional Bw-tree GC
  /// walks, §3.3).
  std::vector<ExtentStats> SealedExtentStats() const;

  /// Copies of all valid records in `extent` (GC relocation input).
  Result<std::vector<std::pair<PagePointer, std::string>>> ReadValidRecords(
      ExtentId extent) const;

  /// Log tailing: returns up to `max_records` records appended strictly
  /// after `cursor` (pass a null pointer value — default PagePointer — to
  /// read from the beginning). Records come back in append order.
  std::vector<std::pair<PagePointer, std::string>> TailRecords(
      const PagePointer& cursor, size_t max_records) const;

  uint64_t total_bytes() const;
  uint64_t dead_bytes() const;
  uint64_t live_bytes() const;
  size_t extent_count() const;
  size_t extent_capacity() const { return extent_capacity_; }

 private:
  void OpenNewExtent(size_t capacity) BG3_REQUIRES(mu_);
  PagePointer AppendLocked(const Slice& record) BG3_REQUIRES(mu_);
  Extent* FindExtentLocked(ExtentId id) BG3_REQUIRES(mu_);
  const Extent* FindExtentLocked(ExtentId id) const BG3_REQUIRES_SHARED(mu_);

  const StreamId id_;
  const std::string name_;
  const size_t extent_capacity_;
  std::atomic<ExtentId>* extent_id_allocator_;

  mutable SharedMutex mu_;
  // Oldest-first; the last element is the active (unsealed) extent.
  std::map<ExtentId, std::unique_ptr<Extent>> extents_ BG3_GUARDED_BY(mu_);
  Extent* active_ BG3_GUARDED_BY(mu_) = nullptr;
  uint64_t total_bytes_ BG3_GUARDED_BY(mu_) = 0;
  uint64_t dead_bytes_ BG3_GUARDED_BY(mu_) = 0;
  // Minimum term an AppendFenced caller must present (0 = no fence yet).
  // Guarded by mu_ so the check is atomic with record placement.
  uint64_t fence_term_ BG3_GUARDED_BY(mu_) = 0;
};

}  // namespace bg3::cloud

#endif  // BG3_CLOUD_STREAM_H_
