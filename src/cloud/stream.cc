#include "cloud/stream.h"

#include "common/logging.h"

namespace bg3::cloud {

Stream::Stream(StreamId id, std::string name, size_t extent_capacity,
               std::atomic<ExtentId>* extent_id_allocator)
    : id_(id),
      name_(std::move(name)),
      extent_capacity_(extent_capacity),
      extent_id_allocator_(extent_id_allocator) {
  mu_.SetRank(lock_rank::kStream_mu, "Stream::mu_");
  // Uncontended (the stream is not yet published), but the lock makes the
  // guarded-member writes visible to the thread-safety analysis.
  WriterMutexLock lock(&mu_);
  OpenNewExtent(extent_capacity_);
}

void Stream::OpenNewExtent(size_t capacity) {
  const ExtentId eid =
      extent_id_allocator_->fetch_add(1, std::memory_order_relaxed);
  auto extent = std::make_unique<Extent>(eid, capacity);
  active_ = extent.get();
  extents_.emplace(eid, std::move(extent));
}

PagePointer Stream::AppendLocked(const Slice& record) {
  if (record.size() > extent_capacity_) {
    // Oversized record: seal the current extent and give the record its own.
    active_->Seal();
    OpenNewExtent(record.size());
  } else if (!active_->HasRoom(record.size())) {
    active_->Seal();
    OpenNewExtent(extent_capacity_);
  }
  const uint32_t offset = active_->Append(record);
  total_bytes_ += record.size();
  return PagePointer{id_, active_->id(), offset,
                     static_cast<uint32_t>(record.size())};
}

PagePointer Stream::Append(const Slice& record) {
  WriterMutexLock lock(&mu_);
  return AppendLocked(record);
}

Result<PagePointer> Stream::AppendFenced(const Slice& record, uint64_t term) {
  WriterMutexLock lock(&mu_);
  if (term < fence_term_) {
    return Status::Fenced("stream " + name_ + " fenced at term " +
                          std::to_string(fence_term_) + ", append term " +
                          std::to_string(term));
  }
  return AppendLocked(record);
}

void Stream::Fence(uint64_t min_term) {
  WriterMutexLock lock(&mu_);
  if (min_term > fence_term_) fence_term_ = min_term;
}

uint64_t Stream::fence_term() const {
  ReaderMutexLock lock(&mu_);
  return fence_term_;
}

Status Stream::Read(const PagePointer& ptr, std::string* out) const {
  ReaderMutexLock lock(&mu_);
  const Extent* e = FindExtentLocked(ptr.extent_id);
  if (e == nullptr) {
    return Status::NotFound("extent " + std::to_string(ptr.extent_id));
  }
  return e->Read(ptr.offset, ptr.length, out);
}

uint32_t Stream::MarkInvalid(const PagePointer& ptr) {
  WriterMutexLock lock(&mu_);
  Extent* e = FindExtentLocked(ptr.extent_id);
  if (e == nullptr) return 0;
  const uint32_t len = e->MarkInvalid(ptr.offset);
  dead_bytes_ += len;
  BG3_DCHECK_LE(dead_bytes_, total_bytes_);
  return len;
}

bool Stream::CorruptRecordForTesting(const PagePointer& ptr,
                                     uint32_t byte_index) {
  WriterMutexLock lock(&mu_);
  Extent* e = FindExtentLocked(ptr.extent_id);
  return e != nullptr && e->CorruptRecordForTesting(ptr.offset, byte_index);
}

Status Stream::FreeExtent(ExtentId id) {
  WriterMutexLock lock(&mu_);
  auto it = extents_.find(id);
  if (it == extents_.end()) {
    return Status::NotFound("extent " + std::to_string(id));
  }
  Extent* e = it->second.get();
  BG3_CHECK(e != active_) << "cannot free the active extent";
  // Stream-level byte accounting must never underflow: an extent's bytes
  // were added to the totals as they were appended/invalidated.
  BG3_DCHECK_GE(total_bytes_, e->used_bytes());
  BG3_DCHECK_GE(dead_bytes_, e->dead_bytes());
  BG3_DCHECK_LE(e->dead_bytes(), e->used_bytes());
  total_bytes_ -= e->used_bytes();
  dead_bytes_ -= e->dead_bytes();
  extents_.erase(it);
  BG3_DCHECK_LE(dead_bytes_, total_bytes_);
  return Status::OK();
}

std::vector<ExtentStats> Stream::SealedExtentStats() const {
  ReaderMutexLock lock(&mu_);
  std::vector<ExtentStats> out;
  out.reserve(extents_.size());
  for (const auto& [eid, e] : extents_) {
    if (!e->sealed() || e->freed()) continue;
    ExtentStats s;
    s.id = eid;
    s.sealed = true;
    s.total_records = e->total_records();
    s.invalid_records = e->invalid_records();
    s.used_bytes = e->used_bytes();
    s.dead_bytes = e->dead_bytes();
    out.push_back(s);
  }
  return out;
}

Result<std::vector<std::pair<PagePointer, std::string>>>
Stream::ReadValidRecords(ExtentId extent) const {
  ReaderMutexLock lock(&mu_);
  const Extent* e = FindExtentLocked(extent);
  if (e == nullptr) return Status::NotFound("extent");
  std::vector<std::pair<PagePointer, std::string>> out;
  for (const auto& [offset, length] : e->ValidRecords()) {
    std::string data;
    BG3_RETURN_IF_ERROR(e->Read(offset, length, &data));
    out.emplace_back(PagePointer{id_, extent, offset, length},
                     std::move(data));
  }
  return out;
}

std::vector<std::pair<PagePointer, std::string>> Stream::TailRecords(
    const PagePointer& cursor, size_t max_records) const {
  ReaderMutexLock lock(&mu_);
  std::vector<std::pair<PagePointer, std::string>> out;
  const bool from_start = cursor.IsNull();
  auto it = extents_.begin();
  if (!from_start) {
    it = extents_.find(cursor.extent_id);
    if (it == extents_.end()) {
      // Cursor extent gone (truncated): resume at the next extent.
      it = extents_.upper_bound(cursor.extent_id);
    }
  }
  for (; it != extents_.end() && out.size() < max_records; ++it) {
    const Extent* e = it->second.get();
    if (e->freed()) continue;
    const int64_t after = (!from_start && e->id() == cursor.extent_id)
                              ? static_cast<int64_t>(cursor.offset)
                              : -1;
    for (const auto& [offset, length] :
         e->RecordsAfter(after, max_records - out.size())) {
      std::string data;
      if (!e->Read(offset, length, &data).ok()) continue;
      out.emplace_back(PagePointer{id_, e->id(), offset, length},
                       std::move(data));
    }
  }
  return out;
}

uint64_t Stream::total_bytes() const {
  ReaderMutexLock lock(&mu_);
  return total_bytes_;
}

uint64_t Stream::dead_bytes() const {
  ReaderMutexLock lock(&mu_);
  return dead_bytes_;
}

uint64_t Stream::live_bytes() const {
  ReaderMutexLock lock(&mu_);
  return total_bytes_ - dead_bytes_;
}

size_t Stream::extent_count() const {
  ReaderMutexLock lock(&mu_);
  return extents_.size();
}

Extent* Stream::FindExtentLocked(ExtentId id) {
  auto it = extents_.find(id);
  return it == extents_.end() ? nullptr : it->second.get();
}

const Extent* Stream::FindExtentLocked(ExtentId id) const {
  auto it = extents_.find(id);
  return it == extents_.end() ? nullptr : it->second.get();
}

}  // namespace bg3::cloud
