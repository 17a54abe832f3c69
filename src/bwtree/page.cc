#include "bwtree/page.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/coding.h"
#include "common/logging.h"

namespace bg3::bwtree {

namespace {

void EncodeHeader(std::string* dst, RecordKind kind, TreeId tree_id,
                  PageId page_id, Lsn lsn) {
  dst->push_back(static_cast<char>(kind));
  PutFixed64(dst, tree_id);
  PutFixed64(dst, page_id);
  PutFixed64(dst, lsn);
}

char* EncodeVarint32(char* dst, uint32_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

/// Heap bytes a string owns: none while it fits its inline buffer.
size_t HeapBytes(const std::string& s) {
  static const size_t kInline = std::string().capacity();
  return s.capacity() > kInline ? s.capacity() + 1 : 0;
}

}  // namespace

Status DecodeRecordHeader(Slice* input, RecordHeader* out) {
  if (input->size() < kRecordHeaderBytes) {
    return Status::Corruption("short header");
  }
  const char kind = (*input)[0];
  if (kind != static_cast<char>(RecordKind::kBasePage) &&
      kind != static_cast<char>(RecordKind::kDelta)) {
    return Status::Corruption("bad record kind");
  }
  out->kind = static_cast<RecordKind>(kind);
  input->remove_prefix(1);
  GetFixed64(input, &out->tree_id);
  GetFixed64(input, &out->page_id);
  GetFixed64(input, &out->lsn);
  return Status::OK();
}

// --- EntryRun ----------------------------------------------------------------

Status EntryRun::Parse(RecordKind kind, std::string image, EntryRun* out) {
  Slice in(image);
  RecordHeader h;
  BG3_RETURN_IF_ERROR(DecodeRecordHeader(&in, &h));
  if (h.kind != kind) return Status::Corruption("unexpected record kind");
  const bool delta = kind == RecordKind::kDelta;
  uint32_t count;
  if (!GetVarint32(&in, &count)) {
    return Status::Corruption(delta ? "delta count" : "base count");
  }
  EntryRun run(kind);
  run.body_ = static_cast<uint32_t>(image.size() - in.size());
  // Each entry takes at least two length bytes (three with a delta's op),
  // so an overstated count cannot make this reserve more than the payload
  // could hold.
  run.offsets_.reserve(std::min<size_t>(count, in.size() / (delta ? 3 : 2)));
  for (uint32_t i = 0; i < count; ++i) {
    run.offsets_.push_back(static_cast<uint32_t>(image.size() - in.size()));
    if (delta) {
      if (in.empty()) return Status::Corruption("delta op");
      const auto op = static_cast<DeltaOp>(in[0]);
      if (op != DeltaOp::kUpsert && op != DeltaOp::kDelete) {
        return Status::Corruption("bad delta op");
      }
      in.remove_prefix(1);
    }
    Slice k, v;
    if (!GetLengthPrefixedSlice(&in, &k) || !GetLengthPrefixedSlice(&in, &v)) {
      return Status::Corruption(delta ? "delta entry" : "base entry");
    }
  }
  // Entries are appended at the end of the bytes, so nothing may trail them.
  if (!in.empty()) return Status::Corruption("bytes after the last entry");
  run.bytes_ = std::move(image);
  BG3_DCHECK(run.KeysStrictlyIncreasing()) << "unsorted page image";
  *out = std::move(run);
  return Status::OK();
}

size_t EntryRun::LowerBound(const Slice& key) const {
  size_t lo = 0;
  size_t hi = key.empty() ? 0 : size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (At(mid).key.compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t EntryRun::Find(const Slice& key) const {
  const size_t i = LowerBound(key);
  return i < size() && At(i).key == key ? i : size();
}

bool EntryRun::KeysStrictlyIncreasing() const {
  for (size_t i = 1; i < size(); ++i) {
    if (At(i - 1).key.compare(At(i).key) >= 0) return false;
  }
  return true;
}

std::string EntryRun::Image(TreeId tree_id, PageId page_id, Lsn lsn) const {
  std::string out;
  out.reserve(kRecordHeaderBytes + 5 + EncodedBytes());
  EncodeHeader(&out, kind_, tree_id, page_id, lsn);
  PutVarint32(&out, static_cast<uint32_t>(size()));
  out.append(bytes_, body_, std::string::npos);
  return out;
}

size_t EntryRun::MemoryBytes() const {
  return HeapBytes(bytes_) + offsets_.capacity() * sizeof(uint32_t);
}

size_t EntryRun::EncodedSize(const EntryView& e) const {
  return (kind_ == RecordKind::kDelta ? 1 : 0) + VarintLength(e.key.size()) +
         e.key.size() + VarintLength(e.value.size()) + e.value.size();
}

void EntryRun::EncodeAt(const EntryView& e, char* dst) const {
  if (kind_ == RecordKind::kDelta) *dst++ = static_cast<char>(e.op);
  dst = EncodeVarint32(dst, static_cast<uint32_t>(e.key.size()));
  std::memcpy(dst, e.key.data(), e.key.size());
  dst = EncodeVarint32(dst + e.key.size(),
                       static_cast<uint32_t>(e.value.size()));
  std::memcpy(dst, e.value.data(), e.value.size());
}

void EntryRun::Append(const EntryView& e) {
  BG3_DCHECK(kind_ == RecordKind::kDelta || e.op == DeltaOp::kUpsert);
  BG3_DCHECK(empty() || At(size() - 1).key.compare(e.key) < 0)
      << "append out of key order";
  const size_t pos = bytes_.size();
  bytes_.resize(pos + EncodedSize(e));
  EncodeAt(e, bytes_.data() + pos);
  offsets_.push_back(static_cast<uint32_t>(pos));
}

void EntryRun::Upsert(const EntryView& e) {
  BG3_DCHECK(kind_ == RecordKind::kDelta || e.op == DeltaOp::kUpsert);
  const size_t i = LowerBound(e.key);
  const bool replace = i < size() && At(i).key == e.key;
  const size_t pos = i < size() ? offsets_[i] : bytes_.size();
  const size_t old =
      !replace ? 0 : (i + 1 < size() ? offsets_[i + 1] : bytes_.size()) - pos;
  const size_t need = EncodedSize(e);
  bytes_.replace(pos, old, need, '\0');
  EncodeAt(e, bytes_.data() + pos);
  if (!replace) {
    offsets_.insert(offsets_.begin() + i, static_cast<uint32_t>(pos));
  }
  // Entries after the written one moved by the size difference (mod 2^32).
  const auto shift = static_cast<uint32_t>(need - old);
  for (size_t j = i + 1; j < offsets_.size(); ++j) offsets_[j] += shift;
}

void EntryRun::Erase(size_t i) {
  const size_t pos = offsets_[i];
  const size_t len = (i + 1 < size() ? offsets_[i + 1] : bytes_.size()) - pos;
  bytes_.erase(pos, len);
  offsets_.erase(offsets_.begin() + i);
  for (size_t j = i; j < offsets_.size(); ++j) {
    offsets_[j] -= static_cast<uint32_t>(len);
  }
}

void EntryRun::SplitAt(size_t i, EntryRun* upper) {
  const size_t cut = i < size() ? offsets_[i] : bytes_.size();
  EntryRun hi(kind_);
  hi.bytes_.assign(bytes_, cut, std::string::npos);
  hi.offsets_.reserve(size() - i);
  for (size_t j = i; j < size(); ++j) {
    hi.offsets_.push_back(offsets_[j] - static_cast<uint32_t>(cut));
  }
  bytes_.resize(cut);
  bytes_.shrink_to_fit();
  offsets_.resize(i);
  offsets_.shrink_to_fit();
  *upper = std::move(hi);
}

void EntryRun::Reserve(size_t bytes, size_t entries) {
  bytes_.reserve(bytes_.size() + bytes);
  offsets_.reserve(offsets_.size() + entries);
}

// --- merge -------------------------------------------------------------------

void MergeRuns(const EntryRun& base, std::span<const EntryRun> deltas,
               const Slice& start, const Slice& end, size_t* remaining,
               const EntryVisitor& visit) {
  const bool bounded = !end.empty();
  // Read-optimized pages carry at most one delta, and it is the overlay. A
  // traditional chain is folded first, oldest delta first, so the newest
  // entry per key wins.
  EntryRun folded(RecordKind::kDelta);
  const EntryRun& overlay = deltas.size() == 1 ? deltas.front() : folded;
  for (size_t d = 0; deltas.size() > 1 && d < deltas.size(); ++d) {
    for (size_t i = deltas[d].LowerBound(start); i < deltas[d].size(); ++i) {
      const EntryView e = deltas[d].At(i);
      if (bounded && e.key.compare(end) >= 0) break;
      folded.Upsert(e);
    }
  }
  // Merge-iterate both sorted runs from `start`; an overlay entry shadows
  // the base entry with its key, and a delete hides it.
  size_t bi = base.LowerBound(start);
  size_t oi = overlay.LowerBound(start);
  EntryView b;
  EntryView o;
  auto load = [&](const EntryRun& run, size_t* i, EntryView* e) {
    if (*i < run.size()) {
      *e = run.At(*i);
      if (!bounded || e->key.compare(end) < 0) return true;
      *i = run.size();
    }
    return false;
  };
  bool b_ok = load(base, &bi, &b);
  bool o_ok = load(overlay, &oi, &o);
  while (*remaining > 0 && (b_ok || o_ok)) {
    const int cmp = !b_ok ? -1 : !o_ok ? 1 : o.key.compare(b.key);
    const EntryView e = cmp <= 0 ? o : b;
    if (cmp >= 0) {
      ++bi;
      b_ok = load(base, &bi, &b);
    }
    if (cmp <= 0) {
      ++oi;
      o_ok = load(overlay, &oi, &o);
      if (e.op != DeltaOp::kUpsert) continue;
    }
    --*remaining;
    if (!visit(e.key, e.value)) *remaining = 0;
  }
}

EntryRun MergeToBase(const EntryRun& base, std::span<const EntryRun> deltas,
                     const Slice& start, const Slice& end) {
  EntryRun out(RecordKind::kBasePage);
  size_t bytes = base.EncodedBytes();
  size_t entries = base.size();
  for (const EntryRun& d : deltas) {
    bytes += d.EncodedBytes();
    entries += d.size();
  }
  out.Reserve(bytes, entries);
  size_t remaining = std::numeric_limits<size_t>::max();
  MergeRuns(base, deltas, start, end, &remaining,
            [&out](const Slice& key, const Slice& value) {
              out.Append(EntryView{DeltaOp::kUpsert, key, value});
              return true;
            });
  return out;
}

}  // namespace bg3::bwtree
