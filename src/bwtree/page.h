#ifndef BG3_BWTREE_PAGE_H_
#define BG3_BWTREE_PAGE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cloud/types.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace bg3::bwtree {

using PageId = uint64_t;
using TreeId = uint64_t;
using Lsn = uint64_t;

inline constexpr PageId kInvalidPage = ~0ull;

/// Kind tag carried by every record flushed to the cloud store. Records are
/// self-describing so that space reclamation can relocate a record by
/// parsing its header and asking the owning tree to re-install it.
enum class RecordKind : uint8_t {
  kBasePage = 'B',
  kDelta = 'D',
};

/// A key/value entry, owned: what BwTree::Scan returns. Keys order by
/// memcmp.
struct Entry {
  std::string key;
  std::string value;
};

enum class DeltaOp : uint8_t {
  kUpsert = 0,
  kDelete = 1,
};

/// One logical modification, owning its bytes: the payload of a WAL
/// mutation record.
struct DeltaEntry {
  DeltaOp op = DeltaOp::kUpsert;
  std::string key;
  std::string value;
};

/// One entry of an EntryRun, as views into the run's bytes, or a write
/// handed to TreeListener::OnMutation. Base-page entries read as upserts.
struct EntryView {
  DeltaOp op = DeltaOp::kUpsert;
  Slice key;
  Slice value;
};

struct RecordHeader {
  RecordKind kind = RecordKind::kBasePage;
  TreeId tree_id = 0;
  PageId page_id = kInvalidPage;
  Lsn lsn = 0;
};

// --- serialization ---------------------------------------------------------
// Layout: [kind u8][tree_id f64][page_id f64][lsn f64][payload]
// Base payload:  [count v32] ([klen-prefixed key][vlen-prefixed value])*
// Delta payload: [count v32] ([op u8][key][value])*
// EntryRun::Image is the one encoder.

inline constexpr size_t kRecordHeaderBytes = 1 + 3 * 8;

/// Consumes the header from `input`, leaving the payload.
Status DecodeRecordHeader(Slice* input, RecordHeader* out);

namespace internal {
/// Varint32 decode without bounds checks, for bytes a run already
/// validated.
inline const char* DecodeLength(const char* p, uint32_t* out) {
  uint32_t v = 0;
  for (int shift = 0;; shift += 7) {
    const uint32_t b = static_cast<unsigned char>(*p++);
    v |= (b & 0x7f) << shift;
    if (b < 0x80) break;
  }
  *out = v;
  return p;
}
}  // namespace internal

/// A key-sorted run of page entries held in its storage format: the
/// entries exactly as a base (kind kBasePage) or delta (kind kDelta)
/// payload lays them out after its count, plus one offset per entry into
/// them, built whenever the bytes are. A cached
/// leaf's base and deltas are runs, and so are the images a zero-cache
/// read or an RO replay fetches, so one merge (MergeRuns) serves all of
/// them. Keys are strictly increasing. Views from At() die at the run's
/// next mutation.
class EntryRun {
 public:
  explicit EntryRun(RecordKind kind = RecordKind::kBasePage) : kind_(kind) {}

  /// Takes a whole record image of `kind` and parses its entries in place.
  /// Corruption if the image is malformed or of another kind.
  static Status Parse(RecordKind kind, std::string image, EntryRun* out);

  size_t size() const { return offsets_.size(); }
  bool empty() const { return offsets_.empty(); }
  /// Bytes of the encoded entries.
  size_t EncodedBytes() const { return bytes_.size() - body_; }

  EntryView At(size_t i) const {
    const char* p = bytes_.data() + offsets_[i];
    EntryView e;
    if (kind_ == RecordKind::kDelta) e.op = static_cast<DeltaOp>(*p++);
    uint32_t n;
    p = internal::DecodeLength(p, &n);
    e.key = Slice(p, n);
    p = internal::DecodeLength(p + n, &n);
    e.value = Slice(p, n);
    return e;
  }
  /// Index of the first entry whose key is >= `key`.
  size_t LowerBound(const Slice& key) const;
  /// Index of the entry with `key`, or size() if there is none.
  size_t Find(const Slice& key) const;
  /// The run's invariant, for debug checks.
  bool KeysStrictlyIncreasing() const;

  /// The record image of this run: header, entry count, entries.
  std::string Image(TreeId tree_id, PageId page_id, Lsn lsn) const;
  /// Heap bytes held: the buffer's and the offset array's capacity.
  size_t MemoryBytes() const;

  /// Appends an entry whose key sorts after every key in the run. A base
  /// run takes upserts only.
  void Append(const EntryView& e);
  /// Inserts `e`, or replaces the entry with its key.
  void Upsert(const EntryView& e);
  /// Removes entry `i`.
  void Erase(size_t i);
  /// Moves entries [i, size()) into `*upper`, a fresh run of this kind, and
  /// releases this run's spare capacity.
  void SplitAt(size_t i, EntryRun* upper);
  /// Reserves room for `entries` more entries of `bytes` bytes in all.
  void Reserve(size_t bytes, size_t entries);
  /// Drops every entry and frees the buffers.
  void Clear() {
    EntryRun empty(kind_);
    std::swap(*this, empty);  // a move assignment would keep the capacity
  }

 private:
  /// Bytes `e` takes in this run's format.
  size_t EncodedSize(const EntryView& e) const;
  /// Writes `e` at `dst`, which has EncodedSize(e) bytes.
  void EncodeAt(const EntryView& e, char* dst) const;

  RecordKind kind_;
  /// The entries from `body_` on; a parsed image keeps its header and
  /// count in front of them.
  std::string bytes_;
  uint32_t body_ = 0;
  std::vector<uint32_t> offsets_;  ///< entry starts in `bytes_`.
};

/// Receives one entry of a merge or scan; returns false to stop it.
using EntryVisitor =
    std::function<bool(const Slice& key, const Slice& value)>;

/// The one merge of a page's content. Hands each live entry of `base`
/// overlaid by `deltas` (oldest first: a newer delta's entry shadows older
/// ones and the base's, and a delete hides its key) whose key lies in
/// [start, end) to `visit`, in key order, as views into the runs; an empty
/// `end` is unbounded. Delivers at most `*remaining` entries, counts each
/// delivery down from it, and zeroes it when `visit` returns false. Costs
/// O(log page + delivered) and copies nothing when there is at most one
/// delta; a longer chain is first folded over [start, end) unless it
/// holds `start` itself or nothing in the range, so a point read
/// ([key, key + '\0')) never folds.
void MergeRuns(const EntryRun& base, std::span<const EntryRun> deltas,
               const Slice& start, const Slice& end, size_t* remaining,
               const EntryVisitor& visit);

/// MergeRuns over [start, end), by default the whole key space, into a
/// fresh base run.
EntryRun MergeToBase(const EntryRun& base, std::span<const EntryRun> deltas,
                     const Slice& start = Slice(), const Slice& end = Slice());

}  // namespace bg3::bwtree

#endif  // BG3_BWTREE_PAGE_H_
