#ifndef BG3_BWTREE_PAGE_H_
#define BG3_BWTREE_PAGE_H_

#include <cstdint>
#include <string>
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

/// A key/value entry of a base page. Keys order by memcmp.
struct Entry {
  std::string key;
  std::string value;
};

enum class DeltaOp : uint8_t {
  kUpsert = 0,
  kDelete = 1,
};

/// One logical modification carried by a delta record.
struct DeltaEntry {
  DeltaOp op = DeltaOp::kUpsert;
  std::string key;
  std::string value;
};

/// In-place views of the two entry kinds: slices into a record buffer that
/// must outlive them. Zero-cache reads parse storage images into these and
/// copy only the entries they return.
struct EntryView {
  Slice key;
  Slice value;
};

struct DeltaEntryView {
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

std::string EncodeBasePage(TreeId tree_id, PageId page_id, Lsn lsn,
                           const std::vector<Entry>& entries);
std::string EncodeDelta(TreeId tree_id, PageId page_id, Lsn lsn,
                        const std::vector<DeltaEntry>& entries);

/// Consumes the header from `input`, leaving the payload.
Status DecodeRecordHeader(Slice* input, RecordHeader* out);

/// The one parser per payload format: validates the whole payload and
/// fills `out` with views into `input`'s bytes. Corruption if malformed.
Status ParseBasePagePayload(Slice input, std::vector<EntryView>* out);
Status ParseDeltaPayload(Slice input, std::vector<DeltaEntryView>* out);

/// Owned-entry decoders, built on the parsers above.
Status DecodeBasePagePayload(Slice input, std::vector<Entry>* out);
Status DecodeDeltaPayload(Slice input, std::vector<DeltaEntry>* out);

// --- merge helpers ---------------------------------------------------------

/// Applies delta chains (oldest chain first within the span, each chain's
/// entries key-sorted or not) onto sorted base entries and returns the new
/// sorted entry set. Deletes remove entries.
std::vector<Entry> ApplyDeltaChain(
    std::vector<Entry> base,
    const std::vector<const std::vector<DeltaEntry>*>& chains_oldest_first);

/// Looks `key` up in a delta entry list (newest entry wins if duplicated).
/// Returns true if the delta decides the outcome: `*deleted` set for
/// tombstones, else `*value` filled.
bool LookupInDelta(const std::vector<DeltaEntry>& delta, const Slice& key,
                   std::string* value, bool* deleted);

/// Binary search in sorted base entries; returns true and fills `*value`.
bool LookupInBase(const std::vector<Entry>& base, const Slice& key,
                  std::string* value);

/// Merges `older` and `newer` delta lists into one key-sorted list where
/// the newest write per key wins (the §3.2.2 delta merge: the merged delta
/// "directly points to the base page", keeping at most one delta per page).
std::vector<DeltaEntry> MergeDeltas(const std::vector<DeltaEntry>& older,
                                    const std::vector<DeltaEntry>& newer);

/// Approximate heap bytes of entry vectors (memory accounting for Fig. 11).
size_t EntryBytes(const std::vector<Entry>& entries);
size_t DeltaBytes(const std::vector<DeltaEntry>& entries);

}  // namespace bg3::bwtree

#endif  // BG3_BWTREE_PAGE_H_
