#ifndef BG3_WAL_RECORD_H_
#define BG3_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bwtree/page.h"
#include "cloud/types.h"
#include "common/slice.h"
#include "common/status.h"

namespace bg3::wal {

/// One entry of the write-ahead log that synchronizes RW and RO nodes
/// (§3.4). Mutations and splits describe memory-state changes (LSNs 30-32
/// in Fig. 7); checkpoints announce that the shared-storage images cover
/// everything up to an LSN (the "LSN 34" record of Fig. 7, letting RO nodes
/// discard older lazy-replay entries).
struct WalRecord {
  enum class Type : uint8_t {
    kTreeInit = 1,    ///< tree_id, page_id: tree created with initial page.
    kMutation = 2,    ///< upsert/delete `entry` applied to page at `lsn`.
    kSplit = 3,       ///< page_id split; keys >= separator -> aux_page_id.
    kCheckpoint = 4,  ///< storage images complete through `lsn`.
  };

  Type type = Type::kMutation;
  bwtree::TreeId tree_id = 0;
  bwtree::PageId page_id = bwtree::kInvalidPage;
  bwtree::PageId aux_page_id = bwtree::kInvalidPage;  ///< kSplit: new page.
  bwtree::Lsn lsn = 0;
  bwtree::DeltaEntry entry;  ///< kMutation payload.
  std::string separator;     ///< kSplit payload.

  /// Simulated time from the RW memory update to this record being readable
  /// in shared storage (group-buffer wait + WAL append latency); filled by
  /// the writer at flush time. RO nodes add their own poll/read costs to
  /// produce the leader-follower latency of Figs. 13/14.
  uint64_t sim_publish_latency_us = 0;

  void EncodeTo(std::string* dst) const;
  /// Exact byte count EncodeTo would append — used to bill OpStats and size
  /// the simulated append without materializing a throwaway encode.
  size_t EncodedSize() const;
  static Status DecodeFrom(Slice* input, WalRecord* out);
};

/// Identity of one appended batch under the pipelined writer. Terms are
/// writer incarnations (process-unique, strictly increasing across
/// restarts); within a term, seq numbers batches 1, 2, 3, ... in seal
/// order. Out-of-order *physical* placement (parallel in-flight appends,
/// late retries) is undone by readers using (term, seq); commit
/// acknowledgment is contiguous-seq order, so `seq` here always names a
/// durable prefix of the term.
struct BatchHeader {
  uint64_t term = 0;
  uint64_t seq = 0;
};

/// A resumable WAL position: the physical pointer bounds the byte scan
/// (TailRecords seeks past it) and (term, seq) bounds redelivery — batches
/// at or below `seq` of `term` that physically land after `ptr` (late
/// retries) are duplicates and get dropped by the reader. Flows through
/// checkpoint manifests into `WalReader::SeekTo`.
struct WalCursor {
  cloud::PagePointer ptr;
  uint64_t term = 0;
  uint64_t seq = 0;

  bool IsNull() const { return ptr.IsNull() && term == 0 && seq == 0; }
};

/// The one WAL batch format: [0x00][term v64][seq v64][crc32 fixed32]
/// followed by the body [count v32] (length-prefixed WalRecord)*; the CRC
/// covers the body only.
std::string EncodeFramedBatch(uint64_t term, uint64_t seq,
                              const std::vector<WalRecord>& records);

/// Decodes a framed batch. Input without the 0x00 frame marker (an unframed
/// body), zero term/seq ids, or a CRC that does not match the body (torn
/// or bit-flipped payloads that slipped past the substrate's record CRC)
/// fail with Corruption.
Status DecodeFramedBatch(Slice input, BatchHeader* header,
                         std::vector<WalRecord>* out);

}  // namespace bg3::wal

#endif  // BG3_WAL_RECORD_H_
