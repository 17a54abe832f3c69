#ifndef BG3_WAL_READER_H_
#define BG3_WAL_READER_H_

#include <map>
#include <vector>

#include "cloud/cloud_store.h"
#include "wal/record.h"

namespace bg3::wal {

/// Tails the WAL stream of the shared store (step (3) in Fig. 7: the WAL
/// "is instantly read into the RO node's memory"). Each RO node owns one
/// reader; not thread safe (an RO node polls from one thread).
///
/// The pipelined writer may land batches physically out of log order
/// (parallel in-flight appends; a late retry lands after its successors).
/// The reader restores log order from the (term, seq) batch frames: a
/// batch arriving ahead of a seq gap is held until the gap fills, batches
/// at or below the delivered seq (redelivered duplicates — a successful
/// append whose acknowledgment the writer lost, or replay past a
/// conservative cursor) are dropped, and a term change (writer restart)
/// resets the expected seq to 1 and abandons holds from the dead term
/// (those batches were never acknowledged). An unframed batch is
/// Corruption.
class WalReader {
 public:
  WalReader(cloud::CloudStore* store, cloud::StreamId stream)
      : store_(store), stream_(stream) {}

  /// Decodes all batches appended since the previous poll, in log order.
  Result<std::vector<WalRecord>> Poll(size_t max_batches = 1024);

  /// Suffix-bounded entry point for checkpoint recovery: positions the
  /// reader so the next Poll() returns only batches appended strictly after
  /// `cursor.ptr`. The store seeks straight to the cursor's extent, so none
  /// of the prefix is read (or re-read) — replay cost is proportional to
  /// the WAL suffix, not its total length. Mutation records with
  /// lsn <= `lsn_floor` that a suffix batch may still carry are dropped at
  /// decode time (the checkpoint guarantees published page images cover
  /// them); structural records (tree-init, split, checkpoint) always pass
  /// through — their replay is idempotent.
  ///
  /// The seek is cursor-exact: (cursor.term, cursor.seq) is expected to be
  /// the last delivered batch. Batches of that term at or below the seq
  /// (late-landing duplicates of already acknowledged appends) are dropped;
  /// higher terms restart at seq 1. A null cursor means "the stream's true
  /// beginning": the first term is expected to open at seq 1 even if a
  /// later batch lands physically first (the strict mode an out-of-order
  /// async writer needs).
  void SeekTo(const WalCursor& cursor, bwtree::Lsn lsn_floor = 0) {
    cursor_ = cursor.ptr;
    raw_cursor_ = cursor.ptr;
    lsn_floor_ = lsn_floor;
    expected_term_ = cursor.term;
    delivered_seq_ = cursor.seq;
    anchor_on_first_ = false;
    held_.clear();
  }

  /// Epoch-boundary notification (DESIGN.md §5.10): a promotion published
  /// `term`, so every batch of an older term that has not been delivered is
  /// now permanently stale — its writer was fenced before the batch could
  /// commit. Drops held batches from older terms and raises the expected
  /// term so future stale-term arrivals are deduped on sight instead of
  /// parking in the seq-gap map forever (organic term advance only happens
  /// when a newer-term batch is *seen*, which may be long after the stale
  /// holds arrived). Idempotent; lower terms are ignored.
  void AdvanceTerm(uint64_t term) {
    if (term <= expected_term_) return;
    batches_deduped_ += held_.size();
    held_.clear();
    expected_term_ = term;
    delivered_seq_ = 0;
    anchor_on_first_ = false;
    // With no gap outstanding the physical tail is once again safe.
    cursor_ = raw_cursor_;
  }

  uint64_t batches_consumed() const { return batches_consumed_; }

  /// Payload bytes of all batches consumed so far — with SeekTo, exactly
  /// the replayed WAL suffix (compare against the stream's total bytes).
  uint64_t bytes_consumed() const { return bytes_consumed_; }

  /// Mutation records dropped because they were at or below the seek floor.
  uint64_t records_filtered() const { return records_filtered_; }

  /// Duplicate batches dropped by (term, seq) dedupe.
  uint64_t batches_deduped() const { return batches_deduped_; }

  /// Batches currently held back waiting for a seq gap to fill.
  size_t batches_held() const { return held_.size(); }

  /// Position of the last batch consumed with no reordering outstanding
  /// (null before the first poll). Everything at or before this pointer may
  /// be truncated for this reader: while a seq gap is open the cursor stays
  /// put, so held batches are re-read (and deduped) after a restart rather
  /// than lost.
  const cloud::PagePointer& cursor() const { return cursor_; }

  /// Cursor plus the (term, seq) identity of the newest delivered batch —
  /// the resumable form for manifests and follower handoff.
  WalCursor Cursor() const {
    return WalCursor{cursor_, expected_term_, delivered_seq_};
  }

 private:
  /// Applies the lsn floor and appends `batch` to `out`.
  void Deliver(std::vector<WalRecord>&& batch, std::vector<WalRecord>* out);

  cloud::CloudStore* const store_;
  const cloud::StreamId stream_;
  cloud::PagePointer cursor_;      ///< safe (truncation/restart) position.
  cloud::PagePointer raw_cursor_;  ///< physical tail position.
  bwtree::Lsn lsn_floor_ = 0;  ///< mutations at or below are checkpointed.
  uint64_t expected_term_ = 0;   ///< 0 until the first batch.
  uint64_t delivered_seq_ = 0;   ///< newest delivered seq of expected_term_.
  /// Adopt the first batch seen as the sequence anchor. The default state:
  /// a never-positioned reader replays whatever physically survives — a
  /// truncated stream starts mid-term at a barrier-cursor boundary, so its
  /// head is in order and the anchor is exact. Cleared by SeekTo, whose
  /// anchor is explicit; seek to a null WalCursor for a strict
  /// expect-seq-1 replay of an untruncated stream that may open out of
  /// order.
  bool anchor_on_first_ = true;
  std::map<uint64_t, std::vector<WalRecord>> held_;  ///< seq -> records.
  uint64_t batches_consumed_ = 0;
  uint64_t bytes_consumed_ = 0;
  uint64_t records_filtered_ = 0;
  uint64_t batches_deduped_ = 0;
};

}  // namespace bg3::wal

#endif  // BG3_WAL_READER_H_
