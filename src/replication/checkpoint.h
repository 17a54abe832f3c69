#ifndef BG3_REPLICATION_CHECKPOINT_H_
#define BG3_REPLICATION_CHECKPOINT_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/metrics.h"
#include "common/result.h"
#include "gc/space_reclaimer.h"
#include "wal/record.h"

namespace bg3::replication {

/// One tree covered by a checkpoint: every mutation of `tree_id` with
/// LSN <= `flushed_lsn` is contained in the published page images.
struct CheckpointTree {
  bwtree::TreeId tree_id = 0;
  bwtree::Lsn flushed_lsn = 0;
};

// --- the manifest area's record protocol (DESIGN.md §5.7) -----------------
//
// Checkpoint manifests and epoch records are both CRC-32C-framed records
// kept in two alternating slots, `<kind>/<scope>/slot<epoch & 1>`. A
// publish writes only the slot of its own epoch, so the other slot still
// holds the previous complete record; a load reads both slots and takes the
// valid record with the higher epoch. No head key points at either slot.

/// Key of the slot holding the `kind` record of `epoch` for `scope`.
std::string SlotKey(std::string_view kind, const std::string& scope,
                    uint64_t epoch);
/// Scope of the records that belong to one WAL stream: the checkpoint
/// manifests of its writer and its leadership epoch records.
std::string WalScope(cloud::StreamId stream);

/// The durable checkpoint manifest (DESIGN.md §5.7). Its contract: every
/// mutation with LSN <= `checkpoint_lsn` is covered by page images published
/// in the shared mapping table, so recovery may start its WAL scan strictly
/// after `wal_cursor` and drop replayed mutations at or below the LSN —
/// replay cost is the WAL *suffix*, independent of total WAL length.
struct CheckpointManifest {
  static constexpr std::string_view kKind = "ckpt";

  uint64_t epoch = 0;  ///< monotonically increasing publish counter.
  cloud::StreamId wal_stream = 0;
  /// Last WAL batch whose records are all covered.
  cloud::PagePointer wal_cursor;
  /// (term, seq) identity of that batch under the writer's batch framing
  /// ((0, 0) before the first batch commits): recovery seeds its reader
  /// with them so late-landing duplicates of batches at or below the cursor
  /// are deduplicated rather than replayed out of order.
  uint64_t wal_term = 0;
  uint64_t wal_seq = 0;
  bwtree::Lsn checkpoint_lsn = 0;

  wal::WalCursor WalResumeCursor() const {
    return wal::WalCursor{wal_cursor, wal_term, wal_seq};
  }
  std::vector<CheckpointTree> trees;  ///< every tree the node logs.

  /// Encoding carries a trailing CRC-32C; Decode fails with Corruption on
  /// any mismatch, which is what makes a torn slot detectable.
  std::string Encode() const;
  static Status Decode(const Slice& input, CheckpointManifest* out);
};

/// One plain put of the manifest's slot. The caller publishes the page
/// images and the WAL checkpoint record first, so a slot that decodes is a
/// complete checkpoint.
Status PublishCheckpoint(cloud::CloudStore* store, const std::string& scope,
                         const CheckpointManifest& manifest);

struct LoadedCheckpoint {
  CheckpointManifest manifest;
  /// True when a slot held bytes that failed the CRC, decode or epoch
  /// parity check, so the other slot was used.
  bool fell_back = false;
};

/// Loads the newest durable checkpoint of `scope`; NotFound when neither
/// slot holds a valid manifest (never checkpointed, or both slots torn —
/// full-WAL replay).
Result<LoadedCheckpoint> LoadCheckpoint(cloud::CloudStore* store,
                                        const std::string& scope,
                                        const OpContext* ctx = nullptr);

// --- failover epoch records (DESIGN.md §5.10) ------------------------------

/// The durable leadership record of one WAL stream: who currently holds the
/// pen, at which term, since which promotion. Kept in the same two slots as
/// checkpoint manifests, but CAS'd instead of blindly put — a double
/// promotion must have exactly one winner, decided by the manifest's version
/// counter, not by timing.
struct EpochRecord {
  static constexpr std::string_view kKind = "epoch";

  uint64_t epoch = 0;            ///< promotion counter (1 = first leader).
  uint64_t term = 0;             ///< fencing term of the leader it crowns.
  cloud::StreamId wal_stream = 0;

  /// Trailing CRC-32C, like CheckpointManifest; Decode fails with
  /// Corruption on a torn write.
  std::string Encode() const;
  static Status Decode(const Slice& input, EpochRecord* out);
};

/// Loads the newest durable epoch record of `scope`. NotFound when no
/// promotion was ever published.
Result<EpochRecord> LoadEpochRecord(cloud::CloudStore* store,
                                    const std::string& scope);

/// CAS-publishes {epoch: current+1, term} for `scope`. Fails with Aborted
/// when `term` does not exceed the current record's term, or when a
/// concurrent promotion won the slot CAS first (the double-promotion loser).
/// On success the record is durable and `term` is the one true leadership
/// term — the caller must fence the WAL stream to it before reading the
/// tail.
Result<EpochRecord> PublishEpochRecord(cloud::CloudStore* store,
                                       const std::string& scope,
                                       uint64_t term,
                                       cloud::StreamId wal_stream);

/// Continuous fuzzy checkpointing options.
struct CheckpointerOptions {
  /// Background thread cadence; each tick runs one bounded Step().
  uint64_t interval_ms = 20;
  /// Dirty pages flushed per Step() — the increment size. Small values keep
  /// the checkpoint thread from monopolizing the store; the cut just takes
  /// more steps to drain.
  size_t max_pages_per_round = 32;
};

struct CheckpointerStats {
  Counter cuts_started;
  Counter pages_flushed;
  Counter manifests_written;
  Counter wal_extents_truncated;
  Counter step_errors;  ///< Steps abandoned on I/O error (cut stays open).
};

/// Flushes `tree`'s dirty pages until a pass sees no split, so its staged
/// images tile its current key space. A cut's rounds flush a snapshot page
/// by page; a page that split during the cut must not publish its narrowed
/// image without its new sibling's.
Status FlushTreeUntilStable(bwtree::BwTree* tree);

class RwNode;

/// The starting point of a cut, captured in fuzzy-cut order.
struct CutStart {
  bwtree::Lsn lsn = 0;
  /// WAL batch covering every record <= lsn.
  wal::WalCursor wal_cursor;
  /// Dirty (tree, page) snapshot, drained in order.
  std::vector<std::pair<bwtree::TreeId, bwtree::PageId>> dirty;
};

/// The decoupled checkpoint thread (DESIGN.md §5.7) of one RW node:
/// incrementally flushes the dirty pages of every tree the node logs and
/// publishes a checkpoint manifest under the node's WAL scope, without
/// ever blocking the write path for more than one bounded flush round.
///
/// A cut is fuzzy in the ARIES sense — writers keep mutating while it
/// drains. Soundness of the capture order (LSN, WAL flush + cursor, dirty
/// snapshot): a writer assigns its LSN, appends to the WAL and sets the
/// page's dirty bit all under the exclusive leaf latch, so any mutation
/// with LSN <= the cut LSN either has its page in the dirty snapshot (the
/// snapshot latches each leaf) or the page was flushed since — in both
/// cases an image covering it is staged before the manifest publishes.
/// Mutations that land after the WAL-flush point sit past the cut cursor
/// and are replayed from the suffix; replaying a record an image already
/// covers is harmless (RO replay is LSN-gated per page).
class Checkpointer {
 public:
  Checkpointer(cloud::CloudStore* store, RwNode* node,
               const CheckpointerOptions& options = {});
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Starts / stops the background thread. Stop() is idempotent and leaves
  /// any open cut to be finished by later Step()/CheckpointNow() calls.
  void Start();
  void Stop();

  /// One bounded increment of the state machine: begin a cut, flush the
  /// next page round, or publish. Deterministic test entry point; also what
  /// each background tick runs. An I/O failure abandons the step but keeps
  /// the cut open — the next step retries the remaining pages.
  Status Step();

  /// Makes every LSN handed out before the call durable: drives an open
  /// cut to its manifest, then cuts again when the node's LSN at entry
  /// lies past it.
  Status CheckpointNow();

  bool CutInProgress() const;
  uint64_t epoch() const;
  /// LSN of the newest durable (manifest-published) checkpoint.
  bwtree::Lsn published_lsn() const;
  /// Frees the WAL extents before min(the older manifest slot's cursor,
  /// `reader_floor`), the first extent some reader still needs
  /// (kInvalidExtent: none); returns how many.
  size_t TruncateWal(cloud::ExtentId reader_floor);
  /// The node's reclaim horizon: the two published slots pin what GC
  /// hands it and the WAL behind the older slot.
  gc::ReclaimHorizon* horizon() { return &horizon_; }
  const std::string& scope() const { return scope_; }
  CheckpointerStats& stats() { return stats_; }

 private:
  struct Cut {
    bool active = false;
    CutStart start;
    uint64_t number = 0;  ///< the horizon's number of this cut.
    size_t next = 0;  ///< next entry of start.dirty to flush.
  };

  Status StepLocked();
  Status PublishCutLocked();
  /// Continues from the newest published manifest of the scope, if any.
  Status LoadPublishedLocked();
  void ThreadMain();

  cloud::CloudStore* const store_;
  RwNode* const node_;
  const CheckpointerOptions opts_;
  const cloud::StreamId wal_stream_;
  const std::string scope_;
  gc::ReclaimHorizon horizon_;

  /// Serializes Step/CheckpointNow/Stop; plain std::mutex (like the GraphDB
  /// maintenance thread) — it never nests inside ranked locks.
  mutable std::mutex mu_;
  Cut cut_;
  uint64_t epoch_ = 0;
  bwtree::Lsn published_lsn_ = 0;
  /// False while the substrate has kept LoadPublishedLocked from reading
  /// the slots: a manifest numbered below a surviving one would never be
  /// loaded, so no manifest publishes until the read succeeds.
  bool published_loaded_ = false;

  std::thread thread_;
  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  bool running_ = false;

  CheckpointerStats stats_;
  std::string metrics_prefix_;
};

}  // namespace bg3::replication

#endif  // BG3_REPLICATION_CHECKPOINT_H_
