#ifndef BG3_WAL_WRITER_H_
#define BG3_WAL_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloud/append_pipeline.h"
#include "cloud/cloud_store.h"
#include "common/metrics.h"
#include "common/op_context.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "wal/record.h"

namespace bg3::wal {

struct WalWriterOptions {
  cloud::StreamId stream = 0;
  /// Records buffered before a batch append. 1 = write-through (the paper
  /// appends the WAL "immediately after the RW update"); larger values
  /// amortize appends under very high write rates.
  size_t group_size = 1;
  /// Simulated group-buffer residency window: a record waits Uniform(0, w)
  /// before its batch is appended. Feeds sim_publish_latency_us.
  uint64_t group_window_us = 10'000;
  uint64_t seed = 0x57a1;

  /// Cloud appends allowed in flight at once.
  size_t inflight_appends = 4;
  /// Forwarded to the append pipeline: sleep `simulated latency * scale`
  /// wall time per append so latency benches see real queueing. 0 = off.
  double wall_latency_scale = 0.0;
  /// Writer incarnation term. 0 (default) allocates the next process-wide
  /// term; failover passes the term it won via the epoch-record CAS so the
  /// promoted leader's batches carry it (DESIGN.md §5.10). Explicit terms
  /// raise the process allocator's floor, keeping later implicit writers
  /// strictly newer.
  uint64_t term = 0;
};

/// Allocates the next writer incarnation term — strictly greater than every
/// term allocated or observed in this process so far.
uint64_t AllocateWalTerm();
/// Raises the allocator floor so future AllocateWalTerm() results exceed
/// `observed` (call when adopting a term from a persisted epoch record).
void ObserveWalTerm(uint64_t observed);

/// Durability ticket: the cumulative enqueue index (1-based) of a record.
/// Acknowledgment is in-order, so waiting on a ticket waits for that record
/// *and every record enqueued before it*.
struct WalTicket {
  uint64_t index = 0;
};

/// Appends WAL batches to the shared cloud store, totally ordered by
/// enqueue. Thread safe. Every record goes serializer -> AppendPipeline ->
/// commit ledger (DESIGN.md §5.9), so the physical stream may carry
/// batches out of log order (parallel in-flight appends, late retries);
/// every batch is framed with this writer's term and a seal-order seq so
/// readers restore log order, and all externally visible state —
/// acknowledgments, committed_cursor(), batches_appended() — moves strictly
/// in log order regardless of completion order.
///
/// A torn or transiently failed batch append is re-appended by the store's
/// retry loop (CloudStoreOptions::retry): the damaged copy never passes its
/// CRC check, so tailing readers skip it, and duplicate *successful*
/// batches are safe (batches carry (term, seq) identities the reader
/// dedupes on, and replay is LSN-gated besides). Once the budget is spent
/// the records stay buffered — the WAL falls behind and the next
/// Append/Flush tries again; nothing acknowledged is ever dropped.
class WalWriter {
 public:
  WalWriter(cloud::CloudStore* store, const WalWriterOptions& options);
  /// Joins the pipeline: sealed and queued batches get one final shot
  /// (their normal retry loop), parked (already failed) batches are not
  /// retried again, and records still in the open buffer are dropped: none
  /// of them was acknowledged, so a crash loses no acked write.
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one record; seals a batch once group_size is reached. Records
  /// become visible to readers only after their batch is appended. The
  /// sealing call blocks for its batch's in-order acknowledgment: OK means
  /// the record and everything before it is durable, and a failed append
  /// surfaces here with the records still buffered. A call that does not
  /// seal returns after the enqueue. The optional OpContext deadline
  /// bounds the acknowledgment wait.
  BG3_BLOCKING Status Append(WalRecord record, const OpContext* ctx = nullptr);

  /// Memory-only enqueue, never blocks on I/O or acknowledgment. Hands
  /// back the record's durability ticket.
  Status AppendAsync(WalRecord record, const OpContext* ctx, WalTicket* ticket);

  /// Blocks until every record up to `ticket` is durably acknowledged, the
  /// context deadline expires, or the pipeline reports an append failure
  /// (the failed batch stays buffered; a later Append/Flush re-kicks it).
  /// Seals the open buffer first if the ticket's record is still in it —
  /// a waiter forces its (possibly short) group out.
  BG3_BLOCKING Status WaitCommitted(WalTicket ticket,
                                    const OpContext* ctx = nullptr);

  /// Full durability barrier: seals any open records, re-kicks parked
  /// batches, and waits until everything enqueued before the call is
  /// acknowledged (no I/O on the calling thread).
  BG3_BLOCKING Status Flush(const OpContext* ctx = nullptr);

  uint64_t batches_appended() const { return batches_.Get(); }
  uint64_t records_appended() const { return records_.Get(); }

  /// Records enqueued but not yet acknowledged (open buffer + sealed +
  /// in-flight + parked) — the WAL flush backlog. Grows when appends keep
  /// failing, so it is the write-degradation watermark signal of DESIGN.md
  /// §5.5; under the pipeline it also counts batches riding their cloud
  /// round trip. Lock-free.
  size_t BufferedRecords() const {
    return buffered_records_.load(std::memory_order_relaxed);
  }

  /// Records durably acknowledged (in enqueue order). Lock-free.
  uint64_t committed_records() const {
    return committed_records_.load(std::memory_order_acquire);
  }

  /// Physical location of the furthest successful append (null before the
  /// first). It can run ahead of the committed prefix —
  /// use committed_cursor() for anything that must name a durable, gap-free
  /// log position.
  cloud::PagePointer last_append_ptr() const {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    return physical_ptr_;
  }

  /// The safe resume point: every batch with seq > cursor.seq is physically
  /// at or after cursor.ptr, and everything at or below cursor.seq is
  /// acknowledged. Only advances when no completion is outstanding out of
  /// order (a Flush barrier always leaves it fresh). Read by the checkpoint
  /// cut, the RW commit and `/healthz` — never per write.
  WalCursor committed_cursor() const {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    return committed_cursor_;
  }

  /// This writer's incarnation id (stamped into every batch frame).
  uint64_t term() const { return term_; }

  // --- failover fencing (DESIGN.md §5.10) ----------------------------------
  /// True once any append completed with Status::Fenced: this writer has
  /// been deposed by a newer leader. The latch is permanent — a fenced
  /// writer drains, it never recovers. Appends already buffered or in
  /// flight are dropped (never acknowledged), and every waiter fails with
  /// the fence error.
  bool fenced() const;
  /// Batch appends rejected by the stream fence.
  uint64_t fenced_appends() const;
  /// Records dropped on the floor after the fence latched (in-flight
  /// batches plus parked batches drained instead of resubmitted). None of
  /// them was ever acknowledged.
  uint64_t zombie_drained() const;

 private:
  struct SealedBatch {
    uint64_t seq = 0;
    std::vector<WalRecord> records;
  };

  /// Append and AppendAsync's shared front half: bills the record to
  /// `ctx`, buffers it, stores its ticket in `*ticket`, and seals the
  /// buffer once it reaches group_size. Returns the sealed seq, or 0 when
  /// the record stays in the open buffer.
  uint64_t Enqueue(WalRecord record, const OpContext* ctx, uint64_t* ticket);
  /// Seals the open buffer into the serializer queue, billing the batch's
  /// eventual cloud append to `ctx`: the pipeline worker that runs it has
  /// no request, so the sealer pays for the group. Returns the sealed seq,
  /// or 0 when the buffer was empty.
  uint64_t SealLocked(const OpContext* ctx);
  void SerializerMain();
  /// Parks failed batches and commits landed ones in seq order. A batch
  /// the breaker rejected while half-open (all probe slots taken) is not
  /// parked: it waits in probe_wait_ and is re-submitted once an in-flight
  /// probe settles (DESIGN.md §5.5); an open breaker still fails fast.
  void OnAppendComplete(cloud::AppendPipeline::Completion done);
  bool BreakerOpen() const;
  /// (seq, (payload, record_count)) of a batch headed back to the pipeline.
  using Resubmission = std::pair<uint64_t, std::pair<std::string, uint64_t>>;
  /// Moves parked (failed) batches with seq < `below_seq` back into the
  /// append queue. The bound keeps a sealing Append from re-kicking its own
  /// just-failed batch — a failure must surface on that call, not get a
  /// retry its policy never granted.
  void KickParked(uint64_t below_seq);
  /// KickParked's ledger half: moves the batches into `again` (counted as
  /// outstanding again), skipping — and otherwise recording — seqs already
  /// in `kicked` when given. A fenced writer drains them instead.
  void TakeParkedLocked(uint64_t below_seq, std::set<uint64_t>* kicked,
                        std::vector<Resubmission>* again);
  void Resubmit(std::vector<Resubmission>* again);
  /// Waits for `target` tickets to commit. A parked batch fails the wait
  /// with its append error, and a fenced writer fails it with the fence. A
  /// nonzero `rekick_below` makes the wait a barrier (Flush): each batch
  /// below it that is parked, or parks while the barrier waits, is re-kicked
  /// once before its failure surfaces.
  BG3_BLOCKING Status WaitTicket(uint64_t target, const OpContext* ctx,
                                 uint64_t rekick_below = 0);

  cloud::CloudStore* const store_;
  const WalWriterOptions opts_;
  const uint64_t term_;

  // -- enqueue stage: the open buffer ---------------------------------------
  mutable std::mutex mu_;
  std::vector<WalRecord> buffer_;
  uint64_t enqueued_records_ = 0;  ///< cumulative; ticket of the newest.
  uint64_t next_seal_seq_ = 1;
  std::atomic<size_t> buffered_records_{0};

  // -- serializer + ledger --------------------------------------------------
  mutable std::mutex led_mu_;
  std::condition_variable seal_cv_;    ///< serializer: seal_queue_ or stop.
  std::condition_variable commit_cv_;  ///< waiters: a commit, park or fence.
  std::deque<SealedBatch> seal_queue_;          ///< awaiting serialization.
  std::map<uint64_t, std::pair<cloud::PagePointer, uint64_t>>
      pending_;                                 ///< landed out of order.
  std::map<uint64_t, std::pair<std::string, uint64_t>>
      parked_;                                  ///< failed; await re-kick.
  std::map<uint64_t, std::pair<std::string, uint64_t>>
      probe_wait_;  ///< rejected by a half-open breaker; await a probe.
  uint64_t next_commit_seq_ = 1;
  /// Written only under led_mu_; read lock-free by committed_records().
  std::atomic<uint64_t> committed_records_{0};
  uint64_t outstanding_ = 0;  ///< serializing / queued / mid-append batches.
  cloud::PagePointer max_physical_ptr_;
  Status last_error_;
  bool stop_serializer_ = false;
  bool fenced_ = false;            ///< permanent once set; under led_mu_.
  uint64_t fenced_appends_ = 0;    ///< under led_mu_.
  uint64_t zombie_drained_ = 0;    ///< records dropped post-fence; led_mu_.

  // Published snapshot of the two positions above. A leaf lock: taken
  // inside led_mu_ by the writer, alone by readers, and nothing is
  // acquired under it.
  mutable std::mutex cursor_mu_;
  cloud::PagePointer physical_ptr_;
  WalCursor committed_cursor_;

  Random rng_;  ///< serializer-owned.
  Counter batches_;
  Counter records_;

  cloud::AppendPipeline pipeline_;
  std::thread serializer_;
};

}  // namespace bg3::wal

#endif  // BG3_WAL_WRITER_H_
