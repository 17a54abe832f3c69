#include "wal/writer.h"

#include <chrono>
#include <limits>

#include "common/coding.h"
#include "common/timed_scope.h"

namespace bg3::wal {

namespace {

/// Writer incarnations must be unique and increasing so readers can order
/// terms across restarts (a recovered node's batches always carry a higher
/// term than its predecessor's).
std::atomic<uint64_t> g_next_term{1};

/// Physical stream order: extent, then offset within it.
bool PhysicallyAfter(const cloud::PagePointer& a, const cloud::PagePointer& b) {
  if (b.IsNull()) return true;
  if (a.extent_id != b.extent_id) return a.extent_id > b.extent_id;
  return a.offset > b.offset;
}

/// Size of the batch body EncodeFramedBatch frames for `records` with
/// their current field values — the basis for the simulated append latency
/// (computed before latency stamping, matching the legacy probe encode).
size_t BatchBodySize(const std::vector<WalRecord>& records) {
  size_t n = VarintLength(records.size());
  for (const WalRecord& r : records) {
    const size_t sz = r.EncodedSize();
    n += VarintLength(sz) + sz;
  }
  return n;
}

/// Exact wire size of EncodeFramedBatch(term, seq, records): the frame
/// (marker byte, term and seq varints, fixed32 crc) plus the body.
size_t FramedBatchSize(uint64_t term, uint64_t seq,
                       const std::vector<WalRecord>& records) {
  return 1 + VarintLength(term) + VarintLength(seq) + 4 +
         BatchBodySize(records);
}

}  // namespace

uint64_t AllocateWalTerm() {
  return g_next_term.fetch_add(1, std::memory_order_relaxed);
}

void ObserveWalTerm(uint64_t observed) {
  uint64_t cur = g_next_term.load(std::memory_order_relaxed);
  while (cur <= observed &&
         !g_next_term.compare_exchange_weak(cur, observed + 1,
                                            std::memory_order_relaxed)) {
  }
}

namespace {

uint64_t PickTerm(uint64_t explicit_term) {
  if (explicit_term == 0) return AllocateWalTerm();
  ObserveWalTerm(explicit_term);
  return explicit_term;
}

}  // namespace

WalWriter::WalWriter(cloud::CloudStore* store, const WalWriterOptions& options)
    : store_(store),
      opts_(options),
      term_(PickTerm(options.term)),
      rng_(options.seed) {
  if (opts_.mode == WalWriterMode::kPipelined) {
    cloud::AppendPipelineOptions po;
    po.stream = opts_.stream;
    po.inflight = opts_.inflight_appends;
    po.wall_latency_scale = opts_.wall_latency_scale;
    po.term = term_;
    pipeline_ = std::make_unique<cloud::AppendPipeline>(
        store_, po,
        [this](cloud::AppendPipeline::Completion done) {
          OnAppendComplete(std::move(done));
        });
    serializer_ = std::thread([this] { SerializerMain(); });
  }
}

WalWriter::~WalWriter() {
  if (opts_.mode != WalWriterMode::kPipelined) return;
  {
    std::lock_guard<std::mutex> lock(led_mu_);
    stop_serializer_ = true;
  }
  led_cv_.notify_all();
  serializer_.join();
  // Drains queued submissions through one normal retry loop; parked batches
  // stay parked (their records are lost with the process, like the legacy
  // writer's unflushed buffer).
  pipeline_->Shutdown();
}

Status WalWriter::Append(WalRecord record, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.wal.append", OpLayer::kWal);
  if (ctx != nullptr && ctx->stats != nullptr) {
    // Bill the record to the request at enqueue time — the group flush that
    // eventually publishes it may run under a different request's context.
    // EncodedSize avoids the historical throwaway encode.
    OpStats::RecordWalAppend(ctx->stats, 1, record.EncodedSize());
  }
  if (opts_.mode == WalWriterMode::kSync) {
    std::lock_guard<std::mutex> lock(mu_);
    buffer_.push_back(std::move(record));
    ++enqueued_records_;
    buffered_records_.store(buffer_.size(), std::memory_order_relaxed);
    if (buffer_.size() >= opts_.group_size) return FlushLocked(ctx);
    return Status::OK();
  }
  uint64_t ticket = 0;
  uint64_t sealed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffer_.push_back(std::move(record));
    ticket = ++enqueued_records_;
    buffered_records_.fetch_add(1, std::memory_order_relaxed);
    if (buffer_.size() >= opts_.group_size) sealed = SealLocked(ctx);
  }
  if (sealed == 0) return Status::OK();
  led_cv_.notify_all();
  if (!opts_.commit_wait_on_seal) return Status::OK();
  // Earlier parked batches get a fresh shot (the legacy flush re-appended
  // the whole buffer, failed records included), but never the batch this
  // call just sealed — that one gets exactly its retry policy, and its
  // failure must surface here, not be quietly re-kicked.
  KickParked(sealed);
  return WaitTicket(ticket, ctx);
}

Status WalWriter::AppendAsync(WalRecord record, const OpContext* ctx,
                              WalTicket* ticket) {
  BG3_TIMED_SCOPE("bg3.wal.enqueue", OpLayer::kWal);
  if (ctx != nullptr && ctx->stats != nullptr) {
    OpStats::RecordWalAppend(ctx->stats, 1, record.EncodedSize());
  }
  if (opts_.mode == WalWriterMode::kSync) {
    Status s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      buffer_.push_back(std::move(record));
      if (ticket != nullptr) ticket->index = ++enqueued_records_;
      buffered_records_.store(buffer_.size(), std::memory_order_relaxed);
      if (buffer_.size() >= opts_.group_size) s = FlushLocked(ctx);
    }
    return s;
  }
  uint64_t sealed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffer_.push_back(std::move(record));
    const uint64_t t = ++enqueued_records_;
    if (ticket != nullptr) ticket->index = t;
    buffered_records_.fetch_add(1, std::memory_order_relaxed);
    if (buffer_.size() >= opts_.group_size) sealed = SealLocked(ctx);
  }
  if (sealed != 0) led_cv_.notify_all();
  return Status::OK();
}

Status WalWriter::WaitCommitted(WalTicket ticket, const OpContext* ctx) {
  if (ticket.index == 0) return Status::OK();
  if (opts_.mode == WalWriterMode::kPipelined) {
    uint64_t sealed = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The ticket's record may still sit in the open buffer, which nothing
      // else is obligated to seal (the group is short of group_size). A
      // waiter forces its group out — classic group commit — or it would
      // wait forever.
      if (ticket.index > enqueued_records_ - buffer_.size()) {
        sealed = SealLocked(ctx);
      }
    }
    if (sealed != 0) led_cv_.notify_all();
    KickParked(std::numeric_limits<uint64_t>::max());
  }
  return WaitTicket(ticket.index, ctx);
}

Status WalWriter::Flush(const OpContext* ctx) {
  obs::Scope wal_layer(OpLayer::kWal);
  if (opts_.mode == WalWriterMode::kSync) {
    std::lock_guard<std::mutex> lock(mu_);
    return FlushLocked(ctx);
  }
  uint64_t target = 0;
  uint64_t sealed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed = SealLocked(ctx);
    target = enqueued_records_;
  }
  if (sealed != 0) led_cv_.notify_all();
  if (target == 0) return Status::OK();
  // A barrier is a retry point for everything sealed before it: the wait
  // re-kicks each parked batch once — the ones parked now and the ones in
  // flight now that park while it waits — but never the batch this call
  // sealed (its failure surfaces as the error).
  return WaitTicket(target, ctx,
                    sealed != 0 ? sealed : std::numeric_limits<uint64_t>::max());
}

uint64_t WalWriter::SealLocked(const OpContext* ctx) {
  if (buffer_.empty()) return 0;
  if (ctx != nullptr && ctx->stats != nullptr) {
    // The batch's cloud append runs on a pipeline worker detached from any
    // request, so bill it here, to the request that sealed the batch — the
    // same attribution the legacy inline flush produced (the sealer paid
    // for the whole group). The framed wire size is exact without encoding.
    OpStats::RecordCloudAppend(
        ctx->stats, FramedBatchSize(term_, next_seal_seq_, buffer_));
  }
  SealedBatch batch;
  batch.seq = next_seal_seq_++;
  batch.last_ticket = enqueued_records_;
  batch.records = std::move(buffer_);
  buffer_.clear();
  {
    std::lock_guard<std::mutex> lock(led_mu_);
    ++outstanding_;
    seal_queue_.push_back(std::move(batch));
  }
  return next_seal_seq_ - 1;
}

void WalWriter::SerializerMain() {
  for (;;) {
    SealedBatch batch;
    {
      std::unique_lock<std::mutex> lock(led_mu_);
      led_cv_.wait(lock, [this] {
        return stop_serializer_ || !seal_queue_.empty();
      });
      if (seal_queue_.empty()) return;  // stopping and fully drained
      batch = std::move(seal_queue_.front());
      seal_queue_.pop_front();
    }
    // Stamp each record's simulated publish latency — its residency in the
    // group buffer plus the append latency of the batch itself — then
    // encode exactly once, off every caller's thread.
    BG3_TIMED_SCOPE("bg3.wal.serialize");
    const uint64_t append_latency =
        store_->latency_model().AppendLatencyUs(BatchBodySize(batch.records));
    for (WalRecord& r : batch.records) {
      const uint64_t wait = opts_.group_size <= 1
                                ? 0
                                : rng_.Uniform(opts_.group_window_us + 1);
      r.sim_publish_latency_us = wait + append_latency;
    }
    std::string payload = EncodeFramedBatch(term_, batch.seq, batch.records);
    pipeline_->Submit(batch.seq, std::move(payload), batch.records.size());
  }
}

void WalWriter::OnAppendComplete(cloud::AppendPipeline::Completion done) {
  uint64_t newly_committed = 0;
  bool failed = false;
  std::vector<Resubmission> again;
  {
    std::lock_guard<std::mutex> lock(led_mu_);
    --outstanding_;
    if (done.status.IsOverloaded() && !BreakerOpen()) {
      // Rejected by a half-open breaker whose probe slots were all taken:
      // a verdict on admission, not on the substrate. Wait for an in-flight
      // probe to settle (below) instead of failing the waiters.
      probe_wait_.emplace(done.seq, std::make_pair(std::move(done.payload),
                                                   done.record_count));
    } else if (done.status.IsFenced()) {
      // Deposed: a newer leader fenced the stream. The batch never landed
      // and never will — drop it (no park, no retry), account the records
      // as drained, and latch the fence so every current and future waiter
      // fails with Fenced instead of hanging on a commit that cannot come.
      fenced_ = true;
      ++fenced_appends_;
      zombie_drained_ += done.record_count;
      buffered_records_.fetch_sub(done.record_count,
                                  std::memory_order_relaxed);
      last_error_ = done.status;
      failed = true;
    } else if (!done.status.ok()) {
      parked_.emplace(done.seq,
                      std::make_pair(std::move(done.payload),
                                     done.record_count));
      last_error_ = done.status;
      failed = true;
    } else {
      if (PhysicallyAfter(done.ptr, max_physical_ptr_)) {
        max_physical_ptr_ = done.ptr;
        std::lock_guard<std::mutex> lock(cursor_mu_);
        physical_ptr_ = max_physical_ptr_;
      }
      pending_.emplace(done.seq, std::make_pair(done.ptr, done.record_count));
      while (!pending_.empty() &&
             pending_.begin()->first == next_commit_seq_) {
        const uint64_t n = pending_.begin()->second.second;
        pending_.erase(pending_.begin());
        ++next_commit_seq_;
        committed_record_count_ += n;
        batches_.Inc();
        records_.Add(n);
        buffered_records_.fetch_sub(n, std::memory_order_relaxed);
      }
      newly_committed = committed_record_count_;
      // Safe-frontier rule: the committed cursor may only advance when no
      // completion is outstanding out of order — every landed batch is
      // committed and nothing is mid-flight — because only then is "every
      // seq past the cursor sits physically past cursor.ptr" guaranteed
      // (future appends, including parked resubmissions, land at the tail).
      if (pending_.empty() && outstanding_ == 0 && next_commit_seq_ > 1) {
        std::lock_guard<std::mutex> lock(cursor_mu_);
        committed_cursor_ =
            WalCursor{max_physical_ptr_, term_, next_commit_seq_ - 1};
      }
    }
    // Batches waiting on a probe go again once one settles (any other
    // completion), or right away when nothing of ours is in flight — the
    // slots are then held by other store callers and free up shortly. A
    // breaker that reopened meanwhile fails them fast like any rejection.
    if (!probe_wait_.empty() &&
        (outstanding_ == 0 || !done.status.IsOverloaded())) {
      const bool open = BreakerOpen();
      for (auto& [seq, item] : probe_wait_) {
        if (fenced_) {
          zombie_drained_ += item.second;
          buffered_records_.fetch_sub(item.second, std::memory_order_relaxed);
        } else if (open) {
          parked_.emplace(seq, std::move(item));
          last_error_ = Status::Overloaded("cloud circuit breaker open");
          failed = true;
        } else {
          again.emplace_back(seq, std::move(item));
          ++outstanding_;
        }
      }
      probe_wait_.clear();
    }
  }
  Resubmit(&again);
  if (newly_committed != 0) sequencer_.Advance(newly_committed);
  if (failed) sequencer_.Disturb();
}

bool WalWriter::BreakerOpen() const {
  return store_->breaker().state() == CircuitBreaker::State::kOpen;
}

void WalWriter::KickParked(uint64_t below_seq) {
  std::vector<Resubmission> again;
  {
    std::lock_guard<std::mutex> lock(led_mu_);
    TakeParkedLocked(below_seq, nullptr, &again);
  }
  Resubmit(&again);
}

void WalWriter::TakeParkedLocked(uint64_t below_seq,
                                 std::set<uint64_t>* kicked,
                                 std::vector<Resubmission>* again) {
  if (parked_.empty()) return;
  if (fenced_) {
    // A fenced writer's parked batches are dead — resubmitting them would
    // only bounce off the stream fence. Drain them so the zombie reaches
    // a quiescent state instead of churning the pipeline.
    for (auto& [seq, item] : parked_) {
      zombie_drained_ += item.second;
      buffered_records_.fetch_sub(item.second, std::memory_order_relaxed);
    }
    parked_.clear();
    return;
  }
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->first >= below_seq) break;  // sealed by (or after) the caller
    if (kicked != nullptr && !kicked->insert(it->first).second) {
      ++it;  // this barrier already gave it its fresh shot
      continue;
    }
    again->emplace_back(it->first, std::move(it->second));
    ++outstanding_;
    it = parked_.erase(it);
  }
}

void WalWriter::Resubmit(std::vector<Resubmission>* again) {
  for (auto& [seq, item] : *again) {
    pipeline_->Submit(seq, std::move(item.first), item.second);
  }
  again->clear();
}

Status WalWriter::WaitTicket(uint64_t target, const OpContext* ctx,
                             uint64_t rekick_below) {
  BG3_TIMED_SCOPE("bg3.wal.commit_wait");
  std::set<uint64_t> kicked;  // batches this barrier has re-kicked
  std::vector<Resubmission> again;
  for (;;) {
    // Two-phase wait: snapshot the disturb epoch, then check the parked
    // state, then wait against the snapshot. A failure that parks before
    // the check is seen here; one that parks after it bumps the epoch past
    // the snapshot, so the wait returns Busy instead of sleeping through
    // the (already delivered) Disturb.
    const uint64_t epoch = sequencer_.disturb_epoch();
    {
      std::lock_guard<std::mutex> lock(led_mu_);
      if (committed_record_count_ >= target) return Status::OK();
      if (fenced_) {
        // Nothing parked to re-kick: post-fence batches are dropped, so the
        // awaited commit can never arrive. Fail the waiter with the fence.
        return last_error_.IsFenced() ? last_error_
                                      : Status::Fenced("wal writer deposed");
      }
      if (!parked_.empty()) {
        // A barrier gives every parked batch below its bound one fresh
        // shot, including one still in flight when the barrier began.
        if (rekick_below != 0) TakeParkedLocked(rekick_below, &kicked, &again);
        // Otherwise some batch exhausted its retries. Surface the append
        // error with the records still buffered — the legacy inline
        // flush's contract.
        if (again.empty()) {
          return last_error_.ok() ? Status::IOError("wal append failed")
                                  : last_error_;
        }
      }
    }
    if (!again.empty()) {
      Resubmit(&again);
      continue;
    }
    Status s = sequencer_.WaitReached(target, epoch, ctx);
    if (s.ok()) return s;
    if (!s.IsBusy()) return s;  // deadline expired mid-wait
    // Busy: loop to re-check the parked state under the next snapshot.
  }
}

bool WalWriter::fenced() const {
  std::lock_guard<std::mutex> lock(led_mu_);
  return fenced_;
}

uint64_t WalWriter::fenced_appends() const {
  std::lock_guard<std::mutex> lock(led_mu_);
  return fenced_appends_;
}

uint64_t WalWriter::zombie_drained() const {
  std::lock_guard<std::mutex> lock(led_mu_);
  return zombie_drained_;
}

Status WalWriter::FlushLocked(const OpContext* ctx) {
  if (buffer_.empty()) return Status::OK();
  // The batch append's cloud I/O is WAL work regardless of which layer's
  // request happened to trigger the flush.
  BG3_TIMED_SCOPE("bg3.wal.sync", OpLayer::kWal);
  // Stamp each record's simulated publish latency: its residency in the
  // group buffer plus the append latency of the batch itself (sized before
  // stamping, without the historical probe encode).
  const uint64_t append_latency =
      store_->latency_model().AppendLatencyUs(BatchBodySize(buffer_));
  for (WalRecord& r : buffer_) {
    const uint64_t wait = opts_.group_size <= 1
                              ? 0
                              : rng_.Uniform(opts_.group_window_us + 1);
    r.sim_publish_latency_us = wait + append_latency;
  }
  // The batch keeps its seq across failed attempts (the records stay
  // buffered), so readers never see a hole in the seq sequence.
  const std::string batch = EncodeFramedBatch(term_, sync_seq_ + 1, buffer_);
  uint64_t latency_us = 0;
  auto res =
      store_->AppendFenced(opts_.stream, term_, batch, &latency_us, ctx);
  if (res.status().IsFenced()) {
    // Deposed mid-flush: latch the fence (sync mode keeps the records
    // buffered — they were never acknowledged, and every later flush fails
    // the same way).
    std::lock_guard<std::mutex> lock(led_mu_);
    fenced_ = true;
    ++fenced_appends_;
    last_error_ = res.status();
  }
  BG3_RETURN_IF_ERROR(res.status());
  if (opts_.wall_latency_scale > 0 && latency_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<uint64_t>(latency_us * opts_.wall_latency_scale)));
  }
  ++sync_seq_;
  last_append_ptr_sync_ = res.value();
  {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    physical_ptr_ = last_append_ptr_sync_;
    committed_cursor_ = WalCursor{last_append_ptr_sync_, term_, sync_seq_};
  }
  batches_.Inc();
  records_.Add(buffer_.size());
  buffer_.clear();
  buffered_records_.store(0, std::memory_order_relaxed);
  sequencer_.Advance(enqueued_records_);
  return Status::OK();
}

}  // namespace bg3::wal
