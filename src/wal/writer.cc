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
/// (computed before latency stamping, since the stamps are derived from it).
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
      rng_(options.seed),
      pipeline_(store,
                cloud::AppendPipelineOptions{
                    .stream = options.stream,
                    .inflight = options.inflight_appends,
                    .wall_latency_scale = options.wall_latency_scale,
                    .term = term_},
                [this](cloud::AppendPipeline::Completion done) {
                  OnAppendComplete(std::move(done));
                }) {
  serializer_ = std::thread([this] { SerializerMain(); });
}

WalWriter::~WalWriter() {
  {
    std::lock_guard<std::mutex> lock(led_mu_);
    stop_serializer_ = true;
  }
  seal_cv_.notify_all();
  serializer_.join();
  // Drains queued submissions through one normal retry loop; parked batches
  // stay parked (their records were never acknowledged).
  pipeline_.Shutdown();
}

uint64_t WalWriter::Enqueue(WalRecord record, const OpContext* ctx,
                            uint64_t* ticket) {
  if (ctx != nullptr && ctx->stats != nullptr) {
    // Bill the record to the request at enqueue time: the batch that
    // eventually publishes it may be sealed under a different request's
    // context.
    OpStats::RecordWalAppend(ctx->stats, 1, record.EncodedSize());
  }
  uint64_t sealed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffer_.push_back(std::move(record));
    *ticket = ++enqueued_records_;
    buffered_records_.fetch_add(1, std::memory_order_relaxed);
    if (buffer_.size() >= opts_.group_size) sealed = SealLocked(ctx);
  }
  if (sealed != 0) seal_cv_.notify_one();
  return sealed;
}

Status WalWriter::Append(WalRecord record, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.wal.append", OpLayer::kWal);
  uint64_t ticket = 0;
  const uint64_t sealed = Enqueue(std::move(record), ctx, &ticket);
  if (sealed == 0) return Status::OK();
  // Earlier parked batches get a fresh shot, but never the batch this call
  // just sealed: that one gets exactly its retry policy, and its failure
  // must surface here, not be quietly re-kicked.
  KickParked(sealed);
  return WaitTicket(ticket, ctx);
}

Status WalWriter::AppendAsync(WalRecord record, const OpContext* ctx,
                              WalTicket* ticket) {
  BG3_TIMED_SCOPE("bg3.wal.enqueue", OpLayer::kWal);
  uint64_t t = 0;
  Enqueue(std::move(record), ctx, &t);
  if (ticket != nullptr) ticket->index = t;
  return Status::OK();
}

Status WalWriter::WaitCommitted(WalTicket ticket, const OpContext* ctx) {
  if (ticket.index == 0) return Status::OK();
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
  if (sealed != 0) seal_cv_.notify_one();
  KickParked(std::numeric_limits<uint64_t>::max());
  return WaitTicket(ticket.index, ctx);
}

Status WalWriter::Flush(const OpContext* ctx) {
  obs::Scope wal_layer(OpLayer::kWal);
  uint64_t target = 0;
  uint64_t sealed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed = SealLocked(ctx);
    target = enqueued_records_;
  }
  if (sealed != 0) seal_cv_.notify_one();
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
    // request, so bill it here, to the request that sealed the batch (the
    // sealer pays for the whole group). The framed wire size is exact
    // without encoding.
    OpStats::RecordCloudAppend(
        ctx->stats, FramedBatchSize(term_, next_seal_seq_, buffer_));
  }
  SealedBatch batch;
  batch.seq = next_seal_seq_++;
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
      seal_cv_.wait(lock, [this] {
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
    pipeline_.Submit(batch.seq, std::move(payload), batch.records.size());
  }
}

void WalWriter::OnAppendComplete(cloud::AppendPipeline::Completion done) {
  bool wake = false;  // a commit, park or fence the waiters must see
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
      wake = true;
    } else if (!done.status.ok()) {
      parked_.emplace(done.seq,
                      std::make_pair(std::move(done.payload),
                                     done.record_count));
      last_error_ = done.status;
      wake = true;
    } else {
      if (PhysicallyAfter(done.ptr, max_physical_ptr_)) {
        max_physical_ptr_ = done.ptr;
        std::lock_guard<std::mutex> lock(cursor_mu_);
        physical_ptr_ = max_physical_ptr_;
      }
      pending_.emplace(done.seq, std::make_pair(done.ptr, done.record_count));
      uint64_t committed = committed_records_.load(std::memory_order_relaxed);
      while (!pending_.empty() &&
             pending_.begin()->first == next_commit_seq_) {
        const uint64_t n = pending_.begin()->second.second;
        pending_.erase(pending_.begin());
        ++next_commit_seq_;
        committed += n;
        batches_.Inc();
        records_.Add(n);
        buffered_records_.fetch_sub(n, std::memory_order_relaxed);
        wake = true;
      }
      committed_records_.store(committed, std::memory_order_release);
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
          wake = true;
        } else {
          again.emplace_back(seq, std::move(item));
          ++outstanding_;
        }
      }
      probe_wait_.clear();
    }
  }
  Resubmit(&again);
  if (wake) commit_cv_.notify_all();
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
    pipeline_.Submit(seq, std::move(item.first), item.second);
  }
  again->clear();
}

Status WalWriter::WaitTicket(uint64_t target, const OpContext* ctx,
                             uint64_t rekick_below) {
  BG3_TIMED_SCOPE("bg3.wal.commit_wait");
  std::set<uint64_t> kicked;  // batches this barrier has re-kicked
  std::vector<Resubmission> again;
  // The committed count, parked_ and fenced_ all change under led_mu_, the
  // lock this wait sleeps on, so no park or fence can slip in between the
  // checks and the sleep.
  std::unique_lock<std::mutex> lock(led_mu_);
  for (;;) {
    if (committed_records_.load(std::memory_order_relaxed) >= target) {
      return Status::OK();
    }
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
      // Otherwise some batch exhausted its retries: surface the append
      // error with the records still buffered.
      if (again.empty()) {
        return last_error_.ok() ? Status::IOError("wal append failed")
                                : last_error_;
      }
      lock.unlock();
      Resubmit(&again);
      lock.lock();
      continue;
    }
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "commit wait"));
    // Slice the wait: deadlines may run on a simulated clock that a cv
    // timeout cannot observe.
    commit_cv_.wait_for(lock, std::chrono::milliseconds(2));
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

}  // namespace bg3::wal
