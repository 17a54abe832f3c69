#ifndef BG3_CLOUD_APPEND_PIPELINE_H_
#define BG3_CLOUD_APPEND_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/thread_annotations.h"

namespace bg3::cloud {

struct AppendPipelineOptions {
  StreamId stream = 0;
  /// Appends allowed in flight at once (worker threads). The BtrLog-style
  /// overlap: while one batch rides its (ms-level) cloud round trip, later
  /// batches are already on the wire.
  size_t inflight = 4;
  /// When > 0, workers additionally sleep `simulated latency * scale` in
  /// wall time after each append, so latency benches observe real queueing
  /// (the store itself completes in memory speed). 0 — the default — keeps
  /// tests and simulated-time benches instantaneous.
  double wall_latency_scale = 0.0;
  /// Fencing term every append carries (DESIGN.md §5.10); must be >= 1.
  /// Every append goes through AppendFenced: once the stream's fence passes
  /// this term, in-flight batches complete with Status::Fenced — which is
  /// not retryable, so workers surface it to the completion callback
  /// immediately instead of burning the retry budget.
  uint64_t term = 0;
};

/// Completion-queue shim over the synchronous CloudStore::AppendFenced.
/// Submit() hands over an encoded payload keyed by a monotone sequence
/// number and returns without touching the store; `inflight` workers drain
/// the queue lowest-seq-first (so retries and fresh batches start in log
/// order) and run the append through the store's retry loop with a null
/// context (the pipeline has no single caller — deadlines bound the *wait*
/// for acknowledgment, not the background I/O). The completion callback
/// fires from worker threads, potentially out of submission order —
/// putting completions back *in* order is the commit ledger's job, one
/// layer up.
class AppendPipeline {
 public:
  struct Completion {
    uint64_t seq = 0;
    uint64_t record_count = 0;  ///< echoed from Submit.
    Status status;              ///< OK or the retry loop's root-cause error.
    PagePointer ptr;            ///< batch location when status is OK.
    std::string payload;        ///< handed back on failure for resubmission.
  };
  using CompletionFn = std::function<void(Completion)>;

  /// `on_complete` runs on worker threads; it must not block on the
  /// pipeline itself.
  AppendPipeline(CloudStore* store, const AppendPipelineOptions& options,
                 CompletionFn on_complete);
  ~AppendPipeline();

  AppendPipeline(const AppendPipeline&) = delete;
  AppendPipeline& operator=(const AppendPipeline&) = delete;

  /// Enqueues one encoded batch; never blocks on I/O.
  void Submit(uint64_t seq, std::string payload, uint64_t record_count);

  /// Stops accepting work, drains every queued submission through its
  /// normal (single) retry loop, and joins the workers. Queued batches get
  /// exactly one more shot; nothing is retried past its completion
  /// callback. Idempotent; the destructor calls it.
  BG3_BLOCKING void Shutdown();

 private:
  void WorkerMain();

  CloudStore* const store_;
  const AppendPipelineOptions opts_;
  const CompletionFn on_complete_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, std::pair<std::string, uint64_t>> queue_
      BG3_GUARDED_BY(mu_);  ///< seq -> (payload, record_count)
  bool stopping_ BG3_GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
  bool joined_ = false;
};

}  // namespace bg3::cloud

#endif  // BG3_CLOUD_APPEND_PIPELINE_H_
