#include "cloud/append_pipeline.h"

#include <chrono>

#include "common/logging.h"
#include "common/op_stats.h"
#include "common/timed_scope.h"

namespace bg3::cloud {

AppendPipeline::AppendPipeline(CloudStore* store,
                               const AppendPipelineOptions& options,
                               CompletionFn on_complete)
    : store_(store), opts_(options), on_complete_(std::move(on_complete)) {
  BG3_CHECK_GE(opts_.term, 1u);
  const size_t n = opts_.inflight == 0 ? 1 : opts_.inflight;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

AppendPipeline::~AppendPipeline() { Shutdown(); }

void AppendPipeline::Submit(uint64_t seq, std::string payload,
                            uint64_t record_count) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace(seq, std::make_pair(std::move(payload), record_count));
  }
  cv_.notify_one();
}

void AppendPipeline::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && joined_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (!joined_) {
    for (std::thread& t : workers_) t.join();
    joined_ = true;
  }
}

void AppendPipeline::WorkerMain() {
  // Background appends are WAL work for I/O attribution no matter which
  // layer's request sealed the batch.
  obs::Scope wal_layer(OpLayer::kWal);
  for (;;) {
    Completion done;
    std::string payload;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      auto it = queue_.begin();    // lowest seq first
      done.seq = it->first;
      payload = std::move(it->second.first);
      done.record_count = it->second.second;
      queue_.erase(it);
    }
    {
      BG3_TIMED_SCOPE("bg3.wal.sync");
      uint64_t latency_us = 0;
      auto res = store_->AppendFenced(opts_.stream, opts_.term, payload,
                                      &latency_us, nullptr);
      if (opts_.wall_latency_scale > 0 && latency_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<uint64_t>(latency_us * opts_.wall_latency_scale)));
      }
      done.status = res.status();
      if (res.ok()) {
        done.ptr = res.value();
      } else {
        done.payload = std::move(payload);
      }
    }
    on_complete_(std::move(done));
  }
}

}  // namespace bg3::cloud
