#include "core/admission.h"

#include <algorithm>
#include <chrono>

namespace bg3::core {

namespace {

std::string ThrottleReasonString(uint32_t reasons) {
  return (reasons & ThrottleReason::kMemoryPressure) ? "memory-pressure"
                                                     : "unknown";
}

}  // namespace

void AdmissionController::Permit::Release() {
  if (ctrl_ == nullptr) return;
  ctrl_->ReleaseSlot(cls_, admitted_us_);
  ctrl_ = nullptr;
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : opts_(options),
      clock_(options.time_source != nullptr ? options.time_source
                                            : DefaultWallTimeSource()) {
  state(OpClass::kRead).slots = opts_.read_slots;
  state(OpClass::kRead).queue_cap = opts_.read_queue;
  state(OpClass::kWrite).slots = opts_.write_slots;
  state(OpClass::kWrite).queue_cap = opts_.write_queue;
  // Background work is internal and never bursty: a small fixed share.
  state(OpClass::kBackground).slots = 4;
  state(OpClass::kBackground).queue_cap = 8;
}

Status AdmissionController::Admit(OpClass cls, const OpContext* ctx,
                                  Permit* permit) {
  if (!opts_.enabled) {
    admitted_.Inc();
    return Status::OK();
  }
  OpStats* sink = ctx != nullptr ? ctx->stats : nullptr;
  // Writes shed at the door while a degradation watermark holds: admitting
  // them would grow exactly the backlog the watermark protects (reads and
  // background catch-up work pass — they drain pressure, not add it).
  if (cls == OpClass::kWrite) {
    const uint32_t reasons = throttle_reasons_.load(std::memory_order_acquire);
    if (reasons != 0) {
      shed_.Inc();
      OpStats::RecordShed(sink, reasons);
      return Status::Overloaded("writes throttled: " +
                                ThrottleReasonString(reasons));
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  ClassState& cs = state(cls);
  // Don't start work predicted to die mid-service: once the remaining
  // budget is under margin x the EWMA service time, completing within the
  // deadline is unlikely and the full service cost would be wasted.
  if (ctx != nullptr && ctx->has_deadline() && cs.ewma_service_us > 0 &&
      opts_.service_time_margin > 0 &&
      static_cast<double>(ctx->RemainingUs()) <
          opts_.service_time_margin * cs.ewma_service_us) {
    // Shed ops produce no samples, so a pessimistic estimate would latch
    // the class shut. If nothing has refreshed it recently, admit this op
    // as a probe instead; otherwise shed.
    const uint64_t now = clock_->NowUs();
    const bool probe = opts_.service_probe_interval_us > 0 &&
                       now >= cs.last_sample_us &&
                       now - cs.last_sample_us >=
                           opts_.service_probe_interval_us;
    if (probe) {
      cs.last_sample_us = now;  // one probe per interval
    } else {
      shed_.Inc();
      OpStats::RecordShed(sink, 0);
      return Status::Overloaded(std::string("predicted service time (") +
                                OpClassName(cls) + ") exceeds deadline");
    }
  }
  if (cs.slots == 0 || cs.inflight < cs.slots) {
    ++cs.inflight;
    admitted_.Inc();
    *permit = Permit(this, cls, clock_->NowUs());
    return Status::OK();
  }
  if (cs.waiters >= cs.queue_cap) {
    shed_.Inc();
    OpStats::RecordShed(sink, 0);
    return Status::Overloaded(std::string("admission queue full (") +
                              OpClassName(cls) + ")");
  }
  // Don't queue work that cannot finish: if the backlog ahead of this op
  // already predicts a wait past its deadline, shedding now is strictly
  // better than making it (and everyone behind it) discover that later.
  if (ctx != nullptr && ctx->has_deadline() && cs.ewma_service_us > 0) {
    const double batches =
        static_cast<double>(cs.waiters + 1) / static_cast<double>(cs.slots);
    const uint64_t predicted_wait_us =
        static_cast<uint64_t>(batches * cs.ewma_service_us);
    if (ctx->RemainingUs() < predicted_wait_us) {
      shed_.Inc();
      OpStats::RecordShed(sink, 0);
      return Status::Overloaded(std::string("predicted admission wait (") +
                                OpClassName(cls) + ") exceeds deadline");
    }
  }

  ++cs.waiters;
  queue_depth_.Add(1);
  const uint64_t wait_start_us = clock_->NowUs();
  // Polling waits (rather than one long cv wait) so a deadline on a
  // ManualTimeSource is still honored: a condition variable can only watch
  // the wall clock.
  const auto slice = std::chrono::microseconds(
      std::max<uint64_t>(opts_.poll_granularity_us, 100));
  Status result = Status::OK();
  for (;;) {
    if (cs.slots == 0 || cs.inflight < cs.slots) break;
    if (ctx != nullptr && ctx->Expired()) {
      deadline_exceeded_.Inc();
      result = Status::DeadlineExceeded(
          std::string("deadline expired in admission queue (") +
          OpClassName(cls) + ")");
      break;
    }
    cs.cv.wait_for(lock, slice);
  }
  --cs.waiters;
  queue_depth_.Sub(1);
  // Queue residency is billed whether or not admission ultimately
  // succeeded — a deadline death after waiting is exactly the case the
  // per-request account should explain.
  const uint64_t wait_end_us = clock_->NowUs();
  if (wait_end_us > wait_start_us) {
    OpStats::RecordQueueWait(sink, wait_end_us - wait_start_us);
  }
  if (!result.ok()) return result;
  ++cs.inflight;
  admitted_.Inc();
  *permit = Permit(this, cls, clock_->NowUs());
  return Status::OK();
}

void AdmissionController::ReleaseSlot(OpClass cls, uint64_t admitted_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassState& cs = state(cls);
  if (cs.inflight > 0) --cs.inflight;
  const uint64_t now = clock_->NowUs();
  double service =
      static_cast<double>(now > admitted_us ? now - admitted_us : 0);
  // Clamp the sample so one outlier (a scheduler preemption mid-op, a
  // cold page) cannot poison the estimate: raising it takes a sustained
  // run of slow completions, which is the signal we actually want.
  if (cs.ewma_service_us > 0) {
    service = std::min(service, 8.0 * cs.ewma_service_us);
  }
  cs.ewma_service_us = cs.ewma_service_us == 0
                           ? service
                           : 0.8 * cs.ewma_service_us + 0.2 * service;
  cs.last_sample_us = now;
  cs.cv.notify_one();
}

void AdmissionController::SetWriteThrottle(uint32_t reasons) {
  throttle_reasons_.store(reasons, std::memory_order_release);
}

size_t AdmissionController::InFlight(OpClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return state(cls).inflight;
}

size_t AdmissionController::Queued(OpClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return state(cls).waiters;
}

}  // namespace bg3::core
