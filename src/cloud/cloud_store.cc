#include "cloud/cloud_store.h"

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/timed_scope.h"

namespace bg3::cloud {

void IoStats::RegisterWith(MetricsRegistry* registry,
                           const std::string& prefix) const {
  registry->RegisterCounter(prefix + "append_ops", &append_ops);
  registry->RegisterCounter(prefix + "append_bytes", &append_bytes);
  registry->RegisterCounter(prefix + "read_ops", &read_ops);
  registry->RegisterCounter(prefix + "read_bytes", &read_bytes);
  registry->RegisterCounter(prefix + "gc_moved_bytes", &gc_moved_bytes);
  registry->RegisterCounter(prefix + "extents_freed", &extents_freed);
  registry->RegisterCounter(prefix + "manifest_updates", &manifest_updates);
  registry->RegisterCounter(prefix + "injected_faults", &injected_faults);
  registry->RegisterCounter(prefix + "retries", &retries);
  registry->RegisterCounter(prefix + "retry_exhausted", &retry_exhausted);
}

CloudStore::CloudStore(const CloudStoreOptions& opts)
    : opts_(opts),
      metrics_prefix_("bg3.cloud.store" +
                      std::to_string(MetricsRegistry::NextInstanceId("store")) +
                      "."),
      clock_(opts.time_source != nullptr ? opts.time_source
                                         : DefaultWallTimeSource()),
      latency_model_(opts.latency),
      breaker_(opts.breaker, clock_) {
  topology_mu_.SetRank(lock_rank::kCloudStore_topology_mu,
                       "CloudStore::topology_mu_");
  manifest_mu_.SetRank(lock_rank::kCloudStore_manifest_mu,
                       "CloudStore::manifest_mu_");
  MetricsRegistry& reg = MetricsRegistry::Default();
  stats_.RegisterWith(&reg, metrics_prefix_);
  reg.RegisterCallback(metrics_prefix_ + "total_bytes",
                       [this] { return TotalBytes(); });
  reg.RegisterCallback(metrics_prefix_ + "live_bytes",
                       [this] { return LiveBytes(); });
}

CloudStore::~CloudStore() {
  // Fold this store's lifetime totals into the registry-owned retired
  // counters before the external registrations vanish: benches that build
  // and tear down stores per scenario keep an I/O record that survives into
  // the final BENCH_<name>.json (summed there with live stores').
  MetricsRegistry& reg = MetricsRegistry::Default();
  static constexpr const char kRetired[] = "bg3.cloud.retired.";
  reg.GetCounter(std::string(kRetired) + "append_ops")
      ->Add(stats_.append_ops.Get());
  reg.GetCounter(std::string(kRetired) + "append_bytes")
      ->Add(stats_.append_bytes.Get());
  reg.GetCounter(std::string(kRetired) + "read_ops")
      ->Add(stats_.read_ops.Get());
  reg.GetCounter(std::string(kRetired) + "read_bytes")
      ->Add(stats_.read_bytes.Get());
  reg.GetCounter(std::string(kRetired) + "gc_moved_bytes")
      ->Add(stats_.gc_moved_bytes.Get());
  reg.GetCounter(std::string(kRetired) + "extents_freed")
      ->Add(stats_.extents_freed.Get());
  reg.GetCounter(std::string(kRetired) + "manifest_updates")
      ->Add(stats_.manifest_updates.Get());
  reg.GetCounter(std::string(kRetired) + "injected_faults")
      ->Add(stats_.injected_faults.Get());
  reg.GetCounter(std::string(kRetired) + "retries")->Add(stats_.retries.Get());
  reg.GetCounter(std::string(kRetired) + "retry_exhausted")
      ->Add(stats_.retry_exhausted.Get());
  reg.DeregisterPrefix(metrics_prefix_);
}

StreamId CloudStore::CreateStream(const std::string& name) {
  WriterMutexLock lock(&topology_mu_);
  auto it = stream_names_.find(name);
  if (it != stream_names_.end()) return it->second;
  const StreamId id = static_cast<StreamId>(streams_.size());
  streams_.push_back(std::make_unique<Stream>(id, name, opts_.extent_capacity,
                                              &next_extent_id_));
  stream_names_.emplace(name, id);
  return id;
}

Stream* CloudStore::GetStream(StreamId id) const {
  ReaderMutexLock lock(&topology_mu_);
  return id < streams_.size() ? streams_[id].get() : nullptr;
}

Status CloudStore::CheckBreaker() const {
  if (breaker_.Allow()) return Status::OK();
  return Status::Overloaded("cloud circuit breaker open");
}

template <typename Op>
auto CloudStore::Retry(const OpContext* ctx, bool retry_corruption,
                       Op&& op) const -> decltype(op()) {
  return RetryWithBackoff(
      opts_.retry, ctx,
      [retry_corruption](const Status& s) {
        return IsTransient(s) || (retry_corruption && s.IsCorruption());
      },
      [&] {
        stats_.retries.Inc();
        OpStats::RecordRetry(ctx != nullptr ? ctx->stats : nullptr);
      },
      [&] {
        stats_.retry_exhausted.Inc();
        breaker_.RecordFailure();
      },
      op);
}

FaultDecision CloudStore::DecideFault(FaultOp op) const {
  FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
  if (injector == nullptr) return {};
  FaultDecision d = injector->Decide(op);
  if (d.Any()) stats_.injected_faults.Inc();
  return d;
}

Result<PagePointer> CloudStore::Append(StreamId stream, const Slice& record,
                                       uint64_t* latency_us,
                                       const OpContext* ctx) {
  return Retry(ctx, /*retry_corruption=*/false, [&] {
    return AppendImpl(stream, /*fenced=*/false, /*term=*/0, record,
                      latency_us, ctx);
  });
}

Result<PagePointer> CloudStore::AppendFenced(StreamId stream, uint64_t term,
                                             const Slice& record,
                                             uint64_t* latency_us,
                                             const OpContext* ctx) {
  return Retry(ctx, /*retry_corruption=*/false, [&] {
    return AppendImpl(stream, /*fenced=*/true, term, record, latency_us, ctx);
  });
}

void CloudStore::FenceStream(StreamId stream, uint64_t min_term) {
  Stream* s = GetStream(stream);
  if (s != nullptr) s->Fence(min_term);
}

uint64_t CloudStore::StreamFenceTerm(StreamId stream) const {
  const Stream* s = GetStream(stream);
  return s == nullptr ? 0 : s->fence_term();
}

Result<PagePointer> CloudStore::AppendImpl(StreamId stream, bool fenced,
                                           uint64_t term, const Slice& record,
                                           uint64_t* latency_us,
                                           const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.cloud.append");
  Stream* s = GetStream(stream);
  if (s == nullptr) return Status::InvalidArgument("unknown stream");
  BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "cloud append"));
  BG3_RETURN_IF_ERROR(CheckLatencyBudget(
      ctx, latency_model_.AppendLatencyUs(record.size()), "append"));
  BG3_RETURN_IF_ERROR(CheckBreaker());
  // Places the record, honoring the fence check atomically with placement
  // when this is a fenced append.
  auto place = [&]() -> Result<PagePointer> {
    if (fenced) return s->AppendFenced(record, term);
    return s->Append(record);
  };
  const FaultDecision fault = DecideFault(FaultOp::kAppend);
  if (fault.fail) {
    breaker_.RecordError();
    return Status::IOError("injected transient append failure");
  }
  if (fault.torn) {
    // Torn append: the bytes land at the stream tail but the write is cut
    // short — the tail half is garbage, every subsequent read fails its
    // CRC-32C check, and the caller sees an I/O error (the storage service
    // died mid-append before acknowledging). The dead bytes occupy extent
    // capacity until GC frees it, exactly like a real partial append, so
    // the record is appended for real, then garbled and invalidated.
    Result<PagePointer> placed = place();
    if (!placed.ok()) {
      // A fenced rejection is a healthy answer, not a substrate failure —
      // and it wins over the injected fault (the record never landed).
      breaker_.RecordSuccess();
      return placed.status();
    }
    const PagePointer ptr = placed.value();
    stats_.append_ops.Inc();
    stats_.append_bytes.Add(record.size());
    // The bytes landed (and were billed by the service) even though the
    // caller sees an error — the request account mirrors the store's.
    OpStats::RecordCloudAppend(ctx != nullptr ? ctx->stats : nullptr,
                               record.size());
    StoreObserver* obs = observer_.load(std::memory_order_acquire);
    if (obs != nullptr) obs->OnAppend(ptr);
    if (record.size() > 0) {
      const uint32_t half = static_cast<uint32_t>(record.size() / 2);
      const uint32_t tail_len = static_cast<uint32_t>(record.size()) - half;
      s->CorruptRecordForTesting(ptr, half + fault.torn_byte_draw % tail_len);
    }
    s->MarkInvalid(ptr);  // never becomes live data
    if (obs != nullptr) obs->OnInvalidate(ptr);
    breaker_.RecordError();
    return Status::IOError("injected torn append at stream tail");
  }
  Result<PagePointer> placed = place();
  if (!placed.ok()) {
    // Status::Fenced: the stream correctly rejected a deposed writer.
    breaker_.RecordSuccess();
    return placed.status();
  }
  const PagePointer ptr = placed.value();
  stats_.append_ops.Inc();
  stats_.append_bytes.Add(record.size());
  OpStats::RecordCloudAppend(ctx != nullptr ? ctx->stats : nullptr,
                             record.size());
  breaker_.RecordSuccess();
  if (StoreObserver* obs = observer_.load(std::memory_order_acquire)) {
    obs->OnAppend(ptr);
  }
  if (latency_us != nullptr) {
    *latency_us =
        latency_model_.AppendLatencyUs(record.size()) + fault.extra_latency_us;
    // Simulated service latency distribution (virtual clock; the wall-time
    // scope above measures only the in-memory substrate).
    static Histogram* const sim_hist =
        MetricsRegistry::Default().GetHistogram("bg3.cloud.append_sim_us");
    if (obs::TimingEnabled()) sim_hist->Record(*latency_us);
  }
  return ptr;
}

Result<std::string> CloudStore::Read(const PagePointer& ptr,
                                     uint64_t* latency_us,
                                     const OpContext* ctx) {
  return Retry(ctx, /*retry_corruption=*/true,
               [&] { return ReadOnce(ptr, latency_us, ctx); });
}

Result<std::string> CloudStore::ReadOnce(const PagePointer& ptr,
                                         uint64_t* latency_us,
                                         const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.cloud.read");
  Stream* s = GetStream(ptr.stream_id);
  if (s == nullptr) return Status::InvalidArgument("unknown stream");
  BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "cloud read"));
  // Record size is unknown until read; the base cost is a lower bound on
  // the predicted latency, which is all fail-fast needs.
  BG3_RETURN_IF_ERROR(
      CheckLatencyBudget(ctx, latency_model_.ReadLatencyUs(0), "read"));
  BG3_RETURN_IF_ERROR(CheckBreaker());
  const FaultDecision fault = DecideFault(FaultOp::kRead);
  if (fault.fail) {
    breaker_.RecordError();
    return Status::IOError("injected transient read failure");
  }
  if (fault.corrupt) {
    // Bit flips on the wire: the stored record is intact, so a retry of the
    // same pointer succeeds (unlike CorruptRecordForTesting, which damages
    // the medium itself).
    breaker_.RecordError();
    return Status::Corruption("injected corrupt read (checksum mismatch)");
  }
  std::string out;
  {
    Status read_status = s->Read(ptr, &out);
    if (!read_status.ok()) {
      breaker_.RecordError();
      return read_status;
    }
  }
  stats_.read_ops.Inc();
  stats_.read_bytes.Add(out.size());
  OpStats::RecordCloudRead(ctx != nullptr ? ctx->stats : nullptr, out.size());
  breaker_.RecordSuccess();
  if (latency_us != nullptr) {
    *latency_us =
        latency_model_.ReadLatencyUs(out.size()) + fault.extra_latency_us;
    static Histogram* const sim_hist =
        MetricsRegistry::Default().GetHistogram("bg3.cloud.read_sim_us");
    if (obs::TimingEnabled()) sim_hist->Record(*latency_us);
  }
  return out;
}

void CloudStore::MarkInvalid(const PagePointer& ptr) {
  Stream* s = GetStream(ptr.stream_id);
  if (s != nullptr) {
    s->MarkInvalid(ptr);
    if (StoreObserver* obs = observer_.load(std::memory_order_acquire)) {
      obs->OnInvalidate(ptr);
    }
  }
}

Status CloudStore::FreeExtent(StreamId stream, ExtentId extent) {
  Stream* s = GetStream(stream);
  if (s == nullptr) return Status::InvalidArgument("unknown stream");
  BG3_RETURN_IF_ERROR(Retry(nullptr, /*retry_corruption=*/false, [&] {
    if (DecideFault(FaultOp::kFreeExtent).fail) {
      return Status::IOError("injected transient free-extent failure");
    }
    return s->FreeExtent(extent);
  }));
  stats_.extents_freed.Inc();
  if (StoreObserver* obs = observer_.load(std::memory_order_acquire)) {
    obs->OnExtentFreed(stream, extent);
  }
  return Status::OK();
}

std::vector<ExtentStats> CloudStore::SealedExtentStats(StreamId stream) const {
  const Stream* s = GetStream(stream);
  if (s == nullptr) return {};
  return s->SealedExtentStats();
}

Result<std::vector<std::pair<PagePointer, std::string>>>
CloudStore::ReadValidRecords(StreamId stream, ExtentId extent,
                             const OpContext* ctx) {
  Stream* s = GetStream(stream);
  if (s == nullptr) return Status::InvalidArgument("unknown stream");
  BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "cloud extent scan"));
  BG3_RETURN_IF_ERROR(CheckBreaker());
  auto result = s->ReadValidRecords(extent);
  if (result.ok()) {
    for (const auto& [ptr, data] : result.value()) {
      stats_.read_ops.Inc();
      stats_.read_bytes.Add(data.size());
      OpStats::RecordCloudRead(ctx != nullptr ? ctx->stats : nullptr,
                               data.size());
    }
    breaker_.RecordSuccess();
  } else {
    breaker_.RecordError();
  }
  return result;
}

Result<std::vector<std::pair<PagePointer, std::string>>>
CloudStore::TailRecords(StreamId stream, const PagePointer& cursor,
                        size_t max_records, const OpContext* ctx) {
  Stream* s = GetStream(stream);
  if (s == nullptr) return Status::InvalidArgument("unknown stream");
  return Retry(
      ctx, /*retry_corruption=*/false,
      [&]() -> Result<std::vector<std::pair<PagePointer, std::string>>> {
        BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "cloud tail"));
        BG3_RETURN_IF_ERROR(CheckBreaker());
        if (DecideFault(FaultOp::kTail).fail) {
          breaker_.RecordError();
          return Status::IOError("injected transient tail failure");
        }
        auto out = s->TailRecords(cursor, max_records);
        for (const auto& [ptr, data] : out) {
          stats_.read_ops.Inc();
          stats_.read_bytes.Add(data.size());
          OpStats::RecordCloudRead(ctx != nullptr ? ctx->stats : nullptr,
                                   data.size());
        }
        breaker_.RecordSuccess();
        return out;
      });
}

bool CloudStore::CorruptRecordForTesting(const PagePointer& ptr,
                                         uint32_t byte_index) {
  Stream* s = GetStream(ptr.stream_id);
  return s != nullptr && s->CorruptRecordForTesting(ptr, byte_index);
}

uint64_t CloudStore::ManifestPut(const std::string& key, const Slice& value) {
  MutexLock lock(&manifest_mu_);
  const uint64_t version = ++manifest_version_;
  manifest_[key] = {value.ToString(), version};
  stats_.manifest_updates.Inc();
  return version;
}

Result<uint64_t> CloudStore::ManifestCas(const std::string& key,
                                         uint64_t expected_version,
                                         const Slice& value) {
  MutexLock lock(&manifest_mu_);
  auto it = manifest_.find(key);
  const uint64_t current = it == manifest_.end() ? 0 : it->second.second;
  if (current != expected_version) {
    return Status::Aborted("manifest CAS lost on " + key + ": expected v" +
                           std::to_string(expected_version) + ", current v" +
                           std::to_string(current));
  }
  const uint64_t version = ++manifest_version_;
  manifest_[key] = {value.ToString(), version};
  stats_.manifest_updates.Inc();
  return version;
}

Result<std::string> CloudStore::ManifestGet(const std::string& key,
                                            uint64_t* version,
                                            const OpContext* ctx) const {
  return Retry(ctx, /*retry_corruption=*/false, [&]() -> Result<std::string> {
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "cloud manifest get"));
    BG3_RETURN_IF_ERROR(CheckBreaker());
    if (DecideFault(FaultOp::kManifestGet).fail) {
      breaker_.RecordError();
      return Status::IOError("injected transient manifest-get failure");
    }
    MutexLock lock(&manifest_mu_);
    auto it = manifest_.find(key);
    // NotFound is an answer from a healthy substrate, not a substrate error.
    breaker_.RecordSuccess();
    if (it == manifest_.end()) return Status::NotFound("manifest key " + key);
    if (version != nullptr) *version = it->second.second;
    return it->second.first;
  });
}

std::vector<std::pair<std::string, std::string>> CloudStore::ManifestList(
    const std::string& prefix) const {
  MutexLock lock(&manifest_mu_);
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = manifest_.lower_bound(prefix); it != manifest_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second.first);
  }
  return out;
}

size_t CloudStore::TruncateStreamBefore(StreamId stream, ExtentId before) {
  Stream* s = GetStream(stream);
  if (s == nullptr) return 0;
  size_t freed = 0;
  for (const ExtentStats& stats : s->SealedExtentStats()) {
    if (stats.id >= before) continue;
    if (s->FreeExtent(stats.id).ok()) {
      stats_.extents_freed.Inc();
      if (StoreObserver* obs = observer_.load(std::memory_order_acquire)) {
        obs->OnExtentFreed(stream, stats.id);
      }
      ++freed;
    }
  }
  return freed;
}

uint64_t CloudStore::TotalBytes() const {
  ReaderMutexLock lock(&topology_mu_);
  uint64_t sum = 0;
  for (const auto& s : streams_) sum += s->total_bytes();
  return sum;
}

uint64_t CloudStore::LiveBytes() const {
  ReaderMutexLock lock(&topology_mu_);
  uint64_t sum = 0;
  for (const auto& s : streams_) sum += s->live_bytes();
  return sum;
}

uint64_t CloudStore::TotalBytes(StreamId stream) const {
  const Stream* s = GetStream(stream);
  return s == nullptr ? 0 : s->total_bytes();
}

uint64_t CloudStore::LiveBytes(StreamId stream) const {
  const Stream* s = GetStream(stream);
  return s == nullptr ? 0 : s->live_bytes();
}

}  // namespace bg3::cloud
