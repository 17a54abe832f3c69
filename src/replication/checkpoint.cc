#include "replication/checkpoint.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "replication/rw_node.h"

namespace bg3::replication {

namespace {

/// Appends the CRC-32C of everything before it: the frame of every record
/// in the manifest area.
void SealFrame(std::string* out) {
  PutFixed32(out, Crc32c(out->data(), out->size()));
}

/// The body of a sealed record; Corruption when it is short or its CRC does
/// not match.
Status OpenFrame(const Slice& input, std::string_view what, Slice* body) {
  if (input.size() < 4) {
    return Status::Corruption(std::string(what) + " short");
  }
  const size_t body_len = input.size() - 4;
  if (Crc32c(input.data(), body_len) !=
      DecodeFixed32(input.data() + body_len)) {
    return Status::Corruption(std::string(what) + " crc mismatch");
  }
  *body = Slice(input.data(), body_len);
  return Status::OK();
}

/// The one loader of the manifest area. A slot is valid when its CRC holds,
/// it decodes, and its epoch's parity matches the slot's; the valid record
/// with the higher epoch wins. `*fell_back` reports a slot that held bytes
/// failing those checks. A substrate error on either read is returned as
/// is: the slot it could not read may hold the newer record.
template <typename Record>
Result<Record> LoadNewestSlot(cloud::CloudStore* store,
                              const std::string& scope, const OpContext* ctx,
                              bool* fell_back) {
  std::optional<Record> newest;
  *fell_back = false;
  for (uint64_t parity = 0; parity < 2; ++parity) {
    auto raw =
        store->ManifestGet(SlotKey(Record::kKind, scope, parity), nullptr, ctx);
    if (raw.status().IsNotFound()) continue;
    BG3_RETURN_IF_ERROR(raw.status());
    Record rec;
    if (!Record::Decode(Slice(raw.value()), &rec).ok() ||
        (rec.epoch & 1) != parity) {
      *fell_back = true;
      continue;
    }
    if (!newest.has_value() || rec.epoch > newest->epoch) {
      newest = std::move(rec);
    }
  }
  if (!newest.has_value()) {
    return Status::NotFound("no " + std::string(Record::kKind) +
                            " record for scope " + scope);
  }
  return std::move(*newest);
}

}  // namespace

std::string SlotKey(std::string_view kind, const std::string& scope,
                    uint64_t epoch) {
  return std::string(kind) + "/" + scope + "/slot" + std::to_string(epoch & 1);
}

std::string WalScope(cloud::StreamId stream) {
  return "wal" + std::to_string(stream);
}

std::string CheckpointManifest::Encode() const {
  std::string out;
  PutFixed64(&out, epoch);
  PutFixed32(&out, wal_stream);
  wal_cursor.EncodeTo(&out);
  PutFixed64(&out, checkpoint_lsn);
  PutVarint32(&out, static_cast<uint32_t>(trees.size()));
  for (const CheckpointTree& t : trees) {
    PutVarint64(&out, t.tree_id);
    PutFixed64(&out, t.flushed_lsn);
  }
  PutVarint64(&out, wal_term);
  PutVarint64(&out, wal_seq);
  SealFrame(&out);
  return out;
}

Status CheckpointManifest::Decode(const Slice& input, CheckpointManifest* out) {
  Slice in;
  BG3_RETURN_IF_ERROR(OpenFrame(input, "checkpoint manifest", &in));
  uint32_t tree_count = 0;
  if (!GetFixed64(&in, &out->epoch) || !GetFixed32(&in, &out->wal_stream) ||
      !cloud::PagePointer::DecodeFrom(&in, &out->wal_cursor) ||
      !GetFixed64(&in, &out->checkpoint_lsn) ||
      !GetVarint32(&in, &tree_count)) {
    return Status::Corruption("checkpoint manifest header");
  }
  out->trees.clear();
  out->trees.reserve(tree_count);
  for (uint32_t i = 0; i < tree_count; ++i) {
    CheckpointTree t;
    if (!GetVarint64(&in, &t.tree_id) || !GetFixed64(&in, &t.flushed_lsn)) {
      return Status::Corruption("checkpoint manifest tree entry");
    }
    out->trees.push_back(t);
  }
  if (!GetVarint64(&in, &out->wal_term) || !GetVarint64(&in, &out->wal_seq)) {
    return Status::Corruption("checkpoint manifest wal frame identity");
  }
  if (!in.empty()) return Status::Corruption("checkpoint manifest trailing");
  return Status::OK();
}

Status PublishCheckpoint(cloud::CloudStore* store, const std::string& scope,
                         const CheckpointManifest& manifest) {
  store->ManifestPut(SlotKey(CheckpointManifest::kKind, scope, manifest.epoch),
                     manifest.Encode());
  return Status::OK();
}

Result<LoadedCheckpoint> LoadCheckpoint(cloud::CloudStore* store,
                                        const std::string& scope,
                                        const OpContext* ctx) {
  LoadedCheckpoint loaded;
  auto newest = LoadNewestSlot<CheckpointManifest>(store, scope, ctx,
                                                   &loaded.fell_back);
  BG3_RETURN_IF_ERROR(newest.status());
  loaded.manifest = newest.take();
  return loaded;
}

std::string EpochRecord::Encode() const {
  std::string out;
  PutFixed64(&out, epoch);
  PutFixed64(&out, term);
  PutFixed32(&out, wal_stream);
  SealFrame(&out);
  return out;
}

Status EpochRecord::Decode(const Slice& input, EpochRecord* out) {
  Slice in;
  BG3_RETURN_IF_ERROR(OpenFrame(input, "epoch record", &in));
  if (!GetFixed64(&in, &out->epoch) || !GetFixed64(&in, &out->term) ||
      !GetFixed32(&in, &out->wal_stream) || !in.empty()) {
    return Status::Corruption("epoch record layout");
  }
  return Status::OK();
}

Result<EpochRecord> LoadEpochRecord(cloud::CloudStore* store,
                                    const std::string& scope) {
  bool fell_back = false;
  return LoadNewestSlot<EpochRecord>(store, scope, nullptr, &fell_back);
}

Result<EpochRecord> PublishEpochRecord(cloud::CloudStore* store,
                                       const std::string& scope,
                                       uint64_t term,
                                       cloud::StreamId wal_stream) {
  EpochRecord current;
  auto loaded = LoadEpochRecord(store, scope);
  if (loaded.ok()) {
    current = loaded.value();
    if (term <= current.term) {
      return Status::Aborted("epoch term " + std::to_string(term) +
                             " not newer than current " +
                             std::to_string(current.term));
    }
  } else if (!loaded.status().IsNotFound()) {
    return loaded.status();
  }

  EpochRecord rec;
  rec.epoch = current.epoch + 1;
  rec.term = term;
  rec.wal_stream = wal_stream;

  // The CAS rides on the target slot: two racing promoters computed the
  // same next epoch, hence the same slot key and the same expected version —
  // exactly one Cas succeeds. (A plain put would let the loser overwrite
  // the winner's record.)
  const std::string slot_key = SlotKey(EpochRecord::kKind, scope, rec.epoch);
  uint64_t slot_version = 0;
  {
    auto existing = store->ManifestGet(slot_key, &slot_version);
    if (!existing.ok() && !existing.status().IsNotFound()) {
      return existing.status();
    }
    if (existing.status().IsNotFound()) slot_version = 0;
    // The version is read after the load above: a rival that published
    // this epoch in between must still make us lose, not hand us its
    // version to CAS over its record.
    EpochRecord prior;
    if (existing.ok() &&
        EpochRecord::Decode(Slice(existing.value()), &prior).ok() &&
        prior.epoch >= rec.epoch) {
      return Status::Aborted("lost promotion race for scope " + scope);
    }
  }
  auto cas = store->ManifestCas(slot_key, slot_version, rec.Encode());
  if (!cas.ok()) {
    return cas.status().IsAborted()
               ? Status::Aborted("lost promotion race for scope " + scope)
               : cas.status();
  }
  return rec;
}

Status FlushTreeUntilStable(bwtree::BwTree* tree) {
  size_t leaves;
  do {
    leaves = tree->LeafCount();
    for (bwtree::PageId page : tree->DirtyPageIds()) {
      Status s = tree->FlushPage(page);
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  } while (tree->LeafCount() != leaves);
  return Status::OK();
}

Checkpointer::Checkpointer(cloud::CloudStore* store, RwNode* node,
                           const CheckpointerOptions& options)
    : store_(store),
      node_(node),
      opts_(options),
      wal_stream_(node->options().wal.stream),
      scope_(WalScope(wal_stream_)),
      horizon_(store, /*pinned=*/true),
      metrics_prefix_("bg3.replication.ckpt" +
                      std::to_string(MetricsRegistry::NextInstanceId("ckpt")) +
                      ".") {
  // Continue the epoch sequence of any prior incarnation, so slot
  // alternation keeps protecting the previous manifest. A read the
  // substrate fails is retried before the first publish.
  BG3_IGNORE_STATUS(LoadPublishedLocked());
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.RegisterCounter(metrics_prefix_ + "cuts_started", &stats_.cuts_started);
  reg.RegisterCounter(metrics_prefix_ + "pages_flushed", &stats_.pages_flushed);
  reg.RegisterCounter(metrics_prefix_ + "manifests_written",
                      &stats_.manifests_written);
  reg.RegisterCounter(metrics_prefix_ + "wal_extents_truncated",
                      &stats_.wal_extents_truncated);
  reg.RegisterGauge(metrics_prefix_ + "retired_extents",
                    &horizon_.retired_extents());
  reg.RegisterGauge(metrics_prefix_ + "retired_bytes",
                    &horizon_.retired_bytes());
  reg.RegisterCounter(metrics_prefix_ + "step_errors", &stats_.step_errors);
}

Checkpointer::~Checkpointer() {
  Stop();
  MetricsRegistry::Default().DeregisterPrefix(metrics_prefix_);
}

void Checkpointer::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { ThreadMain(); });
}

void Checkpointer::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!running_) return;
    stop_ = true;
  }
  thread_cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    running_ = false;
  }
}

void Checkpointer::ThreadMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(thread_mu_);
      thread_cv_.wait_for(lock, std::chrono::milliseconds(opts_.interval_ms),
                          [this] { return stop_; });
      if (stop_) return;
    }
    // Substrate errors abandon the step but keep the cut open; the next
    // tick resumes where this one stopped (counted in step_errors).
    BG3_IGNORE_STATUS(Step());
  }
}

Status Checkpointer::Step() {
  std::lock_guard<std::mutex> lock(mu_);
  return StepLocked();
}

Status Checkpointer::CheckpointNow() {
  // Read before waiting for the mutex: a caller whose mutations a
  // concurrent call already made durable then returns at once.
  const bwtree::Lsn entry_lsn = node_->CurrentLsn();
  std::lock_guard<std::mutex> lock(mu_);
  if (!cut_.active && published_lsn_ >= entry_lsn &&
      !node_->HasPendingImages()) {
    return Status::OK();
  }
  // An open cut may have begun before some of the caller's mutations;
  // finishing it alone would leave them uncovered, so a second cut follows.
  do {
    BG3_RETURN_IF_ERROR(StepLocked());
  } while (cut_.active || published_lsn_ < entry_lsn);
  return Status::OK();
}

bool Checkpointer::CutInProgress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cut_.active;
}

uint64_t Checkpointer::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

bwtree::Lsn Checkpointer::published_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_lsn_;
}

size_t Checkpointer::TruncateWal(cloud::ExtentId reader_floor) {
  const size_t freed = horizon_.TruncateWal(wal_stream_, reader_floor);
  stats_.wal_extents_truncated.Add(freed);
  return freed;
}

Status Checkpointer::LoadPublishedLocked() {
  auto prior = LoadCheckpoint(store_, scope_);
  if (prior.ok()) {
    const CheckpointManifest& m = prior.value().manifest;
    epoch_ = m.epoch;
    published_lsn_ = m.checkpoint_lsn;
    horizon_.Publish(m.epoch, /*cut=*/0, m.wal_cursor);
  } else if (!prior.status().IsNotFound()) {
    return prior.status();
  }
  published_loaded_ = true;
  return Status::OK();
}

Status Checkpointer::StepLocked() {
  if (!cut_.active) {
    if (node_->CurrentLsn() == published_lsn_ &&
        !node_->HasPendingImages()) {
      return Status::OK();  // nothing durable to add since the last manifest
    }
    // Fuzzy-cut capture (see the class comment for the soundness argument).
    // The node's WAL flush barrier waits out every in-flight pipelined
    // append, so the committed cursor it leaves behind is gap-free: nothing
    // with a higher seq can land physically before it.
    CutStart start;
    BG3_RETURN_IF_ERROR(node_->BeginCut(&start));
    cut_.start = std::move(start);
    cut_.number = horizon_.BeginCut();
    cut_.next = 0;
    cut_.active = true;
    stats_.cuts_started.Inc();
    return Status::OK();
  }

  const auto& pending = cut_.start.dirty;
  if (cut_.next < pending.size()) {
    const size_t end =
        std::min(pending.size(), cut_.next + opts_.max_pages_per_round);
    while (cut_.next < end) {
      // A page flushed since the snapshot (say, by GC relocation) is
      // already clean — FlushPage is a latched no-op then; its staged image
      // publishes with our commit.
      const auto& [tree, page] = pending[cut_.next];
      Status s = node_->FlushPage(tree, page);
      if (!s.ok() && !s.IsNotFound()) {
        stats_.step_errors.Inc();
        return s;
      }
      stats_.pages_flushed.Inc();
      ++cut_.next;
    }
    if (cut_.next < pending.size()) return Status::OK();
  }

  if (Status s = PublishCutLocked(); !s.ok()) {
    stats_.step_errors.Inc();
    return s;
  }
  return Status::OK();
}

Status Checkpointer::PublishCutLocked() {
  if (!published_loaded_) BG3_RETURN_IF_ERROR(LoadPublishedLocked());
  // Every page of the cut has an image staged (or already published).
  // Publish order: mapping entries and the node's WAL checkpoint record
  // first, the checkpoint manifest last — the manifest's promise ("images
  // cover everything <= checkpoint_lsn") must never be readable before the
  // images themselves are.
  const bwtree::Lsn lsn = cut_.start.lsn;
  const wal::WalCursor& cursor = cut_.start.wal_cursor;
  CheckpointManifest m;
  BG3_RETURN_IF_ERROR(node_->CommitCheckpoint(lsn, &m));
  m.epoch = epoch_ + 1;
  m.wal_stream = wal_stream_;
  m.wal_cursor = cursor.ptr;
  m.wal_term = cursor.term;
  m.wal_seq = cursor.seq;
  BG3_RETURN_IF_ERROR(PublishCheckpoint(store_, scope_, m));
  epoch_ = m.epoch;
  published_lsn_ = lsn;
  stats_.manifests_written.Inc();
  horizon_.Publish(m.epoch, cut_.number, cursor.ptr);
  cut_ = Cut{};
  return Status::OK();
}

}  // namespace bg3::replication
