#include "replication/checkpoint.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "replication/rw_node.h"

namespace bg3::replication {

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
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Status CheckpointManifest::Decode(const Slice& input, CheckpointManifest* out) {
  if (input.size() < 4) return Status::Corruption("checkpoint manifest short");
  const size_t body_len = input.size() - 4;
  const uint32_t stored_crc = DecodeFixed32(input.data() + body_len);
  if (Crc32c(input.data(), body_len) != stored_crc) {
    return Status::Corruption("checkpoint manifest crc mismatch");
  }
  Slice in(input.data(), body_len);
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

std::string CheckpointHeadKey(const std::string& scope) {
  return "ckpt/" + scope + "/head";
}

std::string CheckpointSlotKey(const std::string& scope, uint64_t epoch) {
  return "ckpt/" + scope + "/slot" + std::to_string(epoch & 1);
}

std::string WalCheckpointScope(cloud::StreamId stream) {
  return "wal" + std::to_string(stream);
}

Status PublishCheckpoint(cloud::CloudStore* store, const std::string& scope,
                         const CheckpointManifest& manifest) {
  // Slot first, head second. The head value is CRC-framed like the slots so
  // a torn head read is detectable rather than silently misdirecting.
  store->ManifestPut(CheckpointSlotKey(scope, manifest.epoch),
                     manifest.Encode());
  std::string head;
  PutFixed64(&head, manifest.epoch);
  PutFixed32(&head, Crc32c(head.data(), head.size()));
  store->ManifestPut(CheckpointHeadKey(scope), head);
  return Status::OK();
}

namespace {

/// Decodes one slot; any failure (missing, torn, epoch echo mismatch) is
/// reported as a non-OK status so the caller can fall back.
Status TryLoadSlot(cloud::CloudStore* store, const std::string& scope,
                   uint64_t epoch, const OpContext* ctx,
                   CheckpointManifest* out) {
  auto raw = store->ManifestGet(CheckpointSlotKey(scope, epoch), nullptr, ctx);
  BG3_RETURN_IF_ERROR(raw.status());
  BG3_RETURN_IF_ERROR(CheckpointManifest::Decode(Slice(raw.value()), out));
  if (out->epoch != epoch) {
    return Status::Corruption("checkpoint slot epoch mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<LoadedCheckpoint> LoadCheckpoint(cloud::CloudStore* store,
                                        const std::string& scope,
                                        const OpContext* ctx) {
  auto head_raw = store->ManifestGet(CheckpointHeadKey(scope), nullptr, ctx);
  if (head_raw.status().IsNotFound()) {
    return Status::NotFound("no checkpoint published for scope " + scope);
  }
  BG3_RETURN_IF_ERROR(head_raw.status());

  uint64_t head_epoch = 0;
  bool head_ok = false;
  {
    Slice in(head_raw.value());
    uint32_t crc = 0;
    if (in.size() == 12 && GetFixed64(&in, &head_epoch) &&
        GetFixed32(&in, &crc) &&
        crc == Crc32c(head_raw.value().data(), 8)) {
      head_ok = true;
    }
  }

  LoadedCheckpoint loaded;
  if (head_ok) {
    Status s = TryLoadSlot(store, scope, head_epoch, ctx, &loaded.manifest);
    if (s.ok()) return loaded;
    if (!s.IsNotFound() && !s.IsCorruption()) return s;  // substrate failure
    // Torn or missing head slot: fall back to the previous epoch's slot —
    // the publish order (slot, then head) guarantees it was complete before
    // the head ever pointed past it.
    loaded.fell_back = true;
    s = TryLoadSlot(store, scope, head_epoch - 1, ctx, &loaded.manifest);
    if (s.ok()) return loaded;
    if (!s.IsNotFound() && !s.IsCorruption()) return s;
    return Status::NotFound("no usable checkpoint for scope " + scope);
  }

  // Torn head: probe both slots and take the newest decodable manifest.
  loaded.fell_back = true;
  CheckpointManifest a, b;
  const bool have_a = TryLoadSlot(store, scope, 0, ctx, &a).ok();
  const bool have_b = TryLoadSlot(store, scope, 1, ctx, &b).ok();
  if (!have_a && !have_b) {
    return Status::NotFound("no usable checkpoint for scope " + scope);
  }
  if (have_a && (!have_b || a.epoch > b.epoch)) {
    loaded.manifest = std::move(a);
  } else {
    loaded.manifest = std::move(b);
  }
  return loaded;
}

std::string EpochRecord::Encode() const {
  std::string out;
  PutFixed64(&out, epoch);
  PutFixed64(&out, term);
  PutFixed32(&out, wal_stream);
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Status EpochRecord::Decode(const Slice& input, EpochRecord* out) {
  if (input.size() < 4) return Status::Corruption("epoch record short");
  const size_t body_len = input.size() - 4;
  const uint32_t stored_crc = DecodeFixed32(input.data() + body_len);
  if (Crc32c(input.data(), body_len) != stored_crc) {
    return Status::Corruption("epoch record crc mismatch");
  }
  Slice in(input.data(), body_len);
  if (!GetFixed64(&in, &out->epoch) || !GetFixed64(&in, &out->term) ||
      !GetFixed32(&in, &out->wal_stream) || !in.empty()) {
    return Status::Corruption("epoch record layout");
  }
  return Status::OK();
}

std::string EpochHeadKey(const std::string& scope) {
  return "epoch/" + scope + "/head";
}

std::string EpochSlotKey(const std::string& scope, uint64_t epoch) {
  return "epoch/" + scope + "/slot" + std::to_string(epoch & 1);
}

std::string WalEpochScope(cloud::StreamId stream) {
  return "wal" + std::to_string(stream);
}

namespace {

/// Decodes one epoch slot, echo-checking the epoch like checkpoint slots.
Status TryLoadEpochSlot(cloud::CloudStore* store, const std::string& scope,
                        uint64_t epoch, EpochRecord* out) {
  auto raw = store->ManifestGet(EpochSlotKey(scope, epoch));
  BG3_RETURN_IF_ERROR(raw.status());
  BG3_RETURN_IF_ERROR(EpochRecord::Decode(Slice(raw.value()), out));
  if ((out->epoch & 1) != (epoch & 1)) {
    return Status::Corruption("epoch slot echo mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<EpochRecord> LoadEpochRecord(cloud::CloudStore* store,
                                    const std::string& scope) {
  // Slots are self-validating (CRC plus parity echo), so recovery probes
  // both and takes the newest epoch. The head is only a hint: a promoter
  // can crash between the slot CAS and the head flip, leaving the head
  // torn or one epoch stale, and a head-directed read would then resurrect
  // a record from two epochs back.
  EpochRecord a, b;
  const bool have_a = TryLoadEpochSlot(store, scope, 0, &a).ok();
  const bool have_b = TryLoadEpochSlot(store, scope, 1, &b).ok();
  if (!have_a && !have_b) {
    return Status::NotFound("no epoch record for scope " + scope);
  }
  return (have_a && (!have_b || a.epoch > b.epoch)) ? a : b;
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

  // The CAS rides on the target *slot*: two racing promoters computed the
  // same next epoch, hence the same slot key and the same expected version —
  // exactly one Cas succeeds; the loser never reaches the head flip. (A
  // plain slot put with a head CAS would let the loser overwrite the
  // winner's slot bytes after the winner's head flip.)
  const std::string slot_key = EpochSlotKey(scope, rec.epoch);
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
  std::string head;
  PutFixed64(&head, rec.epoch);
  PutFixed32(&head, Crc32c(head.data(), head.size()));
  store->ManifestPut(EpochHeadKey(scope), head);
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
      scope_(WalCheckpointScope(wal_stream_)),
      metrics_prefix_("bg3.replication.ckpt" +
                      std::to_string(MetricsRegistry::NextInstanceId("ckpt")) +
                      ".") {
  // Continue the epoch sequence of any prior incarnation, so slot
  // alternation keeps protecting the previous manifest.
  if (auto prior = LoadCheckpoint(store_, scope_); prior.ok()) {
    epoch_ = prior.value().manifest.epoch;
    published_lsn_ = prior.value().manifest.checkpoint_lsn;
  }
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.RegisterCounter(metrics_prefix_ + "cuts_started", &stats_.cuts_started);
  reg.RegisterCounter(metrics_prefix_ + "pages_flushed", &stats_.pages_flushed);
  reg.RegisterCounter(metrics_prefix_ + "manifests_written",
                      &stats_.manifests_written);
  reg.RegisterCounter(metrics_prefix_ + "wal_extents_truncated",
                      &stats_.wal_extents_truncated);
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
  if (opts_.truncate_wal) {
    stats_.wal_extents_truncated.Add(
        store_->TruncateStreamBefore(m.wal_stream, cursor.ptr.extent_id));
  }
  cut_ = Cut{};
  return Status::OK();
}

}  // namespace bg3::replication
