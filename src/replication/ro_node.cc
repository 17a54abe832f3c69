#include "replication/ro_node.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/timed_scope.h"
#include "replication/checkpoint.h"
#include "replication/page_image.h"

namespace bg3::replication {

namespace {

bool KeyInRange(const Slice& key, const std::string& low,
                const std::string& high, bool has_high) {
  return key.compare(Slice(low)) >= 0 &&
         (!has_high || key.compare(Slice(high)) < 0);
}

/// Reads a page's published image into `*image`; false when the page was
/// never flushed (NotFound). Any other failure must not be mistaken for
/// that: rebuilding such a page from its ancestors would lose the image.
Result<bool> LoadImage(cloud::CloudStore* store, bwtree::TreeId tree,
                       bwtree::PageId page, PageImageMeta* image,
                       const OpContext* ctx = nullptr) {
  auto manifest = store->ManifestGet(PageImageKey(tree, page), nullptr, ctx);
  if (manifest.status().IsNotFound()) return false;
  BG3_RETURN_IF_ERROR(manifest.status());
  BG3_RETURN_IF_ERROR(PageImageMeta::Decode(Slice(manifest.value()), image));
  return true;
}

}  // namespace

RoNode::RoNode(cloud::CloudStore* store, const RoNodeOptions& options)
    : store_(store),
      opts_(options),
      reader_(store, options.wal_stream),
      rng_(options.seed),
      metrics_prefix_("bg3.replication.ro" +
                      std::to_string(MetricsRegistry::NextInstanceId("ro")) +
                      ".") {
  mu_.SetRank(lock_rank::kRoNode_mu, "RoNode::mu_");
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.RegisterHistogram(metrics_prefix_ + "sync_latency_us", &sync_latency_);
  reg.RegisterCounter(metrics_prefix_ + "cache_hits", &stats_.cache_hits);
  reg.RegisterCounter(metrics_prefix_ + "cache_misses", &stats_.cache_misses);
  reg.RegisterCounter(metrics_prefix_ + "wal_mutations", &stats_.wal_mutations);
  reg.RegisterCounter(metrics_prefix_ + "replayed", &stats_.replayed);
  reg.RegisterCounter(metrics_prefix_ + "storage_reads", &stats_.storage_reads);
  reg.RegisterCounter(metrics_prefix_ + "poll_degraded", &stats_.poll_degraded);
  reg.RegisterGauge(metrics_prefix_ + "overload.degraded", &stats_.degraded);
  reg.RegisterCallback(metrics_prefix_ + "cache_bytes",
                       [this] { return CacheBytes(); });
}

RoNode::~RoNode() {
  MetricsRegistry::Default().DeregisterPrefix(metrics_prefix_);
}

Status RoNode::PollWal() {
  BG3_TIMED_SCOPE("bg3.replication.poll", OpLayer::kReplication);
  WriterMutexLock lock(&mu_);
  return PollWalLocked();
}

Status RoNode::PollWalLocked() {
  if (!bootstrapped_) {
    BootstrapFromManifestLocked();
    bootstrapped_ = true;
  }
  // Drain everything appended since the last poll (the reader returns at
  // most a bounded batch count per call).
  for (;;) {
    auto records = reader_.Poll();
    if (!records.ok() && cloud::IsTransient(records.status())) {
      // The tail's retry budget ran dry. Degradation, not failure: the WAL
      // cursor has not moved, so the node simply falls behind and catches
      // up on a later poll. Reads served meanwhile see the last
      // consistently replicated state.
      stats_.poll_degraded.Inc();
      stats_.degraded.Set(1);
      return Status::OK();
    }
    BG3_RETURN_IF_ERROR(records.status());
    if (records.value().empty()) {
      stats_.degraded.Set(0);  // fully caught up with the WAL again.
      return Status::OK();
    }
    for (const wal::WalRecord& rec : records.value()) {
      BG3_RETURN_IF_ERROR(ApplyWalRecordLocked(rec));
    }
  }
}

void RoNode::BootstrapFromManifestLocked() {
  // Suffix-bounded replay (DESIGN.md §5.7): a durable checkpoint manifest
  // promises that published images cover every mutation at or below its
  // LSN, so the WAL reader can seek straight past the checkpoint cursor.
  // Any load failure (never checkpointed, torn slots, substrate down) falls
  // back to the historical full-WAL replay — strictly slower, never wrong.
  if (opts_.resume_from_checkpoint) {
    auto loaded = LoadCheckpoint(store_, WalScope(opts_.wal_stream));
    if (loaded.ok()) {
      const CheckpointManifest& m = loaded.value().manifest;
      // Cursor-exact seek: the manifest's (term, seq) lets the reader drop
      // late-landing duplicates of batches the checkpoint already covers.
      reader_.SeekTo(m.WalResumeCursor(), m.checkpoint_lsn);
      max_lsn_seen_ = std::max(max_lsn_seen_, m.checkpoint_lsn);
      resumed_from_checkpoint_ = true;
      checkpoint_fell_back_ = loaded.value().fell_back;
    }
  }
  // Published page images carry their key ranges, so the route/meta tables
  // can be seeded without the WAL prefix that created them (which may have
  // been truncated). WAL records that survive truncation re-apply on top:
  // mutations are LSN-gated and split records are range-idempotent.
  for (const auto& [key, value] : store_->ManifestList("pt/")) {
    bwtree::TreeId tree_id;
    bwtree::PageId page_id;
    if (!ParsePageImageKey(key, &tree_id, &page_id)) continue;
    PageImageMeta image;
    if (!PageImageMeta::Decode(Slice(value), &image).ok()) continue;
    TreeState& ts = trees_[tree_id];
    PageMeta meta;
    meta.low_key = image.low_key;
    meta.high_key = image.high_key;
    meta.has_high_key = image.has_high_key;
    ts.meta[page_id] = std::move(meta);
    ts.route[image.low_key] = page_id;
    max_lsn_seen_ = std::max(max_lsn_seen_, image.flushed_lsn);
  }
  // A tree whose first cut is still publishing (children before parents)
  // has no image at the key-space start yet. No manifest covers it, so its
  // WAL is whole: replay builds its layout instead.
  std::erase_if(trees_, [](const auto& tree) {
    return tree.second.route.count("") == 0;
  });
}

Status RoNode::ApplyWalRecordLocked(const wal::WalRecord& rec) {
  max_lsn_seen_ = std::max(max_lsn_seen_, rec.lsn);
  switch (rec.type) {
    case wal::WalRecord::Type::kTreeInit: {
      TreeState& ts = trees_[rec.tree_id];
      if (!ts.route.empty()) return Status::OK();  // manifest-bootstrapped
      ts.route[""] = rec.page_id;
      PageMeta meta;
      meta.low_key = "";
      meta.has_high_key = false;
      ts.meta[rec.page_id] = std::move(meta);
      return Status::OK();
    }
    case wal::WalRecord::Type::kMutation: {
      TreeState& ts = trees_[rec.tree_id];
      PendingLog& log = ts.pending[rec.page_id];
      log.records.push_back(rec);
      stats_.wal_mutations.Inc();
      // Leader-follower latency sample: publish latency (group wait + WAL
      // append) + tail-poll delay + log read from shared storage.
      const uint64_t poll_wait = rng_.Uniform(opts_.poll_interval_us + 1);
      const uint64_t log_read =
          store_->latency_model().ReadLatencyUs(64 + rec.entry.key.size() +
                                                rec.entry.value.size());
      sync_latency_.Record(rec.sim_publish_latency_us + poll_wait + log_read);
      if (log.records.size() > opts_.pending_compact_threshold &&
          log.records.size() > 2 * log.last_compacted_size) {
        CompactPendingVector(&log.records);
        log.last_compacted_size = log.records.size();
        stats_.pending_merges.Inc();
      }
      return Status::OK();
    }
    case wal::WalRecord::Type::kSplit: {
      TreeState& ts = trees_[rec.tree_id];
      auto mit = ts.meta.find(rec.page_id);
      if (mit == ts.meta.end()) {
        return Status::Corruption("split of unknown page");
      }
      if (ts.meta.count(rec.aux_page_id) > 0) {
        // Replay of a pre-bootstrap split: the manifest layout already
        // reflects it (and possibly later splits); do not widen ranges.
        return Status::OK();
      }
      // Bring a cached copy of the splitting page fully current *before*
      // cutting it, so the new page's cached copy does not miss pending
      // records that predate the split.
      auto cit = cache_.find({rec.tree_id, rec.page_id});
      if (cit != cache_.end()) {
        ApplyPendingLocked(ts, rec.tree_id, rec.page_id, &cit->second);
      }
      PageMeta& old_meta = mit->second;
      PageMeta new_meta;
      new_meta.low_key = rec.separator;
      new_meta.high_key = old_meta.high_key;
      new_meta.has_high_key = old_meta.has_high_key;
      new_meta.parent = rec.page_id;
      new_meta.split_lsn = rec.lsn;
      ts.meta[rec.aux_page_id] = std::move(new_meta);
      old_meta.high_key = rec.separator;
      old_meta.has_high_key = true;
      ts.route[rec.separator] = rec.aux_page_id;
      // Split the cached copy, if any ("the RO node directly creates it in
      // memory" for pages born after the last flush).
      if (cit != cache_.end()) {
        CachedPage upper;
        upper.applied_lsn = cit->second.applied_lsn;
        upper.last_use = ++use_tick_;
        bwtree::EntryRun& lower = cit->second.base;
        lower.SplitAt(lower.LowerBound(rec.separator), &upper.base);
        cache_[{rec.tree_id, rec.aux_page_id}] = std::move(upper);
        EvictIfNeededLocked();
      }
      return Status::OK();
    }
    case wal::WalRecord::Type::kCheckpoint: {
      // Storage images now cover everything up to rec.lsn: drop older
      // lazy-replay entries ("once the RO reads this log item, it can
      // discard all records ... with an LSN number less than" it).
      // Cached pages must absorb those records first — a cache-resident
      // copy never re-reads the manifest image, so discarding records it
      // has not applied yet would serve stale data forever.
      for (auto& [tree_id, ts] : trees_) {
        for (auto& [page_id, log] : ts.pending) {
          if (log.records.empty()) continue;
          auto cit = cache_.find({tree_id, page_id});
          if (cit != cache_.end()) {
            ApplyPendingLocked(ts, tree_id, page_id, &cit->second);
          }
          const size_t before = log.records.size();
          std::erase_if(log.records, [&](const wal::WalRecord& r) {
            return r.lsn <= rec.lsn;
          });
          stats_.discarded.Add(before - log.records.size());
          if (log.last_compacted_size > log.records.size()) {
            log.last_compacted_size = log.records.size();
          }
        }
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown wal record type");
}

void RoNode::CompactPendingVector(std::vector<wal::WalRecord>* recs) {
  // Keep only the last operation per key, preserving LSN order.
  std::map<std::string, size_t> last_index;
  for (size_t i = 0; i < recs->size(); ++i) {
    last_index[(*recs)[i].entry.key] = i;
  }
  std::vector<wal::WalRecord> merged;
  merged.reserve(last_index.size());
  for (size_t i = 0; i < recs->size(); ++i) {
    if (last_index[(*recs)[i].entry.key] == i) {
      merged.push_back(std::move((*recs)[i]));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const wal::WalRecord& a, const wal::WalRecord& b) {
              return a.lsn < b.lsn;
            });
  *recs = std::move(merged);
}

void RoNode::ApplyPendingLocked(TreeState& ts, bwtree::TreeId tree,
                                bwtree::PageId page, CachedPage* cp) {
  auto pit = ts.pending.find(page);
  if (pit == ts.pending.end()) return;
  for (const wal::WalRecord& rec : pit->second.records) {
    if (rec.lsn <= cp->applied_lsn) continue;
    const bwtree::DeltaEntry& e = rec.entry;
    if (e.op == bwtree::DeltaOp::kUpsert) {
      cp->base.Upsert(bwtree::EntryView{e.op, e.key, e.value});
    } else if (const size_t i = cp->base.Find(e.key); i < cp->base.size()) {
      cp->base.Erase(i);
    }
    cp->applied_lsn = rec.lsn;
    stats_.replayed.Inc();
  }
}

Result<RoNode::CachedPage*> RoNode::GetPageLocked(bwtree::TreeId tree,
                                                  bwtree::PageId page,
                                                  const OpContext* ctx) {
  TreeState& ts = trees_[tree];
  auto it = cache_.find({tree, page});
  if (it != cache_.end()) {
    stats_.cache_hits.Inc();
    it->second.last_use = ++use_tick_;
    ApplyPendingLocked(ts, tree, page, &it->second);
    return &it->second;
  }
  stats_.cache_misses.Inc();
  CachedPage cp;
  BG3_RETURN_IF_ERROR(BuildViewLocked(tree, page, &cp, ctx));
  cp.last_use = ++use_tick_;
  auto [cit, inserted] = cache_.emplace(CacheKey{tree, page}, std::move(cp));
  EvictIfNeededLocked();
  ApplyPendingLocked(ts, tree, page, &cit->second);
  return &cit->second;
}

Status RoNode::BuildViewLocked(bwtree::TreeId tree, bwtree::PageId page,
                               CachedPage* out, const OpContext* ctx) {
  TreeState& ts = trees_[tree];
  auto target_meta_it = ts.meta.find(page);
  if (target_meta_it == ts.meta.end()) {
    return Status::NotFound("unknown page");
  }
  const PageMeta target_meta = target_meta_it->second;

  for (int attempt = 0; attempt < 8; ++attempt) {
    // Walk the split-origin chain until a page with a published storage
    // image: the "old mapping" lookup of Fig. 7 step (5). A page born after
    // the last flush has no image and is reconstructed purely from its
    // ancestors plus the lazy-replay log (step (6)).
    std::vector<bwtree::PageId> chain;
    bwtree::PageId cur = page;
    bwtree::Lsn descend_split_lsn = 0;  // split edge we walked up through
    PageImageMeta image;
    bool have_image = false;
    bool restart = false;
    for (;;) {
      chain.push_back(cur);
      auto found = LoadImage(store_, tree, cur, &image, ctx);
      BG3_RETURN_IF_ERROR(found.status());
      if (found.value()) {
        if (cur != page && image.flushed_lsn >= descend_split_lsn) {
          // The ancestor's image postdates the split we walked through, so
          // it no longer contains our key range — but then our own image
          // must have been published meanwhile. Retry from the top.
          restart = true;
        }
        have_image = true;
        break;
      }
      // No image published yet: keep walking up the split-origin chain.
      auto mit = ts.meta.find(cur);
      BG3_CHECK(mit != ts.meta.end());
      if (mit->second.parent == bwtree::kInvalidPage) break;  // empty base
      descend_split_lsn = mit->second.split_lsn;
      cur = mit->second.parent;
    }
    if (restart) continue;

    // Load the base image + its deltas, oldest first.
    bwtree::EntryRun base_run;
    std::vector<bwtree::EntryRun> deltas;
    bwtree::Lsn base_lsn = 0;
    if (have_image) {
      base_lsn = image.flushed_lsn;
      auto base = store_->Read(image.base_ptr, nullptr, ctx);
      BG3_RETURN_IF_ERROR(base.status());
      stats_.storage_reads.Inc();
      BG3_RETURN_IF_ERROR(bwtree::EntryRun::Parse(
          bwtree::RecordKind::kBasePage, std::move(base.value()), &base_run));
      for (const auto& ptr : image.delta_ptrs) {
        auto delta = store_->Read(ptr, nullptr, ctx);
        BG3_RETURN_IF_ERROR(delta.status());
        stats_.storage_reads.Inc();
        BG3_RETURN_IF_ERROR(bwtree::EntryRun::Parse(
            bwtree::RecordKind::kDelta, std::move(delta.value()),
            &deltas.emplace_back()));
      }
    }

    // The pending records of every page on the origin chain, in LSN order,
    // form the newest delta (its Upsert keeps the newest record per key).
    std::vector<const wal::WalRecord*> recs;
    for (bwtree::PageId p : chain) {
      auto pit = ts.pending.find(p);
      if (pit == ts.pending.end()) continue;
      for (const wal::WalRecord& r : pit->second.records) {
        if (r.lsn > base_lsn) recs.push_back(&r);
      }
    }
    std::sort(recs.begin(), recs.end(),
              [](const wal::WalRecord* a, const wal::WalRecord* b) {
                return a->lsn < b->lsn;
              });
    bwtree::EntryRun& replay = deltas.emplace_back(bwtree::RecordKind::kDelta);
    bwtree::Lsn applied = base_lsn;
    for (const wal::WalRecord* r : recs) {
      // Ancestors' logs cover more than this page's key range. Upserting
      // only this page's records keeps the delta as small as the page.
      if (KeyInRange(Slice(r->entry.key), target_meta.low_key,
                     target_meta.high_key, target_meta.has_high_key)) {
        replay.Upsert(bwtree::EntryView{r->entry.op, r->entry.key,
                                        r->entry.value});
      }
      applied = std::max(applied, r->lsn);
      stats_.replayed.Inc();
    }
    // The writer's merge, cut to this page's key range (an ancestor's image
    // covers more), into a fresh run.
    out->base = bwtree::MergeToBase(
        base_run, deltas, target_meta.low_key,
        target_meta.has_high_key ? target_meta.high_key : "");
    out->applied_lsn = applied;
    return Status::OK();
  }
  return Status::Corruption("page view kept racing with flush publication");
}

void RoNode::EvictIfNeededLocked() {
  // Never evict down to nothing: the page just inserted by the caller must
  // survive (it carries the highest last_use tick and is never the LRU
  // victim while at least two pages exist).
  while (cache_.size() > opts_.cache_capacity_pages && cache_.size() > 1) {
    auto victim = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    cache_.erase(victim);
  }
}

Result<bool> RoNode::Walk(bwtree::TreeId tree, const Slice& start_key,
                          const Slice& end_key, size_t limit,
                          const bwtree::EntryVisitor& visit,
                          const OpContext* ctx) {
  BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "ro read"));
  WriterMutexLock lock(&mu_);
  BG3_RETURN_IF_ERROR(PollWalLocked());
  auto tit = trees_.find(tree);
  if (tit == trees_.end() || tit->second.route.empty()) return false;
  TreeState& ts = tit->second;
  std::string cursor = start_key.ToString();
  for (size_t remaining = limit; remaining > 0;) {
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "ro read"));
    auto rit = ts.route.upper_bound(cursor);
    BG3_CHECK(rit != ts.route.begin());
    const bwtree::PageId page_id = std::prev(rit)->second;
    BG3_ASSIGN_OR_RETURN(const CachedPage* page,
                         GetPageLocked(tree, page_id, ctx));
    bwtree::MergeRuns(page->base, {}, cursor, end_key, &remaining, visit);
    const PageMeta& meta = ts.meta[page_id];
    if (!meta.has_high_key ||
        (!end_key.empty() && Slice(meta.high_key).compare(end_key) >= 0)) {
      break;
    }
    cursor = meta.high_key;
  }
  return true;
}

Result<std::string> RoNode::Get(bwtree::TreeId tree, const Slice& key,
                                const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.replication.ro_get", OpLayer::kReplication);
  // The walk's one-key case: [key, key + '\0') holds `key` alone and ends
  // inside the page that owns it.
  std::string next = key.ToString();
  next.push_back('\0');
  std::optional<std::string> value;
  BG3_ASSIGN_OR_RETURN(const bool replicated,
                       Walk(tree, key, next, 1,
                            [&value](const Slice&, const Slice& v) {
                              value = v.ToString();
                              return true;
                            },
                            ctx));
  if (!replicated) return Status::NotFound("tree not replicated yet");
  if (!value.has_value()) return Status::NotFound("no such key");
  return std::move(*value);
}

Status RoNode::Scan(bwtree::TreeId tree, const Slice& start_key,
                    const Slice& end_key, size_t limit,
                    std::vector<bwtree::Entry>* out, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.replication.ro_scan", OpLayer::kReplication);
  // A tree not replicated yet scans empty.
  return Walk(tree, start_key, end_key, limit,
              [out](const Slice& key, const Slice& value) {
                out->push_back(bwtree::Entry{key.ToString(), value.ToString()});
                return true;
              },
              ctx)
      .status();
}

Result<RoNode::ExportedTree> RoNode::ExportTree(bwtree::TreeId tree) {
  WriterMutexLock lock(&mu_);
  BG3_RETURN_IF_ERROR(PollWalLocked());
  auto tit = trees_.find(tree);
  if (tit == trees_.end() || tit->second.route.empty()) {
    return Status::NotFound("tree not present in the WAL");
  }
  TreeState& ts = tit->second;
  ExportedTree out;
  out.tree_id = tree;
  out.max_lsn = max_lsn_seen_;
  out.wal_cursor = reader_.Cursor();
  out.replay.wal_bytes_replayed = reader_.bytes_consumed();
  out.replay.total_wal_bytes = store_->TotalBytes(opts_.wal_stream);
  out.replay.resumed_from_checkpoint = resumed_from_checkpoint_;
  out.replay.checkpoint_fell_back = checkpoint_fell_back_;
  out.pages.reserve(ts.route.size());
  for (const auto& [low_key, page_id] : ts.route) {
    const PageMeta& meta = ts.meta[page_id];
    // The published image is the page's whole content when it has no
    // deltas, still covers the page's range (a later split narrows the
    // range) and no replayed mutation is newer. Such a page exports
    // demand-paged: its base is fetched on first access, not here, so an
    // export reads only the pages the WAL suffix touched.
    const auto whole_content = [&](const PageImageMeta& image,
                                   bwtree::Lsn applied_lsn) {
      return image.delta_ptrs.empty() && applied_lsn == image.flushed_lsn &&
             image.low_key == meta.low_key &&
             image.has_high_key == meta.has_high_key &&
             (!meta.has_high_key || image.high_key == meta.high_key);
    };
    PageImageMeta image;
    if (cache_.count({tree, page_id}) == 0) {
      auto found = LoadImage(store_, tree, page_id, &image);
      BG3_RETURN_IF_ERROR(found.status());
      auto pit = ts.pending.find(page_id);
      const bool replayed_newer =
          pit != ts.pending.end() && !pit->second.records.empty() &&
          pit->second.records.back().lsn > image.flushed_lsn;
      if (found.value() && !replayed_newer &&
          whole_content(image, image.flushed_lsn)) {
        out.pages.push_back(RecoveredPageFromImage(page_id, image));
        continue;
      }
    }
    auto cp = GetPageLocked(tree, page_id);
    BG3_RETURN_IF_ERROR(cp.status());
    bwtree::RecoveredPage rp;
    rp.id = page_id;
    rp.low_key = meta.low_key;
    rp.high_key = meta.high_key;
    rp.has_high_key = meta.has_high_key;
    rp.base = cp.value()->base;
    rp.last_lsn = cp.value()->applied_lsn;
    // Attach the image current after the build, so the recovered node's
    // first flush invalidates it (keeps GC accounting exact). Clean pages
    // keep their image authoritative, which bounds the recovered node's
    // first flush to the WAL suffix.
    auto found = LoadImage(store_, tree, page_id, &image);
    BG3_RETURN_IF_ERROR(found.status());
    if (found.value()) {
      rp.base_ptr = image.base_ptr;
      rp.clean = whole_content(image, rp.last_lsn);
    }
    out.pages.push_back(std::move(rp));
  }
  return out;
}

void RoNode::CompactPendingLogs() {
  WriterMutexLock lock(&mu_);
  for (auto& [tree_id, ts] : trees_) {
    for (auto& [page_id, log] : ts.pending) {
      if (log.records.size() > 1) {
        CompactPendingVector(&log.records);
        log.last_compacted_size = log.records.size();
        stats_.pending_merges.Inc();
      }
    }
  }
}

cloud::PagePointer RoNode::WalCursor() const {
  ReaderMutexLock lock(&mu_);
  return reader_.cursor();
}

uint64_t RoNode::WalBytesReplayed() const {
  ReaderMutexLock lock(&mu_);
  return reader_.bytes_consumed();
}

bool RoNode::ResumedFromCheckpoint() const {
  ReaderMutexLock lock(&mu_);
  return resumed_from_checkpoint_;
}

bool RoNode::CheckpointFellBack() const {
  ReaderMutexLock lock(&mu_);
  return checkpoint_fell_back_;
}

std::vector<std::pair<bwtree::TreeId, bwtree::PageId>> RoNode::ResidentPages()
    const {
  ReaderMutexLock lock(&mu_);
  std::vector<std::pair<bwtree::TreeId, bwtree::PageId>> out;
  out.reserve(cache_.size());
  for (const auto& [key, page] : cache_) out.push_back(key);
  return out;
}

Result<size_t> RoNode::WarmPageSet(
    const std::vector<std::pair<bwtree::TreeId, bwtree::PageId>>& pages) {
  WriterMutexLock lock(&mu_);
  BG3_RETURN_IF_ERROR(PollWalLocked());
  size_t warmed = 0;
  for (const auto& [tree, page_id] : pages) {
    if (cache_.count({tree, page_id}) > 0) continue;
    auto tit = trees_.find(tree);
    // Pages that vanished from the layout between the peer's snapshot and
    // now (splits, truncation) are simply skipped — the peer's working set
    // is a hint, not a contract.
    if (tit == trees_.end() || tit->second.meta.count(page_id) == 0) continue;
    auto cp = GetPageLocked(tree, page_id);
    BG3_RETURN_IF_ERROR(cp.status());
    ++warmed;
  }
  return warmed;
}

void RoNode::AdvanceWalTerm(uint64_t term) {
  WriterMutexLock lock(&mu_);
  reader_.AdvanceTerm(term);
}

size_t RoNode::PendingRecordCount() const {
  ReaderMutexLock lock(&mu_);
  size_t n = 0;
  for (const auto& [tree_id, ts] : trees_) {
    for (const auto& [page_id, log] : ts.pending) n += log.records.size();
  }
  return n;
}

size_t RoNode::CachedPageCount() const {
  ReaderMutexLock lock(&mu_);
  return cache_.size();
}

size_t RoNode::CacheBytes() const {
  ReaderMutexLock lock(&mu_);
  size_t bytes = 0;
  for (const auto& [key, page] : cache_) bytes += page.base.MemoryBytes();
  return bytes;
}

}  // namespace bg3::replication
