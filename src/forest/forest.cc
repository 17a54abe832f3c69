#include "forest/forest.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/timed_scope.h"

namespace bg3::forest {

namespace {

void AppendBigEndian64(std::string* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

}  // namespace

std::string BwTreeForest::MakeInitKey(OwnerId owner, const Slice& sort_key) {
  std::string key;
  key.reserve(8 + sort_key.size());
  AppendBigEndian64(&key, owner);
  key.append(sort_key.data(), sort_key.size());
  return key;
}

std::string BwTreeForest::OwnerPrefix(OwnerId owner) {
  std::string key;
  AppendBigEndian64(&key, owner);
  return key;
}

BwTreeForest::BwTreeForest(cloud::CloudStore* store,
                           const ForestOptions& options)
    : store_(store), opts_(options) {
  registry_mu_.SetRank(lock_rank::kBwTreeForest_registry_mu,
                       "BwTreeForest::registry_mu_");
  evict_mu_.SetRank(lock_rank::kBwTreeForest_evict_mu,
                    "BwTreeForest::evict_mu_");
  BG3_CHECK_GT(opts_.owner_shards, 0u);
  shards_.reserve(opts_.owner_shards);
  for (size_t i = 0; i < opts_.owner_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  init_tree_ = std::make_unique<bwtree::BwTree>(
      store_, MakeTreeOptions(0, opts_.bootstrap_init));
  MutexLock lock(&registry_mu_);
  registry_[0] = init_tree_.get();
}

bwtree::BwTreeOptions BwTreeForest::MakeTreeOptions(bwtree::TreeId id,
                                                    bool bootstrap) const {
  bwtree::BwTreeOptions o = opts_.tree_options;
  o.tree_id = id;
  o.bootstrap = bootstrap;
  if (o.lsn_source == nullptr) {
    o.lsn_source = const_cast<std::atomic<bwtree::Lsn>*>(&lsn_source_);
  }
  if (o.page_id_source == nullptr) {
    o.page_id_source =
        const_cast<std::atomic<bwtree::PageId>*>(&page_id_source_);
  }
  if (o.tick_source == nullptr) {
    o.tick_source = &tick_source_;
  }
  return o;
}

std::shared_ptr<BwTreeForest::OwnerState> BwTreeForest::GetOrCreateState(
    OwnerId owner) {
  Shard& shard = *shards_[Mix64(owner) % shards_.size()];
  MutexLock lock(&shard.mu);
  auto& slot = shard.owners[owner];
  if (!slot) slot = std::make_shared<OwnerState>();
  return slot;
}

std::shared_ptr<BwTreeForest::OwnerState> BwTreeForest::FindState(
    OwnerId owner) const {
  const Shard& shard = *shards_[Mix64(owner) % shards_.size()];
  MutexLock lock(&shard.mu);
  auto it = shard.owners.find(owner);
  return it == shard.owners.end() ? nullptr : it->second;
}

Status BwTreeForest::Upsert(OwnerId owner, const Slice& sort_key,
                            const Slice& value, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.forest.upsert", OpLayer::kForest);
  auto owned = GetOrCreateState(owner);
  OwnerState* state = owned.get();
  bool check_init_capacity = false;
  {
    MutexLock lock(&state->mu);
    if (state->tree != nullptr) {
      BG3_RETURN_IF_ERROR(state->tree->Upsert(sort_key, value, ctx));
      state->count.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    BG3_RETURN_IF_ERROR(
        init_tree_->Upsert(MakeInitKey(owner, sort_key), value, ctx));
    state->count.fetch_add(1, std::memory_order_relaxed);
    init_entries_.fetch_add(1, std::memory_order_relaxed);
    if (opts_.split_out_threshold == 0 ||
        state->count.load(std::memory_order_relaxed) >
            opts_.split_out_threshold) {
      BG3_RETURN_IF_ERROR(SplitOutLocked(owner, state, &stats_.split_outs));
    }
    check_init_capacity =
        init_entries_.load(std::memory_order_relaxed) > opts_.init_tree_capacity;
  }
  if (check_init_capacity) MaybeEvictFromInit();
  return Status::OK();
}

Status BwTreeForest::Delete(OwnerId owner, const Slice& sort_key,
                            const OpContext* ctx) {
  auto owned = GetOrCreateState(owner);
  OwnerState* state = owned.get();
  MutexLock lock(&state->mu);
  if (state->tree != nullptr) {
    BG3_RETURN_IF_ERROR(state->tree->Delete(sort_key, ctx));
  } else {
    BG3_RETURN_IF_ERROR(
        init_tree_->Delete(MakeInitKey(owner, sort_key), ctx));
    if (init_entries_.load(std::memory_order_relaxed) > 0) {
      init_entries_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  // count is only mutated under state->mu, so load/store here cannot race
  // with another writer of the same owner.
  if (state->count.load(std::memory_order_relaxed) > 0) {
    state->count.fetch_sub(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Result<std::string> BwTreeForest::Get(OwnerId owner, const Slice& sort_key,
                                      const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.forest.lookup", OpLayer::kForest);
  auto owned = FindState(owner);
  if (owned == nullptr) return Status::NotFound("unknown owner");
  OwnerState* state = owned.get();
  // Dedicated owners are read without the owner mutex: the tree pointer is
  // published once and never cleared, and the Bw-tree's own shared leaf
  // latches carry the read. This is what lets N readers of one hot owner
  // scale instead of convoying on `mu`.
  if (bwtree::BwTree* tree = state->published.load(std::memory_order_acquire)) {
    return tree->Get(sort_key, ctx);
  }
  MutexLock lock(&state->mu);
  if (state->tree != nullptr) return state->tree->Get(sort_key, ctx);
  return init_tree_->Get(MakeInitKey(owner, sort_key), ctx);
}

Status BwTreeForest::ScanOwner(OwnerId owner, const Slice& start_sort_key,
                               size_t limit, std::vector<bwtree::Entry>* out,
                               const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.forest.scan", OpLayer::kForest);
  auto owned = FindState(owner);
  if (owned == nullptr) return Status::OK();  // no entries yet
  OwnerState* state = owned.get();
  // Same lock-free dedicated-owner fast path as Get.
  if (bwtree::BwTree* tree = state->published.load(std::memory_order_acquire)) {
    bwtree::BwTree::ScanOptions scan;
    scan.start_key = start_sort_key.ToString();
    scan.limit = limit;
    return tree->Scan(scan, out, ctx);
  }
  MutexLock lock(&state->mu);
  if (state->tree != nullptr) {
    bwtree::BwTree::ScanOptions scan;
    scan.start_key = start_sort_key.ToString();
    scan.limit = limit;
    return state->tree->Scan(scan, out, ctx);
  }
  // INIT-resident: prefix scan [owner|start, owner+1) and strip the prefix.
  bwtree::BwTree::ScanOptions scan;
  scan.start_key = MakeInitKey(owner, start_sort_key);
  scan.end_key = owner == ~0ull ? std::string() : OwnerPrefix(owner + 1);
  scan.limit = limit;
  std::vector<bwtree::Entry> raw;
  BG3_RETURN_IF_ERROR(init_tree_->Scan(scan, &raw, ctx));
  out->reserve(out->size() + raw.size());
  for (auto& e : raw) {
    out->push_back(bwtree::Entry{e.key.substr(8), std::move(e.value)});
  }
  return Status::OK();
}

size_t BwTreeForest::OwnerEntryCount(OwnerId owner) const {
  auto state = FindState(owner);
  if (state == nullptr) return 0;
  return state->count.load(std::memory_order_relaxed);
}

Status BwTreeForest::DedicateOwner(OwnerId owner) {
  auto owned = GetOrCreateState(owner);
  OwnerState* state = owned.get();
  MutexLock lock(&state->mu);
  if (state->tree != nullptr) return Status::OK();
  return SplitOutLocked(owner, state, &stats_.split_outs);
}

Status BwTreeForest::SplitOutLocked(OwnerId owner, OwnerState* state,
                                    LightCounter* reason) {
  BG3_TIMED_SCOPE("bg3.forest.split_out", OpLayer::kForest);
  BG3_CHECK(state->tree == nullptr);
  const bwtree::TreeId id =
      next_tree_id_.fetch_add(1, std::memory_order_relaxed);
  auto tree = std::make_unique<bwtree::BwTree>(store_, MakeTreeOptions(id));

  // Move the owner's INIT entries into the dedicated tree with shortened
  // keys. If any upsert fails (storage trouble the tree's own retry budget
  // could not absorb), the unregistered tree is simply abandoned: INIT is
  // untouched, the owner stays INIT-resident, and the orphan records the
  // aborted tree may have flushed are dropped by GC's orphan path.
  bwtree::BwTree::ScanOptions scan;
  scan.start_key = OwnerPrefix(owner);
  scan.end_key = owner == ~0ull ? std::string() : OwnerPrefix(owner + 1);
  std::vector<bwtree::Entry> entries;
  BG3_RETURN_IF_ERROR(init_tree_->Scan(scan, &entries));
  for (const auto& e : entries) {
    BG3_RETURN_IF_ERROR(tree->Upsert(e.key.substr(8), e.value));
  }

  // Publish the fully populated tree *before* deleting the INIT copies, so
  // a delete failure below cannot lose data: reads already route to the
  // dedicated tree, and any INIT leftovers are shadowed dead weight.
  {
    MutexLock lock(&registry_mu_);
    registry_[id] = tree.get();
  }
  state->tree = std::move(tree);
  // Publish after `tree` is fully populated and installed: from this store
  // on, readers route to the dedicated tree without taking `mu` (acquire
  // loads pair with this release), and the eviction scan keys off the
  // pointer instead of touching `tree` unlatched.
  state->published.store(state->tree.get(), std::memory_order_release);
  reason->Inc();

  Status delete_status;
  size_t deleted = 0;
  for (const auto& e : entries) {
    delete_status = init_tree_->Delete(e.key);
    if (!delete_status.ok()) break;
    ++deleted;
  }
  size_t cur = init_entries_.load(std::memory_order_relaxed);
  while (!init_entries_.compare_exchange_weak(
      cur, cur >= deleted ? cur - deleted : 0, std::memory_order_relaxed)) {
  }
  BG3_RETURN_IF_ERROR(delete_status);

  // Split-out boundary invariants: the owner's INIT prefix must now be
  // empty (every entry moved, none left behind) and the registry must
  // resolve the freshly minted tree id.
  if (BG3_DCHECK_IS_ON()) {
    std::vector<bwtree::Entry> leftover;
    bwtree::BwTree::ScanOptions verify = scan;
    verify.limit = 1;
    BG3_CHECK(init_tree_->Scan(verify, &leftover).ok());
    BG3_DCHECK_EQ(leftover.size(), 0u);
    BG3_DCHECK(ResolveTree(id) == state->tree.get());
  }
  return Status::OK();
}

void BwTreeForest::MaybeEvictFromInit() {
  MutexLock evict_lock(&evict_mu_);
  if (init_entries_.load(std::memory_order_relaxed) <=
      opts_.init_tree_capacity) {
    return;  // another eviction already relieved the pressure
  }
  // Find the INIT-resident owner with the most entries (approximate: counts
  // read without the per-owner lock; the winner is re-checked under it).
  OwnerId victim = 0;
  size_t victim_count = 0;
  std::shared_ptr<OwnerState> victim_state;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (const auto& [owner, state] : shard->owners) {
      // `published` and `count` are atomics precisely so this scan does not
      // have to take every owner's mutex (which would deadlock against
      // Upsert holding its own owner mutex while calling here). The reads
      // are approximate; the winner is re-validated under its mutex below.
      if (state->published.load(std::memory_order_acquire) == nullptr &&
          state->count.load(std::memory_order_relaxed) > victim_count) {
        victim = owner;
        victim_count = state->count.load(std::memory_order_relaxed);
        victim_state = state;
      }
    }
  }
  if (victim_state == nullptr) return;
  OwnerState* vs = victim_state.get();
  MutexLock lock(&vs->mu);
  if (vs->tree != nullptr) return;  // raced with a split-out
  // Opportunistic eviction: on failure the owner simply stays in the init
  // tree and a later cycle (or EvictToBudget) retries.
  BG3_IGNORE_STATUS(SplitOutLocked(victim, vs, &stats_.evictions));
}

size_t BwTreeForest::DedicatedTreeCount() const {
  MutexLock lock(&registry_mu_);
  return registry_.size() - 1;  // minus INIT
}

size_t BwTreeForest::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this);
  std::vector<bwtree::BwTree*> trees;
  {
    MutexLock lock(&registry_mu_);
    trees.reserve(registry_.size());
    for (const auto& [id, tree] : registry_) trees.push_back(tree);
  }
  for (bwtree::BwTree* t : trees) bytes += t->ApproxMemoryBytes();
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    bytes += shard->owners.bucket_count() * sizeof(void*);
    bytes += shard->owners.size() * (32 + sizeof(OwnerState));
  }
  return bytes;
}

void BwTreeForest::AppendTrees(std::vector<bwtree::BwTree*>* out) const {
  MutexLock lock(&registry_mu_);
  out->reserve(out->size() + registry_.size());
  for (const auto& [id, tree] : registry_) out->push_back(tree);
}

size_t BwTreeForest::TotalResidentBytes() const {
  std::vector<bwtree::BwTree*> trees;
  AppendTrees(&trees);
  return TotalResidentBytesAcross(trees);
}

EvictToBudgetResult BwTreeForest::EvictToBudget(size_t budget_bytes) {
  // Serialized with INIT-capacity evictions so concurrent budget passes do
  // not double-evict each other's candidates.
  MutexLock evict_lock(&evict_mu_);
  std::vector<bwtree::BwTree*> trees;
  AppendTrees(&trees);
  return EvictTreesToBudget(trees, budget_bytes);
}

bwtree::BwTree* BwTreeForest::ResolveTree(bwtree::TreeId id) const {
  MutexLock lock(&registry_mu_);
  auto it = registry_.find(id);
  return it == registry_.end() ? nullptr : it->second;
}

BwTreeForest::LatchCounters BwTreeForest::AggregateLatchCounters() const {
  LatchCounters agg;
  MutexLock lock(&registry_mu_);
  for (const auto& [id, tree] : registry_) {
    const bwtree::BwTreeStats& s = tree->stats();
    agg.shared_acquires += s.latch_shared_acquires.Get();
    agg.exclusive_acquires += s.latch_exclusive_acquires.Get();
    agg.shared_conflicts += s.latch_shared_conflicts.Get();
    agg.exclusive_conflicts += s.latch_exclusive_conflicts.Get();
  }
  return agg;
}

uint64_t BwTreeForest::TotalLatchConflicts() const {
  const LatchCounters agg = AggregateLatchCounters();
  return agg.shared_conflicts + agg.exclusive_conflicts;
}

std::vector<OwnerRecord> BwTreeForest::ExportOwners() const {
  std::vector<OwnerRecord> out;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (const auto& [owner, state] : shard->owners) {
      OwnerRecord rec;
      rec.owner = owner;
      bwtree::BwTree* tree =
          state->published.load(std::memory_order_acquire);
      rec.tree_id = tree == nullptr ? 0 : tree->options().tree_id;
      rec.entry_count = state->count.load(std::memory_order_relaxed);
      out.push_back(rec);
    }
  }
  return out;
}

Status BwTreeForest::RestoreOwner(const OwnerRecord& rec,
                                  std::vector<bwtree::RecoveredPage> pages) {
  if (rec.tree_id == 0 && !pages.empty()) {
    return Status::InvalidArgument("INIT pages go through InstallInitPages");
  }
  auto owned = GetOrCreateState(rec.owner);
  OwnerState* state = owned.get();
  MutexLock lock(&state->mu);
  if (state->tree != nullptr) {
    return Status::InvalidArgument("owner already dedicated");
  }
  if (rec.tree_id == 0 || pages.empty()) {
    // INIT residency. A dedicated owner with no checkpointed images lost
    // its (never-flushed) dedicated content past the restore horizon; it
    // comes back empty and re-dedicates once it grows again.
    const uint64_t count = rec.tree_id == 0 ? rec.entry_count : 0;
    state->count.store(count, std::memory_order_relaxed);
    if (rec.tree_id == 0) {
      init_entries_.fetch_add(rec.entry_count, std::memory_order_relaxed);
    }
    return Status::OK();
  }
  // Future split-outs must mint ids past every restored tree.
  bwtree::TreeId cur = next_tree_id_.load(std::memory_order_relaxed);
  while (cur <= rec.tree_id &&
         !next_tree_id_.compare_exchange_weak(cur, rec.tree_id + 1,
                                              std::memory_order_relaxed)) {
  }
  auto tree = std::make_unique<bwtree::BwTree>(
      store_, MakeTreeOptions(rec.tree_id, /*bootstrap=*/true));
  BG3_RETURN_IF_ERROR(tree->InstallRecoveredPages(std::move(pages)));
  {
    MutexLock reg_lock(&registry_mu_);
    registry_[rec.tree_id] = tree.get();
  }
  state->count.store(rec.entry_count, std::memory_order_relaxed);
  state->tree = std::move(tree);
  state->published.store(state->tree.get(), std::memory_order_release);
  return Status::OK();
}

Status BwTreeForest::InstallInitPages(std::vector<bwtree::RecoveredPage> pages) {
  BG3_CHECK(opts_.bootstrap_init) << "InstallInitPages requires bootstrap_init";
  return init_tree_->InstallRecoveredPages(std::move(pages));
}

void BwTreeForest::CheckInvariants() const {
  {
    MutexLock lock(&registry_mu_);
    auto it = registry_.find(0);
    BG3_CHECK(it != registry_.end()) << "registry lost the INIT tree";
    BG3_CHECK(it->second == init_tree_.get())
        << "registry id 0 does not point at the INIT tree";
    const bwtree::TreeId bound =
        next_tree_id_.load(std::memory_order_relaxed);
    for (const auto& [id, tree] : registry_) {
      BG3_CHECK(tree != nullptr) << "registry tree " << id << " is null";
      BG3_CHECK_LT(id, bound) << "registry tree id beyond the id source";
      BG3_CHECK_EQ(tree->options().tree_id, id)
          << "registry id does not match the tree's own id";
    }
  }
  // Every dedicated owner's tree must be registered under its id. Owner
  // mutexes are only try-locked: the walker runs from split-out boundaries
  // where a caller may hold another owner's mutex, and it must never wait.
  for (const auto& shard : shards_) {
    std::vector<std::shared_ptr<OwnerState>> states;
    {
      MutexLock lock(&shard->mu);
      states.reserve(shard->owners.size());
      for (const auto& [owner, state] : shard->owners) states.push_back(state);
    }
    for (const auto& state : states) {
      if (!state->mu.TryLock()) continue;
      state->mu.AssertHeld();
      if (state->tree != nullptr) {
        BG3_CHECK(state->published.load(std::memory_order_relaxed) ==
                  state->tree.get())
            << "owner has a dedicated tree but no published pointer to it";
        BG3_CHECK(ResolveTree(state->tree->options().tree_id) ==
                  state->tree.get())
            << "dedicated tree not resolvable through the registry";
      } else {
        BG3_CHECK(state->published.load(std::memory_order_relaxed) == nullptr)
            << "published tree pointer without an owning tree";
      }
      state->mu.Unlock();
    }
  }
}

}  // namespace bg3::forest
