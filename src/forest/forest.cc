#include "forest/forest.h"

#include "common/coding.h"
#include "common/logging.h"
#include "common/timed_scope.h"

namespace bg3::forest {

namespace {

void AppendBigEndian64(std::string* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

uint64_t ReadBigEndian64(const std::string& src) {
  uint64_t v = 0;
  for (char c : src) v = (v << 8) | static_cast<uint8_t>(c);
  return v;
}

/// Directory row counting restarts; owner rows are 8-byte keys.
constexpr const char* kIncarnationKey = "n";

std::string EncodeTreeId(uint64_t id) {
  std::string value;
  PutFixed64(&value, id);
  return value;
}

/// Counts one upsert (+1) or delete (-1) against an owner; the caller holds
/// the owner lock. Saturates at both ends.
void AddToCount(OwnerState* state, int delta) {
  const uint32_t n = state->count.load(std::memory_order_relaxed);
  if (delta > 0 ? n == UINT32_MAX : n == 0) return;
  state->count.store(n + delta, std::memory_order_relaxed);
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
    : BwTreeForest(store, options, /*fresh=*/true) {}

BwTreeForest::BwTreeForest(cloud::CloudStore* store,
                           const ForestOptions& options, bool fresh)
    : store_(store),
      opts_(options),
      init_has_stateless_owners_(!fresh),
      owners_(options.owner_shards) {
  if (!fresh) return;
  init_tree_ = std::make_unique<bwtree::BwTree>(store_, MakeTreeOptions(0));
  directory_ = std::make_unique<bwtree::BwTree>(
      store_, MakeTreeOptions(kDirectoryTreeId));
  MutexLock lock(&registry_mu_);
  registry_[0] = init_tree_.get();
}

Result<std::unique_ptr<BwTreeForest>> BwTreeForest::Recover(
    cloud::CloudStore* store, const ForestOptions& options,
    const bwtree::RecoveredTreeSource& source) {
  std::unique_ptr<BwTreeForest> forest(
      new BwTreeForest(store, options, /*fresh=*/false));
  // `routed`: a directory row names the tree, so the log must hold it.
  const auto open = [&forest, &source](bwtree::TreeId id, bool routed)
      -> Result<std::unique_ptr<bwtree::BwTree>> {
    auto pages = source(id);
    if (pages.status().IsNotFound()) {
      if (routed) {
        return Status::Corruption("owner directory routes to tree " +
                                  std::to_string(id) + ", absent from the log");
      }
      return std::make_unique<bwtree::BwTree>(forest->store_,
                                              forest->MakeTreeOptions(id));
    }
    BG3_RETURN_IF_ERROR(pages.status());
    auto tree = std::make_unique<bwtree::BwTree>(
        forest->store_, forest->MakeTreeOptions(id, /*bootstrap=*/true));
    BG3_RETURN_IF_ERROR(tree->InstallRecoveredPages(pages.take()));
    return tree;
  };
  BG3_ASSIGN_OR_RETURN(forest->init_tree_, open(0, /*routed=*/false));
  BG3_ASSIGN_OR_RETURN(forest->directory_,
                       open(kDirectoryTreeId, /*routed=*/false));
  {
    MutexLock lock(&forest->registry_mu_);
    forest->registry_[0] = forest->init_tree_.get();
  }
  // Only trees the directory routes to are opened: one left in the log by
  // an aborted split-out has no row and stays behind.
  std::vector<bwtree::Entry> rows;
  BG3_RETURN_IF_ERROR(forest->directory_->Scan({}, &rows));
  uint64_t incarnation = 0;
  for (const bwtree::Entry& row : rows) {
    if (row.value.size() != 8) return Status::Corruption("directory row");
    const uint64_t value = DecodeFixed64(row.value.data());
    if (row.key == kIncarnationKey) {
      incarnation = value;
      continue;
    }
    if (row.key.size() != 8) return Status::Corruption("directory owner");
    const bwtree::TreeId id = value;
    BG3_ASSIGN_OR_RETURN(std::unique_ptr<bwtree::BwTree> tree,
                         open(id, /*routed=*/true));
    forest->owners_.FindOrCreate(ReadBigEndian64(row.key))
        ->published.store(tree.get(), std::memory_order_release);
    MutexLock lock(&forest->registry_mu_);
    forest->registry_[id] = tree.get();
    forest->dedicated_.push_back(std::move(tree));
  }
  // Trees of this incarnation take ids above every earlier incarnation's,
  // so no id is handed out twice — not even that of an aborted split-out
  // whose page images were published. The row is logged before any record
  // of a new tree.
  ++incarnation;
  BG3_RETURN_IF_ERROR(forest->directory_->Upsert(kIncarnationKey,
                                                 EncodeTreeId(incarnation)));
  forest->next_tree_id_.store(incarnation << 32 | 1,
                              std::memory_order_relaxed);
  return forest;
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

bwtree::BwTree* BwTreeForest::PublishedTree(const OwnerState* state) {
  return state == nullptr ? nullptr
                          : state->published.load(std::memory_order_acquire);
}

Status BwTreeForest::Upsert(OwnerId owner, const Slice& sort_key,
                            const Slice& value, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.forest.upsert", OpLayer::kForest);
  OwnerState* state = owners_.FindOrCreate(owner);
  OwnerLock& owner_lock = OwnerTable::LockOf(owner);
  bool split_out = false;
  // A split-out in flight is waited for outside the lock: `continue`
  // releases it, then the loop's increment waits. `published` only changes
  // under the lock, so a relaxed load suffices here.
  for (;; state->splitting.wait(true)) {
    MutexLock lock(&owner_lock.mu);
    if (bwtree::BwTree* tree =
            state->published.load(std::memory_order_relaxed)) {
      BG3_RETURN_IF_ERROR(tree->Upsert(sort_key, value, ctx));
      AddToCount(state, 1);
      return Status::OK();
    }
    if (state->splitting.load()) continue;
    BG3_RETURN_IF_ERROR(
        init_tree_->Upsert(MakeInitKey(owner, sort_key), value, ctx));
    AddToCount(state, 1);
    init_entries_.fetch_add(1, std::memory_order_relaxed);
    split_out = opts_.split_out_threshold == 0 ||
                state->count.load(std::memory_order_relaxed) >
                    opts_.split_out_threshold;
    break;
  }
  if (split_out) {
    BG3_RETURN_IF_ERROR(SplitOut(state, &stats_.split_outs));
  }
  if (init_entries_.load(std::memory_order_relaxed) >
      opts_.init_tree_capacity) {
    MaybeEvictFromInit();
  }
  return Status::OK();
}

Status BwTreeForest::Delete(OwnerId owner, const Slice& sort_key,
                            const OpContext* ctx) {
  OwnerState* state = owners_.FindOrCreate(owner);
  OwnerLock& owner_lock = OwnerTable::LockOf(owner);
  for (;; state->splitting.wait(true)) {
    MutexLock lock(&owner_lock.mu);
    if (state->splitting.load()) continue;  // wait as Upsert does
    if (bwtree::BwTree* tree =
            state->published.load(std::memory_order_relaxed)) {
      BG3_RETURN_IF_ERROR(tree->Delete(sort_key, ctx));
    } else {
      BG3_RETURN_IF_ERROR(
          init_tree_->Delete(MakeInitKey(owner, sort_key), ctx));
      if (init_entries_.load(std::memory_order_relaxed) > 0) {
        init_entries_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    AddToCount(state, -1);
    return Status::OK();
  }
}

template <typename Read, typename Reset>
Status BwTreeForest::ReadOwner(OwnerId owner, const Read& read,
                               const Reset& reset) {
  OwnerState* state = owners_.Find(owner);
  if (state == nullptr && !init_has_stateless_owners_) {
    return Status::OK();  // an owner never written has no entries
  }
  // No owner lock (see the class comment): INIT entries are deleted only
  // after the owner's tree is published, so an INIT pass is sound unless a
  // tree was published meanwhile; then it is redone there.
  for (;;) {
    if (bwtree::BwTree* tree = PublishedTree(state)) {
      return read(tree, /*in_init=*/false);
    }
    BG3_RETURN_IF_ERROR(read(init_tree_.get(), /*in_init=*/true));
    // A recovered owner untouched since has no state; one made during the
    // pass may belong to a split-out.
    if (state == nullptr) state = owners_.Find(owner);
    if (PublishedTree(state) == nullptr) return Status::OK();
    reset();  // the pass raced a split-out
  }
}

Result<std::string> BwTreeForest::Get(OwnerId owner, const Slice& sort_key,
                                      const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.forest.lookup", OpLayer::kForest);
  Result<std::string> value = Status::NotFound("unknown owner");
  BG3_RETURN_IF_ERROR(ReadOwner(
      owner,
      [&](bwtree::BwTree* tree, bool in_init) {
        value = in_init ? tree->Get(MakeInitKey(owner, sort_key), ctx)
                        : tree->Get(sort_key, ctx);
        return Status::OK();
      },
      [] {}));
  return value;
}

Status BwTreeForest::ScanOwner(OwnerId owner, const Slice& start_sort_key,
                               size_t limit,
                               const bwtree::EntryVisitor& visit,
                               const std::function<void()>& reset,
                               const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.forest.scan", OpLayer::kForest);
  return ReadOwner(
      owner,
      [&](bwtree::BwTree* tree, bool in_init) {
        bwtree::BwTree::ScanOptions scan;
        scan.limit = limit;
        if (!in_init) {
          scan.start_key = start_sort_key.ToString();
          return tree->Visit(scan, visit, ctx);
        }
        // INIT prefix scan [owner|start, owner+1); the prefix is stripped.
        scan.start_key = MakeInitKey(owner, start_sort_key);
        scan.end_key = owner == ~0ull ? std::string() : OwnerPrefix(owner + 1);
        return tree->Visit(
            scan,
            [&visit](const Slice& key, const Slice& value) {
              return visit(Slice(key.data() + 8, key.size() - 8), value);
            },
            ctx);
      },
      reset);
}

Status BwTreeForest::ScanOwner(OwnerId owner, const Slice& start_sort_key,
                               size_t limit, std::vector<bwtree::Entry>* out,
                               const OpContext* ctx) {
  const size_t size_at_entry = out->size();
  return ScanOwner(
      owner, start_sort_key, limit,
      [out](const Slice& key, const Slice& value) {
        out->push_back(bwtree::Entry{key.ToString(), value.ToString()});
        return true;
      },
      [out, size_at_entry] { out->resize(size_at_entry); }, ctx);
}

size_t BwTreeForest::OwnerEntryCount(OwnerId owner) const {
  const OwnerState* state = owners_.Find(owner);
  if (state == nullptr) return 0;
  return state->count.load(std::memory_order_relaxed);
}

Status BwTreeForest::DedicateOwner(OwnerId owner) {
  return SplitOut(owners_.FindOrCreate(owner), &stats_.split_outs);
}

bwtree::BwTree* BwTreeForest::NewDedicatedTree() {
  // Created (its TreeInit logged) and registered under one hold: a
  // checkpoint cut lists the trees after its WAL flush, so it either sees
  // the tree or precedes the tree's first log record.
  MutexLock lock(&registry_mu_);
  const bwtree::TreeId id =
      next_tree_id_.fetch_add(1, std::memory_order_relaxed);
  dedicated_.push_back(
      std::make_unique<bwtree::BwTree>(store_, MakeTreeOptions(id)));
  registry_[id] = dedicated_.back().get();
  return dedicated_.back().get();
}

void BwTreeForest::AbandonTree(bwtree::BwTree* tree) {
  MutexLock lock(&registry_mu_);
  registry_.erase(tree->options().tree_id);
}

Status BwTreeForest::SplitOut(OwnerState* state, LightCounter* reason) {
  BG3_TIMED_SCOPE("bg3.forest.split_out", OpLayer::kForest);
  const OwnerId owner = state->owner;
  OwnerLock& owner_lock = OwnerTable::LockOf(owner);
  // Claim the owner: from here its writers wait instead of touching INIT,
  // so the copy below sees the owner's final INIT entries.
  for (;; state->splitting.wait(true)) {
    MutexLock lock(&owner_lock.mu);
    if (state->published.load(std::memory_order_relaxed) != nullptr) {
      return Status::OK();
    }
    if (state->splitting.load()) continue;  // wait as Upsert does
    state->splitting.store(true);
    break;
  }
  // Settles the claim: publishes `tree` (null = give up) and wakes writers.
  const auto finish = [state, &owner_lock](bwtree::BwTree* tree) {
    MutexLock lock(&owner_lock.mu);
    // Readers route to the dedicated tree from this release store on
    // (their acquire loads pair with it); the eviction scan keys off it.
    state->published.store(tree, std::memory_order_release);
    state->splitting.store(false);
    state->splitting.notify_all();
  };

  bwtree::BwTree* const tree = NewDedicatedTree();
  const bwtree::TreeId id = tree->options().tree_id;

  // Move the owner's INIT entries into the dedicated tree with shortened
  // keys. If any upsert fails (storage trouble the tree's own retry budget
  // could not absorb), the tree is abandoned: INIT is untouched, the owner
  // stays INIT-resident, and with no directory row a restart never opens
  // the tree; GC's orphan path drops the records it may have flushed.
  bwtree::BwTree::ScanOptions scan;
  scan.start_key = OwnerPrefix(owner);
  scan.end_key = owner == ~0ull ? std::string() : OwnerPrefix(owner + 1);
  std::vector<bwtree::Entry> entries;
  Status copied = init_tree_->Scan(scan, &entries);
  for (size_t i = 0; copied.ok() && i < entries.size(); ++i) {
    copied = tree->Upsert(entries[i].key.substr(8), entries[i].value);
  }
  if (!copied.ok()) {
    AbandonTree(tree);
    finish(nullptr);
    return copied;
  }

  // The directory row is the commit point: logged after every copied
  // entry and before any write to the tree, so a restart that routes the
  // owner here has the whole copy. A failed upsert may still land, so the
  // split-out commits in memory either way and reports the failure.
  const Status routed =
      directory_->Upsert(OwnerPrefix(owner), EncodeTreeId(id));

  // Publish the fully populated tree *before* deleting the INIT copies, so
  // a delete failure below cannot lose data: reads already route to the
  // dedicated tree, and any INIT leftovers are shadowed dead weight. No
  // writer touches the owner's INIT prefix again.
  finish(tree);
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
  BG3_RETURN_IF_ERROR(routed);
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
    BG3_DCHECK(ResolveTree(id) == tree);
  }
  return Status::OK();
}

void BwTreeForest::MaybeEvictFromInit() {
  if (init_evicting_.exchange(true, std::memory_order_acquire)) {
    return;  // the eviction in flight relieves the pressure
  }
  if (init_entries_.load(std::memory_order_relaxed) <=
      opts_.init_tree_capacity) {
    init_evicting_.store(false, std::memory_order_release);
    return;  // an eviction that just finished relieved it
  }
  // Find the INIT-resident owner with the most entries. `published` and
  // `count` are atomics precisely so this scan takes no owner lock; the
  // reads are approximate, and a winner dedicated meanwhile makes SplitOut
  // a no-op.
  uint32_t victim_count = 0;
  OwnerState* victim = nullptr;
  owners_.ForEach([&victim, &victim_count](OwnerState* state) {
    const uint32_t count = state->count.load(std::memory_order_relaxed);
    if (count > victim_count &&
        state->published.load(std::memory_order_acquire) == nullptr) {
      victim_count = count;
      victim = state;
    }
  });
  // Opportunistic eviction: on failure the owner simply stays in the init
  // tree and a later write over capacity retries.
  if (victim != nullptr) {
    BG3_IGNORE_STATUS(SplitOut(victim, &stats_.evictions));
  }
  init_evicting_.store(false, std::memory_order_release);
}

size_t BwTreeForest::DedicatedTreeCount() const {
  MutexLock lock(&registry_mu_);
  return registry_.size() - 1;  // minus INIT
}

size_t BwTreeForest::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this);
  std::vector<bwtree::BwTree*> trees;
  AppendTrees(&trees);
  for (bwtree::BwTree* t : trees) bytes += t->ApproxMemoryBytes();
  {
    MutexLock lock(&registry_mu_);
    bytes += dedicated_.capacity() * sizeof(dedicated_[0]);
  }
  return bytes + owners_.MemoryBytes();
}

void BwTreeForest::AppendTrees(std::vector<bwtree::BwTree*>* out) const {
  MutexLock lock(&registry_mu_);
  out->reserve(out->size() + registry_.size() + 1);
  out->push_back(directory_.get());
  for (const auto& [id, tree] : registry_) out->push_back(tree);
}

size_t BwTreeForest::TotalResidentBytes() const {
  std::vector<bwtree::BwTree*> trees;
  AppendTrees(&trees);
  return TotalResidentBytesAcross(trees);
}

bwtree::BwTree* BwTreeForest::ResolveTree(bwtree::TreeId id) const {
  if (id == kDirectoryTreeId) return directory_.get();
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
    BG3_CHECK_LE(registry_.size(), dedicated_.size() + 1)
        << "registry lists a tree the forest does not own";
  }
  // Every record is indexed under its owner, and every dedicated owner's
  // tree is registered under its id. Checked after the walk: the registry
  // lock must not nest inside a shard lock.
  std::vector<OwnerState*> states;
  owners_.ForEach([&states](OwnerState* state) { states.push_back(state); });
  for (OwnerState* state : states) {
    BG3_CHECK(owners_.Find(state->owner) == state)
        << "owner " << state->owner << " not indexed to its record";
    if (bwtree::BwTree* tree = PublishedTree(state)) {
      BG3_CHECK(ResolveTree(tree->options().tree_id) == tree)
          << "dedicated tree not resolvable through the registry";
    }
  }
}

}  // namespace bg3::forest
