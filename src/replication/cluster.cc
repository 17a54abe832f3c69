#include "replication/cluster.h"

#include <algorithm>

#include "common/debug_server.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics_registry.h"

namespace bg3::replication {

Bg3Cluster::Bg3Cluster(cloud::CloudStore* store, const ClusterOptions& options)
    : store_(store), opts_(options) {
  BG3_CHECK_GT(opts_.partitions, 0);
  BG3_CHECK_GT(opts_.followers_per_partition, 0);
  parts_.reserve(opts_.partitions);
  for (int p = 0; p < opts_.partitions; ++p) {
    auto part = std::make_unique<Partition>();
    part->tree_id = static_cast<bwtree::TreeId>(p + 1);
    part->wal_stream =
        store_->CreateStream("cluster-p" + std::to_string(p) + "-wal");
    part->leader = std::make_unique<RwNode>(store_, LeaderOptions(*part));
    part->term.store(part->leader->wal_writer()->term(),
                     std::memory_order_relaxed);
    for (int f = 0; f < opts_.followers_per_partition; ++f) {
      part->followers.push_back(MakeFollower(*part, f));
    }
    parts_.push_back(std::move(part));
  }
  RegisterMetrics();
}

Bg3Cluster::~Bg3Cluster() {
  if (!health_source_.empty()) {
    // Barrier: after this returns, no /healthz render can touch the nodes
    // the member destructors are about to tear down.
    DebugServer::UnregisterHealthSource(health_source_);
  }
  if (!metrics_prefix_.empty()) {
    MetricsRegistry::Default().DeregisterPrefix(metrics_prefix_);
  }
}

std::unique_ptr<RoNode> Bg3Cluster::MakeFollower(const Partition& part,
                                                 int index) const {
  RoNodeOptions ro = opts_.ro;
  ro.wal_stream = part.wal_stream;
  ro.seed = opts_.ro.seed + (part.tree_id - 1) * 131 + index;
  return std::make_unique<RoNode>(store_, ro);
}

void Bg3Cluster::RegisterMetrics() {
  auto& reg = MetricsRegistry::Default();
  const std::string instance =
      "bg3.db" + std::to_string(MetricsRegistry::NextInstanceId("db"));
  metrics_prefix_ = instance + ".failover.";
  health_source_ = instance;
  DebugServer::RegisterHealthSource(health_source_,
                                    [this] { return HealthJson(); });
  reg.RegisterCounter(metrics_prefix_ + "promotions", &promotions_);
  reg.RegisterCallback(metrics_prefix_ + "fenced_appends",
                       [this] { return fenced_appends(); });
  reg.RegisterCallback(metrics_prefix_ + "zombie_drained",
                       [this] { return zombie_drained(); });
  reg.RegisterCallback(metrics_prefix_ + "term", [this] {
    uint64_t max_term = 0;
    for (const auto& part : parts_) {
      max_term =
          std::max(max_term, part->term.load(std::memory_order_relaxed));
    }
    return max_term;
  });
}

RwNodeOptions Bg3Cluster::LeaderOptions(const Partition& part) const {
  RwNodeOptions rw = opts_.leader;
  rw.tree.tree_id = part.tree_id;
  rw.tree.base_stream = store_->CreateStream(
      "cluster-p" + std::to_string(part.tree_id - 1) + "-base");
  rw.tree.delta_stream = store_->CreateStream(
      "cluster-p" + std::to_string(part.tree_id - 1) + "-delta");
  rw.wal.stream = part.wal_stream;
  return rw;
}

int Bg3Cluster::PartitionOf(const Slice& key) const {
  return static_cast<int>(HashSlice(key) % parts_.size());
}

Status Bg3Cluster::Put(const Slice& key, const Slice& value) {
  return parts_[PartitionOf(key)]->leader->Put(key, value);
}

Status Bg3Cluster::Delete(const Slice& key) {
  return parts_[PartitionOf(key)]->leader->Delete(key);
}

Result<std::string> Bg3Cluster::Get(const Slice& key) {
  Partition& part = *parts_[PartitionOf(key)];
  const uint64_t rr = read_rr_.fetch_add(1, std::memory_order_relaxed);
  RoNode* follower = part.followers[rr % part.followers.size()].get();
  return follower->Get(part.tree_id, key);
}

Result<std::string> Bg3Cluster::GetFromLeader(const Slice& key) {
  return parts_[PartitionOf(key)]->leader->Get(key);
}

Status Bg3Cluster::Scan(const Slice& start_key, const Slice& end_key,
                        size_t limit, std::vector<bwtree::Entry>* out) {
  // Hash partitioning scatters any key range across all partitions: scan
  // each leader and merge. (Leaders give the strongest read; followers
  // would work identically via RoNode::Scan.)
  std::vector<bwtree::Entry> merged;
  for (auto& part : parts_) {
    bwtree::BwTree::ScanOptions scan;
    scan.start_key = start_key.ToString();
    scan.end_key = end_key.ToString();
    scan.limit = limit;
    BG3_RETURN_IF_ERROR(part->leader->Scan(scan, &merged));
  }
  std::sort(merged.begin(), merged.end(),
            [](const bwtree::Entry& a, const bwtree::Entry& b) {
              return a.key < b.key;
            });
  if (merged.size() > limit) merged.resize(limit);
  out->insert(out->end(), std::make_move_iterator(merged.begin()),
              std::make_move_iterator(merged.end()));
  return Status::OK();
}

Status Bg3Cluster::FlushAll() {
  for (auto& part : parts_) {
    BG3_RETURN_IF_ERROR(part->leader->checkpointer()->CheckpointNow());
  }
  return Status::OK();
}

Status Bg3Cluster::CrashAndRecoverLeader(int partition) {
  if (partition < 0 || partition >= partitions()) {
    return Status::InvalidArgument("no such partition");
  }
  Partition& part = *parts_[partition];
  const RwNodeOptions opts = LeaderOptions(part);
  {
    std::lock_guard<std::mutex> lock(zombie_mu_);
    part.leader.reset();  // crash: all volatile state gone
  }
  // Recover resumes from the newest wal<stream>-scope checkpoint manifest
  // (when one exists) and replays only the WAL suffix past its cursor.
  auto recovered = RwNode::Recover(store_, opts);
  BG3_RETURN_IF_ERROR(recovered.status());
  {
    std::lock_guard<std::mutex> lock(zombie_mu_);
    part.leader = recovered.take();
    part.term.store(part.leader->wal_writer()->term(),
                    std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Bg3Cluster::PromoteFollower(int partition, int follower_index) {
  if (partition < 0 || partition >= partitions()) {
    return Status::InvalidArgument("no such partition");
  }
  Partition& part = *parts_[partition];
  if (follower_index < 0 ||
      follower_index >= static_cast<int>(part.followers.size())) {
    return Status::InvalidArgument("no such follower");
  }

  // Pick a term strictly newer than anything durable or local: adopt the
  // persisted epoch record's term into the process allocator first, so the
  // allocation exceeds both it and every writer this process ever made.
  const std::string scope = WalScope(part.wal_stream);
  auto current = LoadEpochRecord(store_, scope);
  if (current.ok()) wal::ObserveWalTerm(current.value().term);
  const uint64_t term = wal::AllocateWalTerm();

  // Durably crown the term. Exactly one concurrent promoter survives the
  // epoch-slot CAS; the loser gets Aborted here, before it has touched the
  // stream or any node.
  auto crowned = PublishEpochRecord(store_, scope, term, part.wal_stream);
  BG3_RETURN_IF_ERROR(crowned.status());

  // The old leader is deposed from here on: stop its checkpoint thread
  // before the fence, so a cut it is committing finishes under its still
  // valid term and no later one starts (its fenced commit would fail).
  part.leader->checkpointer()->Stop();

  // Fence the WAL at the crowned term: from this instant the old leader's
  // in-flight pipelined groups land nowhere (Status::Fenced) and the tail
  // is final — the catch-up below cannot be outrun.
  store_->FenceStream(part.wal_stream, term);

  // Catch every follower up to the immutable tail, then cross the epoch
  // boundary: stale-term batches still held in seq-gap maps are dropped,
  // never applied (the zero-stale-records invariant). The poll MUST precede
  // the advance — an explicit term advance on a lagging reader would dedupe
  // the acked old-term suffix it never delivered. The candidate's catch-up
  // is load-bearing (its export becomes the new leader); a peer whose poll
  // fails under injected faults just skips the advance and crosses the
  // boundary organically on its next successful poll.
  RoNode* cand = part.followers[follower_index].get();
  BG3_RETURN_IF_ERROR(cand->PollWal());
  for (auto& follower : part.followers) {
    if (follower.get() != cand && !follower->PollWal().ok()) continue;
    follower->AdvanceWalTerm(term);
  }

  // Reopen the candidate's state as the RW leader, stamping the crowned
  // term into every batch it will write. Because the candidate tails
  // continuously (or bootstrapped from the checkpoint manifest), the WAL it
  // ever read is bounded by the checkpoint suffix, and the export fetches
  // only pages it neither caches nor can leave on storage — promotion cost
  // does not scale with total WAL length or database size.
  auto exported = cand->ExportTree(part.tree_id);
  BG3_RETURN_IF_ERROR(exported.status());
  RwNodeOptions opts = LeaderOptions(part);
  opts.wal.term = term;
  auto promoted = RwNode::FromExport(store_, opts, exported.take());
  BG3_RETURN_IF_ERROR(promoted.status());

  // Depose. The old leader lives on as the partition zombie so its
  // in-flight and parked batches drain against the fence instead of
  // vanishing silently.
  {
    std::lock_guard<std::mutex> lock(zombie_mu_);
    if (part.zombie != nullptr) {
      part.retired_fenced += part.zombie->wal_writer()->fenced_appends();
      part.retired_drained += part.zombie->wal_writer()->zombie_drained();
    }
    part.zombie = std::move(part.leader);
    part.leader = promoted.take();
    part.term.store(term, std::memory_order_relaxed);
  }

  // Refill the promoted follower's pool slot with a fresh node; it
  // bootstraps from the checkpoint manifest (suffix-only replay).
  part.followers[follower_index] = MakeFollower(part, follower_index);
  promotions_.Inc();
  return Status::OK();
}

void Bg3Cluster::ReapZombie(int partition) {
  if (partition < 0 || partition >= partitions()) return;
  Partition& part = *parts_[partition];
  std::unique_ptr<RwNode> dead;
  {
    std::lock_guard<std::mutex> lock(zombie_mu_);
    if (part.zombie == nullptr) return;
    part.retired_fenced += part.zombie->wal_writer()->fenced_appends();
    part.retired_drained += part.zombie->wal_writer()->zombie_drained();
    dead = std::move(part.zombie);
  }
  dead.reset();  // outside the lock: the dtor joins pipeline threads
}

Status Bg3Cluster::RestartFollower(int partition, int index) {
  if (partition < 0 || partition >= partitions()) {
    return Status::InvalidArgument("no such partition");
  }
  Partition& part = *parts_[partition];
  if (index < 0 || index >= static_cast<int>(part.followers.size())) {
    return Status::InvalidArgument("no such follower");
  }
  // Pre-warm source: a live peer follower when the pool has one; a
  // single-node pool snapshots the outgoing node's own resident set before
  // teardown. Either way the replacement materializes the working set from
  // the shared store's images, not from a cold sweep.
  const size_t peer = (index + 1) % part.followers.size();
  std::vector<std::pair<bwtree::TreeId, bwtree::PageId>> warm =
      part.followers[peer]->ResidentPages();
  part.followers[index].reset();  // one at a time: the rest keep serving
  part.followers[index] = MakeFollower(part, index);
  // Pre-warm is an optimization, never a correctness step: if it fails the
  // replacement node is installed anyway and warms on demand.
  auto warmed = part.followers[index]->WarmPageSet(warm);
  return warmed.status();
}

Status Bg3Cluster::RollingRestart() {
  for (int p = 0; p < partitions(); ++p) {
    Partition& part = *parts_[p];
    for (size_t f = 0; f < part.followers.size(); ++f) {
      BG3_RETURN_IF_ERROR(RestartFollower(p, static_cast<int>(f)));
    }
    // Leader last, via failover: the partition's write outage is exactly
    // one promotion wide, and the deposed process is fenced, not trusted.
    BG3_RETURN_IF_ERROR(PromoteFollower(p, 0));
    ReapZombie(p);
  }
  return Status::OK();
}

uint64_t Bg3Cluster::fenced_appends() const {
  std::lock_guard<std::mutex> lock(zombie_mu_);
  uint64_t total = 0;
  for (const auto& part : parts_) {
    total += part->retired_fenced;
    if (part->zombie != nullptr) {
      total += part->zombie->wal_writer()->fenced_appends();
    }
  }
  return total;
}

uint64_t Bg3Cluster::zombie_drained() const {
  std::lock_guard<std::mutex> lock(zombie_mu_);
  uint64_t total = 0;
  for (const auto& part : parts_) {
    total += part->retired_drained;
    if (part->zombie != nullptr) {
      total += part->zombie->wal_writer()->zombie_drained();
    }
  }
  return total;
}

std::vector<Bg3Cluster::PartitionHealth> Bg3Cluster::Health() const {
  std::vector<PartitionHealth> out;
  out.reserve(parts_.size());
  std::lock_guard<std::mutex> lock(zombie_mu_);
  for (size_t p = 0; p < parts_.size(); ++p) {
    const Partition& part = *parts_[p];
    PartitionHealth ph;
    ph.partition = static_cast<int>(p);
    if (part.leader != nullptr) {
      NodeHealth nh;
      nh.role = "leader";
      nh.term = part.term.load(std::memory_order_relaxed);
      nh.committed = part.leader->wal_writer()->committed_cursor();
      ph.nodes.push_back(std::move(nh));
    }
    for (const auto& follower : part.followers) {
      NodeHealth nh;
      nh.role = "follower";
      nh.cursor = follower->WalCursor();
      ph.nodes.push_back(std::move(nh));
    }
    if (part.zombie != nullptr) {
      NodeHealth nh;
      nh.role = "zombie";
      nh.term = part.zombie->wal_writer()->term();
      ph.nodes.push_back(std::move(nh));
    }
    out.push_back(std::move(ph));
  }
  return out;
}

std::string Bg3Cluster::HealthJson() const {
  const std::vector<PartitionHealth> health = Health();
  std::string out = "\"partitions\": [";
  for (size_t p = 0; p < health.size(); ++p) {
    const PartitionHealth& ph = health[p];
    if (p > 0) out += ", ";
    out += "{\"partition\": " + std::to_string(ph.partition) +
           ", \"nodes\": [";
    for (size_t n = 0; n < ph.nodes.size(); ++n) {
      const NodeHealth& nh = ph.nodes[n];
      if (n > 0) out += ", ";
      out += "{\"role\": \"" + nh.role + "\"";
      if (nh.role != "follower") {
        out += ", \"term\": " + std::to_string(nh.term);
      }
      if (nh.role == "leader") {
        out += ", \"committed\": {\"term\": " + std::to_string(nh.committed.term) +
               ", \"seq\": " + std::to_string(nh.committed.seq) +
               ", \"extent\": " +
               (nh.committed.ptr.IsNull()
                    ? std::string("null")
                    : std::to_string(nh.committed.ptr.extent_id)) +
               ", \"offset\": " + std::to_string(nh.committed.ptr.offset) +
               "}";
      } else if (nh.role == "follower") {
        out += ", \"wal_extent\": " +
               (nh.cursor.IsNull() ? std::string("null")
                                   : std::to_string(nh.cursor.extent_id)) +
               ", \"wal_offset\": " + std::to_string(nh.cursor.offset);
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]";
  return out;
}

void Bg3Cluster::StartCheckpointers() {
  for (auto& part : parts_) part->leader->checkpointer()->Start();
}

void Bg3Cluster::StopCheckpointers() {
  for (auto& part : parts_) part->leader->checkpointer()->Stop();
}

size_t Bg3Cluster::TruncateWal(int partition) {
  if (partition < 0 || partition >= partitions()) return 0;
  Partition& part = *parts_[partition];
  // The slowest follower's cursor; one that never polled pins the whole log.
  cloud::ExtentId floor = cloud::kInvalidExtent;
  for (auto& follower : part.followers) {
    const cloud::PagePointer cursor = follower->WalCursor();
    floor = std::min(floor, cursor.IsNull() ? 0 : cursor.extent_id);
  }
  return part.leader->checkpointer()->TruncateWal(floor);
}

}  // namespace bg3::replication
