#ifndef BG3_REPLICATION_RW_NODE_H_
#define BG3_REPLICATION_RW_NODE_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bwtree/bwtree.h"
#include "bwtree/listener.h"
#include "common/metrics.h"
#include "gc/space_reclaimer.h"
#include "replication/checkpoint.h"
#include "replication/page_image.h"
#include "replication/ro_node.h"
#include "wal/writer.h"

namespace bg3::replication {

struct RwNodeOptions {
  /// The node's own tree; built with LoggedTreeOptions (deferred flushing —
  /// the RW node is the group-commit flusher of §3.4 — full read cache, the
  /// node as listener and as LSN source).
  bwtree::BwTreeOptions tree;
  wal::WalWriterOptions wal;
  /// Group commit: flush once this many pages of the node's tree set were
  /// dirtied since the last cut began ("accumulated dirty pages on the RW
  /// are flushed by a background thread once [they] reach a specific
  /// threshold").
  size_t flush_group_pages = 64;
  /// Also flush once this many mutations accumulated since the last
  /// checkpoint (bounds RO replay-log growth when the working set is small
  /// and the dirty-page threshold alone would never trigger).
  uint64_t flush_group_mutations = 8192;

  /// Graceful write degradation (DESIGN.md §5.5): once the WAL flush
  /// backlog (records buffered because batch appends keep failing) reaches
  /// this many records, Put/Delete shed with Status::Overloaded instead of
  /// growing the backlog without bound — reads keep serving from memory.
  /// 0 disables the watermark (historical behavior).
  size_t wal_backlog_watermark = 0;

  /// The node's Checkpointer: flush round size and background cadence. The
  /// group flush triggers above run the same checkpointer synchronously.
  CheckpointerOptions checkpoint;
};

/// The Read/Write node of BG3's write-once read-many architecture (§3.4,
/// Fig. 7). Every mutation is applied to an in-memory Bw-tree and logged
/// to the WAL on shared storage (steps (1)-(2)); dirty pages are flushed in
/// groups (step (7)); after a group the node publishes new page-table
/// versions to the shared mapping area and appends a checkpoint record
/// (step (8)). A group flush is a cut of the node's own Checkpointer, the
/// one path that publishes page images.
///
/// The node logs and checkpoints a set of trees under one WAL and one LSN
/// counter: its own tree() alone (the KV node), or, for a GraphDB, the
/// vertex tree plus every forest tree (DESIGN.md §5.7).
class RwNode : public bwtree::TreeListener {
 public:
  /// `trees` lists every tree the node logs and checkpoints, its own tree
  /// included, and must outlive the node; null means the own tree alone.
  /// Every other tree of the set is built with LoggedTreeOptions().
  RwNode(cloud::CloudStore* store, const RwNodeOptions& options,
         gc::TreeResolver* trees = nullptr);

  /// Brings up the rest of a recovering node's set (GraphDB's forest) from
  /// the same WAL export, building its trees with
  /// `node`->LoggedTreeOptions(). The source's NotFound means neither the
  /// checkpoint nor the WAL suffix holds the tree.
  using SetRestorer = std::function<Status(
      RwNode* node, const bwtree::RecoveredTreeSource& source)>;

  /// Crash recovery, the one restart path (DESIGN.md §5.7): rebuilds an
  /// RW node purely from shared storage — the published mapping-table
  /// images plus WAL replay (the same machinery RO nodes use for lazy page
  /// reconstruction). The newest checkpoint bounds the WAL read to its
  /// suffix, and pages the suffix did not touch install demand-paged, so
  /// recovery reads only the suffix and the pages it touched. Reads serve
  /// at once; each tree's WarmRestoredPages fetches the rest in the
  /// background. The recovered node continues the existing WAL (LSNs
  /// resume after the highest recovered LSN), so RO nodes that were
  /// tailing before the crash keep working unchanged. With a tree set,
  /// `restore_set` installs the other trees from the same export before
  /// the recovery checkpoint.
  static Result<std::unique_ptr<RwNode>> Recover(
      cloud::CloudStore* store, const RwNodeOptions& options,
      gc::TreeResolver* trees = nullptr, const SetRestorer& restore_set = {});

  /// Builds an RW node from a tree export (the tail half of Recover();
  /// follower promotion uses it on the follower's own export) and
  /// checkpoints it. Demand-paged pages install non-resident and queue for
  /// the tree's warm sweep. The export's clean/dirty page marking bounds
  /// that checkpoint to the pages the WAL suffix actually touched — restart
  /// work is proportional to the suffix, not the database.
  static Result<std::unique_ptr<RwNode>> FromExport(
      cloud::CloudStore* store, const RwNodeOptions& options,
      RoNode::ExportedTree&& exported);

  RwNode(const RwNode&) = delete;
  RwNode& operator=(const RwNode&) = delete;

  /// Writes shed with Overloaded once the WAL backlog watermark is hit;
  /// reads are never shed here. The optional OpContext deadline threads
  /// through the tree and WAL I/O beneath.
  Status Put(const Slice& key, const Slice& value,
             const OpContext* ctx = nullptr);
  Status Delete(const Slice& key, const OpContext* ctx = nullptr);
  Result<std::string> Get(const Slice& key, const OpContext* ctx = nullptr);
  Status Scan(const bwtree::BwTree::ScanOptions& options,
              std::vector<bwtree::Entry>* out, const OpContext* ctx = nullptr);

  /// Group-flush triggers: checkpoints once flush_group_pages pages of the
  /// set were dirtied or flush_group_mutations LSNs passed since the last
  /// cut. Put/Delete run it after each write; a caller that writes the
  /// other trees of the set runs it the same way.
  Status MaybeCheckpoint();

  /// Options for a tree of this node's set: `base` with deferred flushing,
  /// the full read cache, this node as listener and its LSN counter.
  bwtree::BwTreeOptions LoggedTreeOptions(bwtree::BwTreeOptions base);

  /// Writes shed by the WAL-backlog watermark so far.
  uint64_t writes_shed() const { return writes_shed_.Get(); }

  /// The node's checkpoint state machine (DESIGN.md §5.7). Group flushes
  /// and FromExport run CheckpointNow(); Start()/Stop() run its background
  /// thread at options.checkpoint.interval_ms.
  Checkpointer* checkpointer() { return checkpointer_.get(); }

  /// What building this node from storage replayed (Recover/FromExport);
  /// all zero for a node that started empty.
  const RoNode::ReplayStats& recovery() const { return recovery_; }

  bwtree::BwTree* tree() { return tree_.get(); }
  wal::WalWriter* wal_writer() { return &wal_; }
  const RwNodeOptions& options() const { return opts_; }

  // --- bwtree::TreeListener ------------------------------------------------
  /// A failed TreeInit append stays buffered ahead of the tree's first
  /// mutation record, whose append then reports it.
  void OnTreeInit(bwtree::TreeId tree, bwtree::PageId initial_page) override;
  Status OnMutation(bwtree::TreeId tree, bwtree::PageId page, bwtree::Lsn lsn,
                    const bwtree::EntryView& entry) override;
  Status OnSplit(bwtree::TreeId tree, bwtree::PageId old_page,
                 bwtree::PageId new_page, bwtree::Lsn lsn,
                 const std::string& separator) override;
  void OnPageFlushed(bwtree::TreeId tree, bwtree::PageId page,
                     bwtree::Lsn flushed_lsn,
                     const cloud::PagePointer& base_ptr,
                     const std::vector<cloud::PagePointer>& delta_ptrs,
                     const std::string& low_key, const std::string& high_key,
                     bool has_high_key) override;

 private:
  friend class Checkpointer;

  /// `recovered` continues that export's WAL: the own tree comes up in
  /// bootstrap mode (Build installs its pages) and LSNs resume past it.
  RwNode(cloud::CloudStore* store, const RwNodeOptions& options,
         gc::TreeResolver* trees, const RoNode::ExportedTree* recovered);

  /// Recover/FromExport: installs `exported` as the own tree, the rest of
  /// the set through `restore_set`, then checkpoints.
  static Result<std::unique_ptr<RwNode>> Build(
      cloud::CloudStore* store, const RwNodeOptions& options,
      gc::TreeResolver* trees, RoNode::ExportedTree&& exported,
      const SetRestorer& restore_set,
      const bwtree::RecoveredTreeSource& source);

  // --- checkpoint steps (called by checkpointer_ only, serialized) ---------
  /// Newest LSN handed out; mutations at or below it are in memory and
  /// (once the WAL flushes) durable. The fuzzy-cut capture point.
  bwtree::Lsn CurrentLsn() const {
    return lsn_source_.load(std::memory_order_acquire);
  }
  /// True while flushed-page images await publication.
  bool HasPendingImages() const { return stager_.HasStaged(); }
  /// Begins a cut: LSN, then the WAL made durable through it and its
  /// cursor, then every tree's leaf count and dirty pages.
  Status BeginCut(CutStart* cut);
  /// Flushes one page of the cut; NotFound when it no longer exists.
  Status FlushPage(bwtree::TreeId tree, bwtree::PageId page);
  /// Re-flushes trees that split or were born during the cut, publishes
  /// every staged mapping entry (the stager's one ordered pass) and appends
  /// a checkpoint WAL record announcing coverage through `cut_lsn`; the
  /// manifest names every tree of the set. A deposed leader, whose stream
  /// is fenced past its term, drops its staged images and fails with
  /// Fenced instead.
  Status CommitCheckpoint(bwtree::Lsn cut_lsn, CheckpointManifest* manifest);

  cloud::CloudStore* const store_;
  RwNodeOptions opts_;
  wal::WalWriter wal_;
  /// The one LSN counter of every tree the node logs.
  std::atomic<bwtree::Lsn> lsn_source_{0};
  /// Pages of the set dirtied since the last cut began (every logged tree
  /// counts into it).
  std::atomic<size_t> dirtied_pages_{0};
  std::unique_ptr<bwtree::BwTree> tree_;
  /// The own-tree set of a node built without one.
  std::unique_ptr<gc::SingleTreeResolver> own_set_;
  gc::TreeResolver* trees_ = nullptr;

  /// Images of flushed pages awaiting publication by CommitCheckpoint.
  ImageStager stager_;

  /// LSN of the newest committed cut; the mutation trigger reads it without
  /// taking the checkpointer's mutex.
  std::atomic<bwtree::Lsn> last_checkpoint_{0};
  /// WAL position an exported tree was materialized through: the cut
  /// cursor until this incarnation has committed a batch of its own.
  wal::WalCursor export_cursor_;
  RoNode::ReplayStats recovery_;
  /// Leaf count per tree when the open cut began; trees absent were born
  /// during the cut (checkpointer calls only).
  std::unordered_map<bwtree::TreeId, size_t> cut_leaves_;

  LightCounter writes_shed_;

  /// Last member: destroyed (its thread stopped) before what it drives.
  std::unique_ptr<Checkpointer> checkpointer_;
};

}  // namespace bg3::replication

#endif  // BG3_REPLICATION_RW_NODE_H_
