#ifndef BG3_REPLICATION_RW_NODE_H_
#define BG3_REPLICATION_RW_NODE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "bwtree/bwtree.h"
#include "bwtree/listener.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "replication/checkpoint.h"
#include "replication/page_image.h"
#include "replication/ro_node.h"
#include "wal/writer.h"

namespace bg3::replication {

struct RwNodeOptions {
  /// Tree configuration; flush_mode is forced to kDeferred (the RW node is
  /// the group-commit flusher of §3.4) and the listener is the node itself.
  bwtree::BwTreeOptions tree;
  wal::WalWriterOptions wal;
  /// Group commit: flush once this many pages are dirty ("accumulated dirty
  /// pages on the RW are flushed by a background thread once [they] reach a
  /// specific threshold").
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
/// Fig. 7). Every mutation is applied to the in-memory Bw-tree and logged
/// to the WAL on shared storage (steps (1)-(2)); dirty pages are flushed in
/// groups (step (7)); after a group the node publishes new page-table
/// versions to the shared mapping area and appends a checkpoint record
/// (step (8)). A group flush is a cut of the node's own Checkpointer, the
/// one path that publishes page images (privately: only that checkpointer
/// drives the CheckpointTarget calls).
class RwNode : public bwtree::TreeListener, private CheckpointTarget {
 public:
  RwNode(cloud::CloudStore* store, const RwNodeOptions& options);

  /// Crash recovery, the one restart path (DESIGN.md §5.7): rebuilds an
  /// RW node purely from shared storage — the published mapping-table
  /// images plus WAL replay (the same machinery RO nodes use for lazy page
  /// reconstruction). The newest checkpoint bounds the WAL read to its
  /// suffix, and pages the suffix did not touch install demand-paged, so
  /// recovery reads only the suffix and the pages it touched. Reads serve
  /// at once; tree()->WarmRestoredPages fetches the rest in the background.
  /// The recovered node continues the existing WAL (LSNs resume after the
  /// highest recovered LSN), so RO nodes that were tailing before the crash
  /// keep working unchanged.
  static Result<std::unique_ptr<RwNode>> Recover(cloud::CloudStore* store,
                                                 const RwNodeOptions& options);

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

  /// Writes shed by the WAL-backlog watermark so far.
  uint64_t writes_shed() const { return writes_shed_.Get(); }

  /// WAL appends dropped from the void observer callbacks (OnTreeInit /
  /// OnMutation / OnSplit). Non-zero means RO followers may be missing
  /// records until the next group flush rewrites the tail; monitor it.
  uint64_t wal_append_errors() const { return wal_append_errors_.Get(); }

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

  /// WAL location of the newest checkpoint record. Extents strictly before
  /// it hold only data covered by published images — the upper bound for
  /// safe WAL truncation (fresh readers bootstrap from the manifest).
  cloud::PagePointer last_checkpoint_wal_ptr() const {
    MutexLock lock(&ckpt_ptr_mu_);
    return last_checkpoint_wal_ptr_;
  }

  // --- bwtree::TreeListener ------------------------------------------------
  void OnTreeInit(bwtree::TreeId tree, bwtree::PageId initial_page) override;
  void OnMutation(bwtree::TreeId tree, bwtree::PageId page, bwtree::Lsn lsn,
                  const bwtree::DeltaEntry& entry) override;
  void OnSplit(bwtree::TreeId tree, bwtree::PageId old_page,
               bwtree::PageId new_page, bwtree::Lsn lsn,
               const std::string& separator) override;
  void OnPageFlushed(bwtree::TreeId tree, bwtree::PageId page,
                     bwtree::Lsn flushed_lsn,
                     const cloud::PagePointer& base_ptr,
                     const std::vector<cloud::PagePointer>& delta_ptrs,
                     const std::string& low_key, const std::string& high_key,
                     bool has_high_key) override;

 private:
  /// `bootstrap`: the tree layout is installed afterwards (FromExport).
  RwNode(cloud::CloudStore* store, const RwNodeOptions& options,
         bool bootstrap);

  /// Checkpoints once the dirty-page or mutation threshold is reached.
  Status MaybeCheckpoint();

  // --- CheckpointTarget ----------------------------------------------------
  /// Scope wal<stream>, cursors into the node's WAL.
  Scope CheckpointScope() const override;
  /// Newest LSN handed out; mutations at or below it are in memory and
  /// (once the WAL flushes) durable. The fuzzy-cut capture point.
  bwtree::Lsn CurrentLsn() const override {
    return lsn_source_.load(std::memory_order_acquire);
  }
  bool HasPendingImages() const override { return stager_.HasStaged(); }
  Status BeginCut(CutStart* cut) override;
  Status FlushPage(bwtree::TreeId tree, bwtree::PageId page) override;
  /// Publishes every staged mapping entry (the stager's one ordered pass)
  /// and appends a checkpoint WAL record announcing coverage through
  /// `cut_lsn`; the manifest covers the node's one tree through it. A
  /// deposed leader, whose stream is fenced past its term, drops its staged
  /// images and fails with Fenced instead.
  Status CommitCheckpoint(bwtree::Lsn cut_lsn,
                          CheckpointManifest* manifest) override;

  cloud::CloudStore* const store_;
  RwNodeOptions opts_;
  wal::WalWriter wal_;
  std::atomic<bwtree::Lsn> lsn_source_{0};
  std::unique_ptr<bwtree::BwTree> tree_;

  /// Images of flushed pages awaiting publication by CommitCheckpoint.
  ImageStager stager_;

  mutable Mutex ckpt_ptr_mu_;
  cloud::PagePointer last_checkpoint_wal_ptr_ BG3_GUARDED_BY(ckpt_ptr_mu_);

  /// LSN of the newest committed cut; the mutation trigger reads it without
  /// taking the checkpointer's mutex.
  std::atomic<bwtree::Lsn> last_checkpoint_{0};
  /// WAL position an exported tree was materialized through: the cut
  /// cursor until this incarnation has committed a batch of its own.
  wal::WalCursor export_cursor_;
  RoNode::ReplayStats recovery_;
  /// Leaf count when the open cut began (checkpointer calls only).
  size_t cut_leaves_ = 0;

  LightCounter writes_shed_;
  LightCounter wal_append_errors_;

  /// Last member: destroyed (its thread stopped) before what it drives.
  std::unique_ptr<Checkpointer> checkpointer_;
};

}  // namespace bg3::replication

#endif  // BG3_REPLICATION_RW_NODE_H_
