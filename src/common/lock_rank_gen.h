// GENERATED FILE — do not edit by hand.
//
// Produced by bg3-lint's lock-rank pass:
//   python3 scripts/bg3_lint/run.py --emit-lock-ranks src/common/lock_rank_gen.h
//
// One constant per ranked mutex site (Class::member), topologically
// ordered by the statically extracted acquisition graph: if any code
// path acquires B while holding A, then rank(A) < rank(B). The CI
// lint job regenerates this header and fails on a diff. Consumed by
// common/lock_rank.h (runtime checker) via the SetRank calls in each
// owning class's constructor.
//
// Acquisition edges (holder -> acquired  [witness]):
//   CloudStore::topology_mu_ -> Stream::mu_  [src/cloud/cloud_store.cc:bg3::cloud::CloudStore::TotalBytes -> total_bytes()]
//   LeafPage::latch -> CloudStore::topology_mu_  [src/bwtree/bwtree.cc:bg3::bwtree::BwTree::ApplyLocked -> ConsolidateLocked()]
//   LeafPage::latch -> PageIndex::mu_  [src/bwtree/bwtree.cc:bg3::bwtree::BwTree::MaybeSplitLocked -> InsertPage()]
//   LeafPage::latch -> Stream::mu_  [src/bwtree/bwtree.cc:bg3::bwtree::BwTree::ApplyLocked -> ConsolidateLocked()]
//   OwnerLock::mu -> CloudStore::topology_mu_  [src/forest/forest.cc:bg3::forest::BwTreeForest::Upsert -> Upsert()]
//   OwnerLock::mu -> LeafPage::latch  [src/forest/forest.cc:bg3::forest::BwTreeForest::Upsert -> Upsert()]
//   OwnerLock::mu -> PageIndex::mu_  [src/forest/forest.cc:bg3::forest::BwTreeForest::Upsert -> Upsert()]
//   OwnerLock::mu -> Stream::mu_  [src/forest/forest.cc:bg3::forest::BwTreeForest::Upsert -> Upsert()]
//   RoNode::mu_ -> CloudStore::manifest_mu_  [src/replication/ro_node.cc:bg3::replication::RoNode::PollWal -> PollWalLocked()]
//   RoNode::mu_ -> CloudStore::topology_mu_  [src/replication/ro_node.cc:bg3::replication::RoNode::PollWal -> PollWalLocked()]
//   RoNode::mu_ -> Stream::mu_  [src/replication/ro_node.cc:bg3::replication::RoNode::ExportTree -> TotalBytes()]

#ifndef BG3_COMMON_LOCK_RANK_GEN_H_
#define BG3_COMMON_LOCK_RANK_GEN_H_

namespace bg3::lock_rank {

inline constexpr int kOwnerLock_mu = 1;  // OwnerLock::mu
inline constexpr int kPageIndex_mu = 2;  // PageIndex::mu_
inline constexpr int kRoNode_mu = 3;  // RoNode::mu_
inline constexpr int kCloudStore_manifest_mu = 4;  // CloudStore::manifest_mu_
inline constexpr int kCloudStore_topology_mu = 5;  // CloudStore::topology_mu_
inline constexpr int kStream_mu = 6;  // Stream::mu_

// Unranked (dynamic order; stay kUnranked):
//   LeafPage::latch: per-leaf latch; ordered dynamically by latch coupling

}  // namespace bg3::lock_rank

#endif  // BG3_COMMON_LOCK_RANK_GEN_H_
