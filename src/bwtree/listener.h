#ifndef BG3_BWTREE_LISTENER_H_
#define BG3_BWTREE_LISTENER_H_

#include <string>
#include <vector>

#include "bwtree/page.h"
#include "cloud/types.h"
#include "common/status.h"

namespace bg3::bwtree {

/// Observer of tree mutations, implemented by the replication layer to build
/// the write-ahead log of §3.4. Mutation and split callbacks fire under the
/// leaf latch, so per-page callbacks arrive in LSN order.
class TreeListener {
 public:
  virtual ~TreeListener() = default;

  /// A new tree came up with its initial (empty) leaf page.
  virtual void OnTreeInit(TreeId tree, PageId initial_page) {}

  /// One logical upsert/delete applied to `page` at `lsn`. `entry` views
  /// the caller's key and value, valid only for the call. A non-OK
  /// status means the record's fate is unknown (it may still land): the
  /// tree keeps the entry in memory and fails the write, so the caller
  /// never treats it as acknowledged.
  virtual Status OnMutation(TreeId tree, PageId page, Lsn lsn,
                            const EntryView& entry) {
    return Status::OK();
  }

  /// `old_page` split: keys >= `separator` moved to `new_page`. A non-OK
  /// status fails the write that caused the split, as with OnMutation.
  virtual Status OnSplit(TreeId tree, PageId old_page, PageId new_page,
                         Lsn lsn, const std::string& separator) {
    return Status::OK();
  }

  /// The storage image of `page` now reflects all mutations up to
  /// `flushed_lsn`: base at `base_ptr` plus deltas `delta_ptrs`
  /// (oldest-first), covering keys [low_key, high_key) (empty high = +inf
  /// when !has_high_key). The replication layer publishes this to the
  /// shared mapping table (step (8) of Fig. 7); the key range lets readers
  /// bootstrap the route table from the mapping alone, which is what makes
  /// WAL truncation safe.
  virtual void OnPageFlushed(TreeId tree, PageId page, Lsn flushed_lsn,
                             const cloud::PagePointer& base_ptr,
                             const std::vector<cloud::PagePointer>& delta_ptrs,
                             const std::string& low_key,
                             const std::string& high_key, bool has_high_key) {}
};

}  // namespace bg3::bwtree

#endif  // BG3_BWTREE_LISTENER_H_
