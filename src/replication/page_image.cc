#include "replication/page_image.h"

#include <algorithm>

#include "cloud/cloud_store.h"

namespace bg3::replication {

void ImageStager::OnPageFlushed(
    bwtree::TreeId tree, bwtree::PageId page, bwtree::Lsn flushed_lsn,
    const cloud::PagePointer& base_ptr,
    const std::vector<cloud::PagePointer>& delta_ptrs,
    const std::string& low_key, const std::string& high_key,
    bool has_high_key) {
  StagedImage staged;
  staged.tree = tree;
  staged.page = page;
  staged.meta.flushed_lsn = flushed_lsn;
  staged.meta.base_ptr = base_ptr;
  staged.meta.delta_ptrs = delta_ptrs;
  staged.meta.low_key = low_key;
  staged.meta.high_key = high_key;
  staged.meta.has_high_key = has_high_key;
  MutexLock lock(&mu_);
  staged_.push_back(std::move(staged));
}

bool ImageStager::HasStaged() const {
  MutexLock lock(&mu_);
  return !staged_.empty();
}

void ImageStager::Discard() {
  MutexLock lock(&mu_);
  staged_.clear();
}

void ImageStager::Publish(cloud::CloudStore* store) {
  std::vector<StagedImage> staged;
  {
    MutexLock lock(&mu_);
    staged.swap(staged_);
  }
  // Children before parents: descending page id (ids are allocated
  // monotonically, so a split child always outranks its parent). Within a
  // page, newest staged first, so the dedupe below keeps the newest image:
  // a page stages its flushes in latch order, and a GC relocation restages
  // an image under the same flushed LSN.
  std::reverse(staged.begin(), staged.end());
  std::stable_sort(staged.begin(), staged.end(),
                   [](const StagedImage& a, const StagedImage& b) {
                     if (a.page != b.page) return a.page > b.page;
                     return a.tree < b.tree;
                   });
  staged.erase(std::unique(staged.begin(), staged.end(),
                           [](const StagedImage& a, const StagedImage& b) {
                             return a.page == b.page && a.tree == b.tree;
                           }),
               staged.end());
  for (const StagedImage& s : staged) {
    store->ManifestPut(PageImageKey(s.tree, s.page), s.meta.Encode());
  }
}

}  // namespace bg3::replication
