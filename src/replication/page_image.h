#ifndef BG3_REPLICATION_PAGE_IMAGE_H_
#define BG3_REPLICATION_PAGE_IMAGE_H_

#include <string>
#include <vector>

#include "bwtree/bwtree.h"
#include "bwtree/page.h"
#include "cloud/types.h"
#include "common/coding.h"
#include "common/thread_annotations.h"

namespace bg3::cloud {
class CloudStore;
}  // namespace bg3::cloud

namespace bg3::replication {

/// Value stored in the shared mapping-table area (cloud manifest) per page:
/// where the page's current storage images live and which LSN they cover.
/// The RW node publishes these at step (8) of Fig. 7; RO nodes consult them
/// ("looks up the old mapping in shared storage", step (5)).
struct PageImageMeta {
  bwtree::Lsn flushed_lsn = 0;
  cloud::PagePointer base_ptr;
  std::vector<cloud::PagePointer> delta_ptrs;  ///< oldest-first.
  /// Key range [low_key, high_key) of the page at flush time; lets readers
  /// bootstrap routing from the mapping table alone (WAL truncation).
  std::string low_key;
  std::string high_key;
  bool has_high_key = false;

  std::string Encode() const {
    std::string out;
    PutFixed64(&out, flushed_lsn);
    base_ptr.EncodeTo(&out);
    PutVarint32(&out, static_cast<uint32_t>(delta_ptrs.size()));
    for (const auto& p : delta_ptrs) p.EncodeTo(&out);
    PutLengthPrefixedSlice(&out, low_key);
    PutLengthPrefixedSlice(&out, high_key);
    out.push_back(has_high_key ? 1 : 0);
    return out;
  }

  static Status Decode(Slice input, PageImageMeta* out) {
    uint32_t count;
    if (!GetFixed64(&input, &out->flushed_lsn) ||
        !cloud::PagePointer::DecodeFrom(&input, &out->base_ptr) ||
        !GetVarint32(&input, &count)) {
      return Status::Corruption("page image meta");
    }
    out->delta_ptrs.clear();
    out->delta_ptrs.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      cloud::PagePointer p;
      if (!cloud::PagePointer::DecodeFrom(&input, &p)) {
        return Status::Corruption("page image delta ptr");
      }
      out->delta_ptrs.push_back(p);
    }
    Slice low, high;
    if (!GetLengthPrefixedSlice(&input, &low) ||
        !GetLengthPrefixedSlice(&input, &high) || input.empty()) {
      return Status::Corruption("page image key range");
    }
    out->low_key = low.ToString();
    out->high_key = high.ToString();
    out->has_high_key = input[0] != 0;
    return Status::OK();
  }
};

/// The demand-paged install of a published image (DESIGN.md §5.7): the
/// page's range and base pointer only, clean at the image's LSN, so the
/// first access fetches the base. An image that flushed empty has no base
/// to fetch and installs resident. Requires an image without deltas.
inline bwtree::RecoveredPage RecoveredPageFromImage(bwtree::PageId id,
                                                    const PageImageMeta& image) {
  bwtree::RecoveredPage rp;
  rp.id = id;
  rp.low_key = image.low_key;
  rp.high_key = image.high_key;
  rp.has_high_key = image.has_high_key;
  rp.last_lsn = image.flushed_lsn;
  rp.base_ptr = image.base_ptr;
  rp.clean = true;
  rp.resident = image.base_ptr.IsNull();
  return rp;
}

/// Manifest key of a page's image meta.
inline std::string PageImageKey(bwtree::TreeId tree, bwtree::PageId page) {
  return "pt/" + std::to_string(tree) + "/" + std::to_string(page);
}

/// Parses a PageImageKey back into (tree, page); false if malformed.
inline bool ParsePageImageKey(const std::string& key, bwtree::TreeId* tree,
                              bwtree::PageId* page) {
  if (key.rfind("pt/", 0) != 0) return false;
  const size_t slash = key.find('/', 3);
  if (slash == std::string::npos) return false;
  char* end = nullptr;
  *tree = strtoull(key.c_str() + 3, &end, 10);
  if (end != key.c_str() + slash) return false;
  *page = strtoull(key.c_str() + slash + 1, &end, 10);
  return *end == '\0';
}

/// The one staged-image publish path (DESIGN.md §5.7). Fed by the RW
/// node's TreeListener::OnPageFlushed, it stages the image every page flush
/// reports; Publish then makes them visible in the shared mapping table in
/// a single ordered pass. Flushes report under the leaf latch, so staging
/// is a short push under `mu_`; the cloud puts happen in Publish.
class ImageStager {
 public:
  void OnPageFlushed(bwtree::TreeId tree, bwtree::PageId page,
                     bwtree::Lsn flushed_lsn,
                     const cloud::PagePointer& base_ptr,
                     const std::vector<cloud::PagePointer>& delta_ptrs,
                     const std::string& low_key, const std::string& high_key,
                     bool has_high_key);

  /// True while flushed-page images await publication.
  bool HasStaged() const;

  /// Publishes every staged image, children before parents, one (the
  /// newest) image per page — a crash between puts can then only leave an
  /// overlap for restore's tiling check, never a hole behind a published
  /// parent.
  void Publish(cloud::CloudStore* store);

  /// Drops every staged image unpublished (a deposed writer's flushes).
  void Discard();

 private:
  struct StagedImage {
    bwtree::TreeId tree = 0;
    bwtree::PageId page = bwtree::kInvalidPage;
    PageImageMeta meta;
  };

  mutable Mutex mu_;
  std::vector<StagedImage> staged_ BG3_GUARDED_BY(mu_);
};

}  // namespace bg3::replication

#endif  // BG3_REPLICATION_PAGE_IMAGE_H_
