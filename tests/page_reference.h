#ifndef BG3_TESTS_PAGE_REFERENCE_H_
#define BG3_TESTS_PAGE_REFERENCE_H_

#include <string>
#include <vector>

#include "bwtree/page.h"
#include "common/coding.h"

// Reference encoders of the two page-image formats (the layout comment in
// bwtree/page.h), written entry by entry from owned entries. The tree
// builds its images from EntryRun buffers instead; tests compare the two
// byte for byte.
namespace bg3::bwtree {

inline void EncodeReferenceHeader(std::string* dst, RecordKind kind,
                                  TreeId tree_id, PageId page_id, Lsn lsn) {
  dst->push_back(static_cast<char>(kind));
  PutFixed64(dst, tree_id);
  PutFixed64(dst, page_id);
  PutFixed64(dst, lsn);
}

inline std::string EncodeBasePage(TreeId tree_id, PageId page_id, Lsn lsn,
                                  const std::vector<Entry>& entries) {
  std::string out;
  EncodeReferenceHeader(&out, RecordKind::kBasePage, tree_id, page_id, lsn);
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    PutLengthPrefixedSlice(&out, e.key);
    PutLengthPrefixedSlice(&out, e.value);
  }
  return out;
}

inline std::string EncodeDelta(TreeId tree_id, PageId page_id, Lsn lsn,
                               const std::vector<DeltaEntry>& entries) {
  std::string out;
  EncodeReferenceHeader(&out, RecordKind::kDelta, tree_id, page_id, lsn);
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const DeltaEntry& e : entries) {
    out.push_back(static_cast<char>(e.op));
    PutLengthPrefixedSlice(&out, e.key);
    PutLengthPrefixedSlice(&out, e.value);
  }
  return out;
}

}  // namespace bg3::bwtree

#endif  // BG3_TESTS_PAGE_REFERENCE_H_
