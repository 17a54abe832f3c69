#include "bwtree/page.h"

#include <algorithm>
#include <map>

#include "common/coding.h"

namespace bg3::bwtree {

namespace {

void EncodeHeader(std::string* dst, RecordKind kind, TreeId tree_id,
                  PageId page_id, Lsn lsn) {
  dst->push_back(static_cast<char>(kind));
  PutFixed64(dst, tree_id);
  PutFixed64(dst, page_id);
  PutFixed64(dst, lsn);
}

}  // namespace

std::string EncodeBasePage(TreeId tree_id, PageId page_id, Lsn lsn,
                           const std::vector<Entry>& entries) {
  std::string out;
  EncodeHeader(&out, RecordKind::kBasePage, tree_id, page_id, lsn);
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    PutLengthPrefixedSlice(&out, e.key);
    PutLengthPrefixedSlice(&out, e.value);
  }
  return out;
}

std::string EncodeDelta(TreeId tree_id, PageId page_id, Lsn lsn,
                        const std::vector<DeltaEntry>& entries) {
  std::string out;
  EncodeHeader(&out, RecordKind::kDelta, tree_id, page_id, lsn);
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const DeltaEntry& e : entries) {
    out.push_back(static_cast<char>(e.op));
    PutLengthPrefixedSlice(&out, e.key);
    PutLengthPrefixedSlice(&out, e.value);
  }
  return out;
}

Status DecodeRecordHeader(Slice* input, RecordHeader* out) {
  if (input->size() < 1 + 3 * 8) return Status::Corruption("short header");
  const char kind = (*input)[0];
  if (kind != static_cast<char>(RecordKind::kBasePage) &&
      kind != static_cast<char>(RecordKind::kDelta)) {
    return Status::Corruption("bad record kind");
  }
  out->kind = static_cast<RecordKind>(kind);
  input->remove_prefix(1);
  GetFixed64(input, &out->tree_id);
  GetFixed64(input, &out->page_id);
  GetFixed64(input, &out->lsn);
  return Status::OK();
}

Status ParseBasePagePayload(Slice input, std::vector<EntryView>* out) {
  uint32_t count;
  if (!GetVarint32(&input, &count)) return Status::Corruption("base count");
  out->clear();
  // Each entry takes at least two length bytes, so an overstated count
  // cannot make this reserve more than the payload could hold.
  out->reserve(std::min<size_t>(count, input.size() / 2));
  for (uint32_t i = 0; i < count; ++i) {
    Slice k, v;
    if (!GetLengthPrefixedSlice(&input, &k) ||
        !GetLengthPrefixedSlice(&input, &v)) {
      return Status::Corruption("base entry");
    }
    out->push_back(EntryView{k, v});
  }
  return Status::OK();
}

Status ParseDeltaPayload(Slice input, std::vector<DeltaEntryView>* out) {
  uint32_t count;
  if (!GetVarint32(&input, &count)) return Status::Corruption("delta count");
  out->clear();
  // An op byte plus two length bytes per entry (see ParseBasePagePayload).
  out->reserve(std::min<size_t>(count, input.size() / 3));
  for (uint32_t i = 0; i < count; ++i) {
    if (input.empty()) return Status::Corruption("delta op");
    const auto op = static_cast<DeltaOp>(input[0]);
    if (op != DeltaOp::kUpsert && op != DeltaOp::kDelete) {
      return Status::Corruption("bad delta op");
    }
    input.remove_prefix(1);
    Slice k, v;
    if (!GetLengthPrefixedSlice(&input, &k) ||
        !GetLengthPrefixedSlice(&input, &v)) {
      return Status::Corruption("delta entry");
    }
    out->push_back(DeltaEntryView{op, k, v});
  }
  return Status::OK();
}

Status DecodeBasePagePayload(Slice input, std::vector<Entry>* out) {
  std::vector<EntryView> views;
  BG3_RETURN_IF_ERROR(ParseBasePagePayload(input, &views));
  out->clear();
  out->reserve(views.size());
  for (const EntryView& e : views) {
    out->push_back(Entry{e.key.ToString(), e.value.ToString()});
  }
  return Status::OK();
}

Status DecodeDeltaPayload(Slice input, std::vector<DeltaEntry>* out) {
  std::vector<DeltaEntryView> views;
  BG3_RETURN_IF_ERROR(ParseDeltaPayload(input, &views));
  out->clear();
  out->reserve(views.size());
  for (const DeltaEntryView& e : views) {
    out->push_back(DeltaEntry{e.op, e.key.ToString(), e.value.ToString()});
  }
  return Status::OK();
}

std::vector<Entry> ApplyDeltaChain(
    std::vector<Entry> base,
    const std::vector<const std::vector<DeltaEntry>*>& chains_oldest_first) {
  // Collapse all chains into the final outcome per key (later chains and
  // later entries within one chain win), then merge into the sorted base.
  std::map<std::string, const DeltaEntry*> latest;
  for (const auto* chain : chains_oldest_first) {
    for (const DeltaEntry& e : *chain) latest[e.key] = &e;
  }
  if (latest.empty()) return base;

  std::vector<Entry> out;
  out.reserve(base.size() + latest.size());
  auto it = latest.begin();
  for (Entry& b : base) {
    while (it != latest.end() && it->first < b.key) {
      if (it->second->op == DeltaOp::kUpsert) {
        out.push_back(Entry{it->first, it->second->value});
      }
      ++it;
    }
    if (it != latest.end() && it->first == b.key) {
      if (it->second->op == DeltaOp::kUpsert) {
        out.push_back(Entry{it->first, it->second->value});
      }  // else deleted: skip the base entry.
      ++it;
    } else {
      out.push_back(std::move(b));
    }
  }
  for (; it != latest.end(); ++it) {
    if (it->second->op == DeltaOp::kUpsert) {
      out.push_back(Entry{it->first, it->second->value});
    }
  }
  return out;
}

bool LookupInDelta(const std::vector<DeltaEntry>& delta, const Slice& key,
                   std::string* value, bool* deleted) {
  // Newest entry wins: scan back-to-front.
  for (auto it = delta.rbegin(); it != delta.rend(); ++it) {
    if (Slice(it->key) == key) {
      if (it->op == DeltaOp::kDelete) {
        *deleted = true;
      } else {
        *deleted = false;
        *value = it->value;
      }
      return true;
    }
  }
  return false;
}

bool LookupInBase(const std::vector<Entry>& base, const Slice& key,
                  std::string* value) {
  auto it = std::lower_bound(
      base.begin(), base.end(), key,
      [](const Entry& e, const Slice& k) { return Slice(e.key).compare(k) < 0; });
  if (it == base.end() || Slice(it->key) != key) return false;
  *value = it->value;
  return true;
}

std::vector<DeltaEntry> MergeDeltas(const std::vector<DeltaEntry>& older,
                                    const std::vector<DeltaEntry>& newer) {
  std::map<std::string, const DeltaEntry*> latest;
  for (const DeltaEntry& e : older) latest[e.key] = &e;
  for (const DeltaEntry& e : newer) latest[e.key] = &e;
  std::vector<DeltaEntry> out;
  out.reserve(latest.size());
  for (const auto& [key, e] : latest) out.push_back(*e);
  return out;
}

size_t EntryBytes(const std::vector<Entry>& entries) {
  size_t n = entries.size() * sizeof(Entry);
  for (const Entry& e : entries) n += e.key.capacity() + e.value.capacity();
  return n;
}

size_t DeltaBytes(const std::vector<DeltaEntry>& entries) {
  size_t n = entries.size() * sizeof(DeltaEntry);
  for (const DeltaEntry& e : entries) {
    n += e.key.capacity() + e.value.capacity();
  }
  return n;
}

}  // namespace bg3::bwtree
