#include "wal/record.h"

#include "common/coding.h"
#include "common/crc32.h"

namespace bg3::wal {

void WalRecord::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, tree_id);
  PutVarint64(dst, page_id);
  PutVarint64(dst, aux_page_id);
  PutVarint64(dst, lsn);
  PutVarint64(dst, sim_publish_latency_us);
  dst->push_back(static_cast<char>(entry.op));
  PutLengthPrefixedSlice(dst, entry.key);
  PutLengthPrefixedSlice(dst, entry.value);
  PutLengthPrefixedSlice(dst, separator);
}

size_t WalRecord::EncodedSize() const {
  return 1 + VarintLength(tree_id) + VarintLength(page_id) +
         VarintLength(aux_page_id) + VarintLength(lsn) +
         VarintLength(sim_publish_latency_us) + 1 +
         VarintLength(entry.key.size()) + entry.key.size() +
         VarintLength(entry.value.size()) + entry.value.size() +
         VarintLength(separator.size()) + separator.size();
}

Status WalRecord::DecodeFrom(Slice* input, WalRecord* out) {
  if (input->empty()) return Status::Corruption("empty wal record");
  const uint8_t type = static_cast<uint8_t>((*input)[0]);
  if (type < 1 || type > 4) return Status::Corruption("bad wal type");
  out->type = static_cast<Type>(type);
  input->remove_prefix(1);
  uint64_t tree_id, page_id, aux, lsn, sim_latency;
  if (!GetVarint64(input, &tree_id) || !GetVarint64(input, &page_id) ||
      !GetVarint64(input, &aux) || !GetVarint64(input, &lsn) ||
      !GetVarint64(input, &sim_latency)) {
    return Status::Corruption("wal header");
  }
  out->tree_id = tree_id;
  out->page_id = page_id;
  out->aux_page_id = aux;
  out->lsn = lsn;
  out->sim_publish_latency_us = sim_latency;
  if (input->empty()) return Status::Corruption("wal op");
  out->entry.op = static_cast<bwtree::DeltaOp>((*input)[0]);
  input->remove_prefix(1);
  Slice key, value, separator;
  if (!GetLengthPrefixedSlice(input, &key) ||
      !GetLengthPrefixedSlice(input, &value) ||
      !GetLengthPrefixedSlice(input, &separator)) {
    return Status::Corruption("wal payload");
  }
  out->entry.key = key.ToString();
  out->entry.value = value.ToString();
  out->separator = separator.ToString();
  return Status::OK();
}

namespace {

void AppendBatchBody(std::string* out, const std::vector<WalRecord>& records) {
  PutVarint32(out, static_cast<uint32_t>(records.size()));
  std::string scratch;
  for (const WalRecord& r : records) {
    scratch.clear();
    r.EncodeTo(&scratch);
    PutLengthPrefixedSlice(out, scratch);
  }
}

Status DecodeBatchBody(Slice input, std::vector<WalRecord>* out) {
  uint32_t count;
  if (!GetVarint32(&input, &count)) return Status::Corruption("batch count");
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    Slice rec;
    if (!GetLengthPrefixedSlice(&input, &rec)) {
      return Status::Corruption("batch record");
    }
    WalRecord r;
    BG3_RETURN_IF_ERROR(WalRecord::DecodeFrom(&rec, &r));
    out->push_back(std::move(r));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFramedBatch(uint64_t term, uint64_t seq,
                              const std::vector<WalRecord>& records) {
  std::string out;
  out.push_back(0);  // frame marker
  PutVarint64(&out, term);
  PutVarint64(&out, seq);
  const size_t crc_at = out.size();
  PutFixed32(&out, 0);  // patched below once the body is known.
  const size_t body_at = out.size();
  AppendBatchBody(&out, records);
  const uint32_t crc = Crc32c(out.data() + body_at, out.size() - body_at);
  std::string crc_bytes;
  PutFixed32(&crc_bytes, crc);
  out.replace(crc_at, 4, crc_bytes);
  return out;
}

Status DecodeFramedBatch(Slice input, BatchHeader* header,
                         std::vector<WalRecord>* out) {
  *header = BatchHeader{};
  if (input.empty()) return Status::Corruption("empty batch");
  if (input[0] != 0) return Status::Corruption("unframed batch");
  input.remove_prefix(1);
  uint32_t crc = 0;
  if (!GetVarint64(&input, &header->term) ||
      !GetVarint64(&input, &header->seq) || !GetFixed32(&input, &crc)) {
    return Status::Corruption("batch frame header");
  }
  if (header->term == 0 || header->seq == 0) {
    return Status::Corruption("batch frame ids");
  }
  if (Crc32c(input.data(), input.size()) != crc) {
    return Status::Corruption("batch frame crc mismatch");
  }
  return DecodeBatchBody(input, out);
}

}  // namespace bg3::wal
