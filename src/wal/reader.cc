#include "wal/reader.h"

namespace bg3::wal {

void WalReader::Deliver(std::vector<WalRecord>&& batch,
                        std::vector<WalRecord>* out) {
  if (lsn_floor_ > 0) {
    // Seeked replay: mutations at or below the checkpoint LSN are covered
    // by published page images; dropping them keeps pending logs from
    // accumulating records that per-page LSN gating would skip anyway.
    const size_t before = batch.size();
    std::erase_if(batch, [&](const WalRecord& r) {
      return r.type == WalRecord::Type::kMutation && r.lsn <= lsn_floor_;
    });
    records_filtered_ += before - batch.size();
  }
  out->insert(out->end(), std::make_move_iterator(batch.begin()),
              std::make_move_iterator(batch.end()));
}

Result<std::vector<WalRecord>> WalReader::Poll(size_t max_batches) {
  std::vector<WalRecord> out;
  auto batches = store_->TailRecords(stream_, raw_cursor_, max_batches);
  BG3_RETURN_IF_ERROR(batches.status());
  for (auto& [ptr, data] : batches.value()) {
    // Decode into a scratch vector and commit (records + cursor) per batch:
    // if a batch fails to decode, everything already committed this poll is
    // still delivered and the physical cursor stops just before the bad
    // batch.
    std::vector<WalRecord> decoded;
    BatchHeader header;
    const Status s = DecodeFramedBatch(Slice(data), &header, &decoded);
    if (!s.ok()) {
      // Deliver the committed prefix; the next Poll re-reads the bad batch
      // first and surfaces the error with nothing buffered behind it.
      if (!out.empty()) break;
      return s;
    }
    if (expected_term_ == 0 || header.term > expected_term_) {
      // First batch, or a new writer incarnation. Holds from the dead term
      // are abandoned — their writer never saw them acknowledged, so
      // nothing downstream depends on them. A term always starts at seq 1,
      // except that a never-positioned reader of a truncated stream lands
      // mid-term and anchors on the first batch it sees.
      held_.clear();
      expected_term_ = header.term;
      delivered_seq_ = anchor_on_first_ ? header.seq - 1 : 0;
      anchor_on_first_ = false;
    }
    if (header.term < expected_term_ || header.seq <= delivered_seq_) {
      // A late-landing duplicate of an already delivered (or already
      // checkpoint-covered) append.
      ++batches_deduped_;
    } else if (header.seq == delivered_seq_ + 1) {
      Deliver(std::move(decoded), &out);
      delivered_seq_ = header.seq;
      // A filled gap releases everything contiguous behind it.
      while (!held_.empty() && held_.begin()->first == delivered_seq_ + 1) {
        Deliver(std::move(held_.begin()->second), &out);
        held_.erase(held_.begin());
        ++delivered_seq_;
      }
    } else {
      // Ahead of a gap: an earlier batch is still in flight (or will never
      // land). Hold until the gap fills; the safe cursor stays put
      // meanwhile so a restart re-reads (and dedupes) the held range.
      held_.emplace(header.seq, std::move(decoded));
    }
    raw_cursor_ = ptr;
    ++batches_consumed_;
    bytes_consumed_ += data.size();
    if (held_.empty()) cursor_ = ptr;
  }
  return out;
}

}  // namespace bg3::wal
