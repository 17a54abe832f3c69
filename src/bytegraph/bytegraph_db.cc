#include "bytegraph/bytegraph_db.h"

#include "common/timed_scope.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"

namespace bg3::bytegraph {

namespace {

void AppendBigEndian64(std::string* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendBigEndian32(std::string* dst, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

}  // namespace

ByteGraphDB::ByteGraphDB(cloud::CloudStore* store,
                         const ByteGraphOptions& options)
    : opts_(options) {
  lsm_ = std::make_unique<lsm::ShardedLsm>(store, options.lsm,
                                           options.lsm_shards);
  stripes_.reserve(opts_.lock_stripes);
  for (size_t i = 0; i < opts_.lock_stripes; ++i) {
    stripes_.push_back(std::make_unique<std::mutex>());
  }
}

std::string ByteGraphDB::MetaKey(graph::VertexId src, graph::EdgeType type) {
  std::string key = "m";
  AppendBigEndian64(&key, src);
  AppendBigEndian32(&key, type);
  return key;
}

std::string ByteGraphDB::NodeKey(graph::VertexId src, graph::EdgeType type,
                                 uint32_t seq) {
  std::string key = "n";
  AppendBigEndian64(&key, src);
  AppendBigEndian32(&key, type);
  AppendBigEndian32(&key, seq);
  return key;
}

std::string ByteGraphDB::VertexKey(graph::VertexId id) {
  std::string key = "v";
  AppendBigEndian64(&key, id);
  return key;
}

std::string ByteGraphDB::EncodeMeta(const Meta& meta) {
  std::string out;
  PutVarint32(&out, meta.next_seq);
  PutVarint32(&out, static_cast<uint32_t>(meta.entries.size()));
  for (const MetaEntry& e : meta.entries) {
    PutFixed64(&out, e.first_dst);
    PutFixed32(&out, e.node_seq);
  }
  return out;
}

Status ByteGraphDB::DecodeMeta(const Slice& data, Meta* out) {
  Slice in = data;
  uint32_t count;
  if (!GetVarint32(&in, &out->next_seq) || !GetVarint32(&in, &count)) {
    return Status::Corruption("edge-tree meta");
  }
  out->entries.clear();
  out->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MetaEntry e;
    if (!GetFixed64(&in, &e.first_dst) || !GetFixed32(&in, &e.node_seq)) {
      return Status::Corruption("edge-tree meta entry");
    }
    out->entries.push_back(e);
  }
  return Status::OK();
}

std::string ByteGraphDB::EncodeNode(const std::vector<EdgeRec>& edges) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(edges.size()));
  for (const EdgeRec& e : edges) {
    PutFixed64(&out, e.dst);
    PutFixed64(&out, e.created_us);
    PutLengthPrefixedSlice(&out, e.properties);
  }
  return out;
}

Status ByteGraphDB::DecodeNode(const Slice& data, std::vector<EdgeRec>* out) {
  Slice in = data;
  uint32_t count;
  if (!GetVarint32(&in, &count)) return Status::Corruption("edge node");
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    EdgeRec e;
    Slice props;
    if (!GetFixed64(&in, &e.dst) || !GetFixed64(&in, &e.created_us) ||
        !GetLengthPrefixedSlice(&in, &props)) {
      return Status::Corruption("edge node entry");
    }
    e.properties = props.ToString();
    out->push_back(std::move(e));
  }
  return Status::OK();
}

std::mutex& ByteGraphDB::StripeFor(graph::VertexId src, graph::EdgeType type) {
  const uint64_t h = Mix64(src ^ (static_cast<uint64_t>(type) << 40));
  return *stripes_[h % stripes_.size()];
}

Result<std::string> ByteGraphDB::CachedGet(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      stats_.cache_hits.Inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.value;
    }
  }
  stats_.cache_misses.Inc();
  auto value = lsm_->Get(key);
  BG3_RETURN_IF_ERROR(value.status());
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    lru_.push_front(key);
    cache_[key] = CacheEntry{value.value(), lru_.begin()};
    cache_used_ += key.size() + value.value().size();
    while (cache_used_ > opts_.cache_bytes && !lru_.empty()) {
      const std::string& victim = lru_.back();
      auto vit = cache_.find(victim);
      if (vit != cache_.end()) {
        cache_used_ -= victim.size() + vit->second.value.size();
        cache_.erase(vit);
      }
      lru_.pop_back();
    }
  }
  return value;
}

Status ByteGraphDB::CachedPut(const std::string& key,
                              const std::string& value) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      cache_used_ -= it->second.value.size();
      cache_used_ += value.size();
      it->second.value = value;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    }
  }
  return lsm_->Put(key, value);
}

void ByteGraphDB::CacheErase(const std::string& key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return;
  cache_used_ -= key.size() + it->second.value.size();
  lru_.erase(it->second.lru_it);
  cache_.erase(it);
}

Status ByteGraphDB::AddVertex(graph::VertexId id, const Slice& properties,
                              const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bytegraph.add_vertex", OpLayer::kApi, ctx);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  return CachedPut(VertexKey(id), properties.ToString());
}

Result<std::string> ByteGraphDB::GetVertex(graph::VertexId id,
                                           const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bytegraph.get_vertex", OpLayer::kApi, ctx);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  return CachedGet(VertexKey(id));
}

Status ByteGraphDB::DeleteVertex(graph::VertexId id, graph::EdgeType type,
                                 const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bytegraph.delete_vertex", OpLayer::kApi, ctx);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  std::lock_guard<std::mutex> lock(StripeFor(id, type));
  CacheErase(VertexKey(id));
  BG3_RETURN_IF_ERROR(lsm_->Delete(VertexKey(id)));
  auto meta_data = CachedGet(MetaKey(id, type));
  if (meta_data.status().IsNotFound()) return Status::OK();
  BG3_RETURN_IF_ERROR(meta_data.status());
  Meta meta;
  BG3_RETURN_IF_ERROR(DecodeMeta(Slice(meta_data.value()), &meta));
  for (const MetaEntry& entry : meta.entries) {
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "bytegraph delete vertex"));
    const std::string node_key = NodeKey(id, type, entry.node_seq);
    CacheErase(node_key);
    BG3_RETURN_IF_ERROR(lsm_->Delete(node_key));
  }
  CacheErase(MetaKey(id, type));
  return lsm_->Delete(MetaKey(id, type));
}

Status ByteGraphDB::AddEdge(graph::VertexId src, graph::EdgeType type,
                            graph::VertexId dst, const Slice& properties,
                            graph::TimestampUs created_us,
                            const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bytegraph.add_edge", OpLayer::kApi, ctx);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  std::lock_guard<std::mutex> lock(StripeFor(src, type));
  Meta meta;
  auto meta_data = CachedGet(MetaKey(src, type));
  if (meta_data.ok()) {
    BG3_RETURN_IF_ERROR(DecodeMeta(Slice(meta_data.value()), &meta));
  } else if (!meta_data.status().IsNotFound()) {
    return meta_data.status();
  }

  EdgeRec rec{dst, created_us, properties.ToString()};
  if (meta.entries.empty()) {
    // First edge of this adjacency list: create node 0 and the meta node.
    meta.entries.push_back(MetaEntry{dst, meta.next_seq});
    const uint32_t seq = meta.next_seq++;
    BG3_RETURN_IF_ERROR(CachedPut(NodeKey(src, type, seq), EncodeNode({rec})));
    return CachedPut(MetaKey(src, type), EncodeMeta(meta));
  }

  // Route to the last node whose first_dst <= dst.
  auto mit = std::upper_bound(meta.entries.begin(), meta.entries.end(), dst,
                              [](graph::VertexId d, const MetaEntry& e) {
                                return d < e.first_dst;
                              });
  if (mit != meta.entries.begin()) --mit;
  const size_t node_idx = mit - meta.entries.begin();

  std::vector<EdgeRec> edges;
  const std::string node_key = NodeKey(src, type, mit->node_seq);
  auto node_data = CachedGet(node_key);
  BG3_RETURN_IF_ERROR(node_data.status());
  BG3_RETURN_IF_ERROR(DecodeNode(Slice(node_data.value()), &edges));

  auto eit = std::lower_bound(
      edges.begin(), edges.end(), dst,
      [](const EdgeRec& e, graph::VertexId d) { return e.dst < d; });
  if (eit != edges.end() && eit->dst == dst) {
    *eit = std::move(rec);  // overwrite existing edge
  } else {
    edges.insert(eit, std::move(rec));
  }

  bool meta_dirty = false;
  if (edges.front().dst < meta.entries[node_idx].first_dst) {
    meta.entries[node_idx].first_dst = edges.front().dst;
    meta_dirty = true;
  }
  if (edges.size() > opts_.max_node_edges) {
    // Split the edge node in half; the upper half gets a fresh node.
    stats_.node_splits.Inc();
    const size_t mid = edges.size() / 2;
    std::vector<EdgeRec> upper(std::make_move_iterator(edges.begin() + mid),
                               std::make_move_iterator(edges.end()));
    edges.resize(mid);
    const uint32_t new_seq = meta.next_seq++;
    meta.entries.insert(meta.entries.begin() + node_idx + 1,
                        MetaEntry{upper.front().dst, new_seq});
    meta_dirty = true;
    BG3_RETURN_IF_ERROR(
        CachedPut(NodeKey(src, type, new_seq), EncodeNode(upper)));
  }
  BG3_RETURN_IF_ERROR(CachedPut(node_key, EncodeNode(edges)));
  if (meta_dirty) {
    BG3_RETURN_IF_ERROR(CachedPut(MetaKey(src, type), EncodeMeta(meta)));
  }
  return Status::OK();
}

Status ByteGraphDB::DeleteEdge(graph::VertexId src, graph::EdgeType type,
                               graph::VertexId dst, const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bytegraph.delete_edge", OpLayer::kApi, ctx);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  std::lock_guard<std::mutex> lock(StripeFor(src, type));
  auto meta_data = CachedGet(MetaKey(src, type));
  if (meta_data.status().IsNotFound()) return Status::OK();
  BG3_RETURN_IF_ERROR(meta_data.status());
  Meta meta;
  BG3_RETURN_IF_ERROR(DecodeMeta(Slice(meta_data.value()), &meta));
  if (meta.entries.empty()) return Status::OK();
  auto mit = std::upper_bound(meta.entries.begin(), meta.entries.end(), dst,
                              [](graph::VertexId d, const MetaEntry& e) {
                                return d < e.first_dst;
                              });
  if (mit == meta.entries.begin()) return Status::OK();
  --mit;
  const std::string node_key = NodeKey(src, type, mit->node_seq);
  auto node_data = CachedGet(node_key);
  BG3_RETURN_IF_ERROR(node_data.status());
  std::vector<EdgeRec> edges;
  BG3_RETURN_IF_ERROR(DecodeNode(Slice(node_data.value()), &edges));
  auto eit = std::lower_bound(
      edges.begin(), edges.end(), dst,
      [](const EdgeRec& e, graph::VertexId d) { return e.dst < d; });
  if (eit == edges.end() || eit->dst != dst) return Status::OK();
  edges.erase(eit);
  return CachedPut(node_key, EncodeNode(edges));
}

Result<std::string> ByteGraphDB::GetEdge(graph::VertexId src,
                                         graph::EdgeType type,
                                         graph::VertexId dst,
                                         const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bytegraph.get_edge", OpLayer::kApi, ctx);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  auto meta_data = CachedGet(MetaKey(src, type));
  BG3_RETURN_IF_ERROR(meta_data.status());
  Meta meta;
  BG3_RETURN_IF_ERROR(DecodeMeta(Slice(meta_data.value()), &meta));
  if (meta.entries.empty()) return Status::NotFound("no edges");
  auto mit = std::upper_bound(meta.entries.begin(), meta.entries.end(), dst,
                              [](graph::VertexId d, const MetaEntry& e) {
                                return d < e.first_dst;
                              });
  if (mit == meta.entries.begin()) return Status::NotFound("no such edge");
  --mit;
  auto node_data = CachedGet(NodeKey(src, type, mit->node_seq));
  BG3_RETURN_IF_ERROR(node_data.status());
  std::vector<EdgeRec> edges;
  BG3_RETURN_IF_ERROR(DecodeNode(Slice(node_data.value()), &edges));
  auto eit = std::lower_bound(
      edges.begin(), edges.end(), dst,
      [](const EdgeRec& e, graph::VertexId d) { return e.dst < d; });
  if (eit == edges.end() || eit->dst != dst) {
    return Status::NotFound("no such edge");
  }
  return eit->properties;
}

Status ByteGraphDB::GetNeighbors(graph::VertexId src, graph::EdgeType type,
                                 size_t limit,
                                 std::vector<graph::Neighbor>* out,
                                 const OpContext* ctx) {
  BG3_TIMED_SCOPE("bg3.bytegraph.get_neighbors", OpLayer::kApi, ctx);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx));
  auto meta_data = CachedGet(MetaKey(src, type));
  if (meta_data.status().IsNotFound()) return Status::OK();
  BG3_RETURN_IF_ERROR(meta_data.status());
  Meta meta;
  BG3_RETURN_IF_ERROR(DecodeMeta(Slice(meta_data.value()), &meta));
  size_t remaining = limit;
  for (const MetaEntry& entry : meta.entries) {
    if (remaining == 0) break;
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx, "bytegraph neighbors"));
    auto node_data = CachedGet(NodeKey(src, type, entry.node_seq));
    BG3_RETURN_IF_ERROR(node_data.status());
    std::vector<EdgeRec> edges;
    BG3_RETURN_IF_ERROR(DecodeNode(Slice(node_data.value()), &edges));
    for (EdgeRec& e : edges) {
      if (remaining == 0) break;
      out->push_back(
          graph::Neighbor{e.dst, e.created_us, std::move(e.properties)});
      --remaining;
    }
  }
  return Status::OK();
}

}  // namespace bg3::bytegraph
