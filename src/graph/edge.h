#ifndef BG3_GRAPH_EDGE_H_
#define BG3_GRAPH_EDGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace bg3::graph {

/// Property-graph identifiers (§2.2): vertices and edges carry types and
/// properties; adjacency lists are grouped by (source vertex, edge type).
using VertexId = uint64_t;
using EdgeType = uint32_t;
using TimestampUs = uint64_t;

/// One directed edge with its properties.
struct Edge {
  VertexId src = 0;
  EdgeType type = 0;
  VertexId dst = 0;
  TimestampUs created_us = 0;  ///< e.g. "the time when the like was clicked".
  std::string properties;
};

// --- key / value codecs ------------------------------------------------------
// Adjacency sort keys order by destination id (big-endian so memcmp order ==
// numeric order). Edge values carry the creation timestamp (TTL filtering)
// followed by the property bytes.

/// 8-byte big-endian destination id: the per-owner sort key.
std::string EncodeDstKey(VertexId dst);
/// Inverse of EncodeDstKey; returns false on length mismatch.
bool DecodeDstKey(const Slice& key, VertexId* dst);

std::string EncodeEdgeValue(TimestampUs created_us, const Slice& properties);
/// Inverse of EncodeEdgeValue; `properties` views the bytes of `value`.
bool DecodeEdgeValue(const Slice& value, TimestampUs* created_us,
                     Slice* properties);

/// Adjacency-list owner handle: packs (src, type) into the forest's 64-bit
/// OwnerId. Edge types must fit in 8 bits (ByteDance-style workloads use a
/// handful of edge types per table).
uint64_t MakeOwnerId(VertexId src, EdgeType type);

/// Composite [src BE64][type BE32][dst BE64] key for engines that keep all
/// edges in one flat ordered namespace (RW/RO replication nodes, LSM
/// baseline).
std::string EncodeFlatEdgeKey(VertexId src, EdgeType type, VertexId dst);
/// Prefix covering every edge of (src, type).
std::string EncodeFlatEdgePrefix(VertexId src, EdgeType type);
/// Exclusive upper bound of the (src, type) prefix range.
std::string EncodeFlatEdgePrefixEnd(VertexId src, EdgeType type);
bool DecodeFlatEdgeKey(const Slice& key, VertexId* src, EdgeType* type,
                       VertexId* dst);

}  // namespace bg3::graph

#endif  // BG3_GRAPH_EDGE_H_
