#include "graph/edge.h"

#include "common/coding.h"
#include "common/logging.h"

namespace bg3::graph {

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

uint64_t ReadBigEndian64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint32_t ReadBigEndian32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

std::string EncodeDstKey(VertexId dst) {
  std::string key;
  key.reserve(8);
  AppendBigEndian64(&key, dst);
  return key;
}

bool DecodeDstKey(const Slice& key, VertexId* dst) {
  if (key.size() != 8) return false;
  *dst = ReadBigEndian64(key.data());
  return true;
}

std::string EncodeEdgeValue(TimestampUs created_us, const Slice& properties) {
  std::string out;
  PutFixed64(&out, created_us);
  out.append(properties.data(), properties.size());
  return out;
}

bool DecodeEdgeValue(const Slice& value, TimestampUs* created_us,
                     Slice* properties) {
  *properties = value;
  return GetFixed64(properties, created_us);
}

uint64_t MakeOwnerId(VertexId src, EdgeType type) {
  BG3_CHECK_LT(type, 256u) << "edge types must fit in 8 bits";
  return (src << 8) | static_cast<uint64_t>(type & 0xff);
}

std::string EncodeFlatEdgeKey(VertexId src, EdgeType type, VertexId dst) {
  std::string key;
  key.reserve(20);
  AppendBigEndian64(&key, src);
  AppendBigEndian32(&key, type);
  AppendBigEndian64(&key, dst);
  return key;
}

std::string EncodeFlatEdgePrefix(VertexId src, EdgeType type) {
  std::string key;
  key.reserve(12);
  AppendBigEndian64(&key, src);
  AppendBigEndian32(&key, type);
  return key;
}

std::string EncodeFlatEdgePrefixEnd(VertexId src, EdgeType type) {
  // Increment (src, type) as a 96-bit big-endian number.
  if (type != ~0u) return EncodeFlatEdgePrefix(src, type + 1);
  if (src != ~0ull) return EncodeFlatEdgePrefix(src + 1, 0);
  return std::string();  // unbounded
}

bool DecodeFlatEdgeKey(const Slice& key, VertexId* src, EdgeType* type,
                       VertexId* dst) {
  if (key.size() != 20) return false;
  *src = ReadBigEndian64(key.data());
  *type = ReadBigEndian32(key.data() + 8);
  *dst = ReadBigEndian64(key.data() + 12);
  return true;
}

}  // namespace bg3::graph
