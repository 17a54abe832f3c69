#ifndef BG3_PERFBENCH_HARNESS_H_
#define BG3_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_db.h"
#include "graph/engine.h"

namespace bg3::perfbench {

/// Closed-loop client threads; client i writes through write log i.
inline constexpr int kClients = 4;
/// The write log of the single-threaded load, which precedes every other.
inline constexpr int kLoadWriter = kClients;

inline constexpr graph::EdgeType kEdgeType = 1;
inline constexpr size_t kPropertyBytes = 16;
inline constexpr size_t kFanout = 6;  // k-hop and reach expansion per vertex

/// Logical bytes of one live edge: source and destination ids, creation
/// time, properties. The denominator of space_amp.
inline constexpr uint64_t kLogicalEdgeBytes = 3 * sizeof(uint64_t) +
                                              kPropertyBytes;

/// Calls into core made by one thread while tracing is on.
struct CoreTally {
  uint64_t calls = 0;
  uint64_t ns = 0;
};

/// One acknowledged AddEdge, in the order its writer issued it.
struct EdgeWrite {
  graph::VertexId src = 0;
  graph::VertexId dst = 0;
  graph::TimestampUs created_us = 0;
  uint64_t props_hash = 0;
};

/// The engine the benchmark's clients, `query` and `graph` run on. It
/// forwards every call to the GraphDB, logs each acknowledged edge write
/// for the answer check, and, while tracing is on, times every call into
/// core into the calling thread's CoreTally. With tracing off it adds one
/// branch per call and one vector append per write.
class HarnessEngine : public graph::GraphEngine {
 public:
  /// One write log per client plus the load's; each writing thread binds
  /// one with BindWriter.
  explicit HarnessEngine(core::GraphDB* db);

  /// Binds the calling thread to write log `writer` (a client or
  /// kLoadWriter).
  static void BindWriter(int writer);
  /// The calling thread's tally of traced core calls.
  static CoreTally& Tally();

  /// Flip only while no client thread runs.
  void set_tracing(bool on) { tracing_ = on; }

  const std::vector<EdgeWrite>& log(int writer) const { return logs_[writer]; }

  std::string name() const override { return "harness(" + db_->name() + ")"; }
  Status AddVertex(graph::VertexId id, const Slice& properties,
                   const OpContext* ctx = nullptr) override;
  Result<std::string> GetVertex(graph::VertexId id,
                                const OpContext* ctx = nullptr) override;
  Status DeleteVertex(graph::VertexId id, graph::EdgeType type,
                      const OpContext* ctx = nullptr) override;
  Status AddEdge(graph::VertexId src, graph::EdgeType type,
                 graph::VertexId dst, const Slice& properties,
                 graph::TimestampUs created_us,
                 const OpContext* ctx = nullptr) override;
  Status DeleteEdge(graph::VertexId src, graph::EdgeType type,
                    graph::VertexId dst,
                    const OpContext* ctx = nullptr) override;
  Result<std::string> GetEdge(graph::VertexId src, graph::EdgeType type,
                              graph::VertexId dst,
                              const OpContext* ctx = nullptr) override;
  Status GetNeighbors(graph::VertexId src, graph::EdgeType type, size_t limit,
                      std::vector<graph::Neighbor>* out,
                      const OpContext* ctx = nullptr) override;

 private:
  template <typename Fn>
  auto Call(Fn&& fn);

  core::GraphDB* const db_;
  bool tracing_ = false;
  std::vector<std::vector<EdgeWrite>> logs_;
};

struct CheckOptions {
  uint64_t ttl_us = 0;  ///< 0: edges never expire.
  uint64_t now_us = 0;  ///< the DB clock while checking (TTL only).
  uint64_t num_vertices = 0;
  /// Seeded 2- and 3-hop query counts compared with the reference
  /// (TTL-free only).
  size_t khop_queries = 0;
  uint64_t seed = 0;
};

struct CheckResult {
  uint64_t probes = 0;
  uint64_t mismatches = 0;
  uint64_t live_edges = 0;  ///< live edges in the reference.
  std::vector<std::string> examples;  ///< first few mismatches, readable.
};

/// Rebuilds the reference adjacency from the engine's write logs and
/// compares the database with it: GetNeighbors of the 100 hottest and 1,000
/// seeded random sources, GetEdge of every edge written after the load, and
/// optionally seeded k-hop counts. When writers raced on one edge, any
/// writer's last write is an acceptable final value; when those candidates
/// straddle the TTL, both presence and absence are accepted.
CheckResult CheckAnswers(core::GraphDB* db, const HarnessEngine& engine,
                         const CheckOptions& options);

}  // namespace bg3::perfbench

#endif  // BG3_PERFBENCH_HARNESS_H_
