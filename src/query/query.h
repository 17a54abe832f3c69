#ifndef BG3_QUERY_QUERY_H_
#define BG3_QUERY_QUERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/engine.h"

namespace bg3::query {

/// A Gremlin-flavoured traversal builder over any graph::GraphEngine — the
/// role of ByteGraph's execution layer (BGE, §2.1), which "convert[s] query
/// language into specific execution plans and handles computation-intensive
/// operations such as sorting and aggregation". Steps are recorded lazily
/// and run by Execute()/Count()/ToVertices().
///
///   auto followers_of_followees =
///       Query(db).V(user).Out(kFollows).Out(kFollows).Dedup().Limit(50)
///           .Execute();
///
/// Not thread safe (build and run a query on one thread); the underlying
/// engine calls are whatever the engine provides.
class Query {
 public:
  explicit Query(graph::GraphEngine* engine);

  /// Attaches a request context: the deadline is checked between pipeline
  /// steps (a multi-hop traversal stops between hops, not only inside
  /// engine I/O) and rides every GetNeighbors expansion. The context must
  /// outlive the terminal call.
  Query& Context(const OpContext* ctx);

  // --- traversal source ---------------------------------------------------
  /// Starts from a single vertex.
  Query& V(graph::VertexId start);
  /// Starts from a set of vertices.
  Query& V(std::vector<graph::VertexId> starts);

  // --- traversal steps -----------------------------------------------------
  /// Moves to out-neighbors along `type` edges (up to `per_vertex_limit`
  /// neighbors expanded per current vertex).
  Query& Out(graph::EdgeType type, size_t per_vertex_limit = 64);

  /// Keeps only vertices passing the predicate.
  Query& Where(std::function<bool(graph::VertexId)> predicate);

  /// Keeps vertices whose *incoming traversal edge* passes the predicate
  /// (timestamp filters: "edges created in the last hour").
  Query& WhereEdge(std::function<bool(const graph::Neighbor&)> predicate);

  /// Removes duplicate vertices (first occurrence wins).
  Query& Dedup();

  /// Keeps the first n vertices of the current frontier.
  Query& Limit(size_t n);

  /// Sorts the frontier by vertex id (ascending).
  Query& Order();

  /// Uniform random sample of k frontier vertices (subgraph generation for
  /// recommendation models, Table 1).
  Query& Sample(size_t k, uint64_t seed);

  // --- terminal steps --------------------------------------------------------
  /// Runs the pipeline; returns the final vertex frontier.
  Result<std::vector<graph::VertexId>> Execute();
  /// Runs the pipeline; returns the final frontier size.
  Result<size_t> Count();
  /// Runs the pipeline; true if any vertex survives.
  Result<bool> Any();

 private:
  struct Frontier {
    std::vector<graph::VertexId> vertices;
    /// Edge that led to vertices[i] (empty after source/filter-only steps
    /// that lack edge provenance).
    std::vector<graph::Neighbor> via;
    bool has_via = false;
  };
  using Step = std::function<Status(Frontier*)>;

  Query& AddStep(Step step);

  graph::GraphEngine* const engine_;
  const OpContext* ctx_ = nullptr;
  std::vector<graph::VertexId> sources_;
  std::vector<Step> steps_;
};

}  // namespace bg3::query

#endif  // BG3_QUERY_QUERY_H_
