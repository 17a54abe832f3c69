#include "query/query.h"

#include "common/timed_scope.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"

namespace bg3::query {

Query::Query(graph::GraphEngine* engine) : engine_(engine) {
  BG3_CHECK(engine != nullptr);
}

Query& Query::Context(const OpContext* ctx) {
  ctx_ = ctx;
  return *this;
}

Query& Query::V(graph::VertexId start) {
  sources_.push_back(start);
  return *this;
}

Query& Query::V(std::vector<graph::VertexId> starts) {
  sources_.insert(sources_.end(), starts.begin(), starts.end());
  return *this;
}

Query& Query::AddStep(Step step) {
  steps_.push_back(std::move(step));
  return *this;
}

Query& Query::Out(graph::EdgeType type, size_t per_vertex_limit) {
  return AddStep([this, type, per_vertex_limit](Frontier* f) -> Status {
    Frontier next;
    next.has_via = true;
    std::vector<graph::Neighbor> neighbors;
    for (graph::VertexId v : f->vertices) {
      neighbors.clear();
      BG3_RETURN_IF_ERROR(
          engine_->GetNeighbors(v, type, per_vertex_limit, &neighbors, ctx_));
      for (graph::Neighbor& n : neighbors) {
        next.vertices.push_back(n.dst);
        next.via.push_back(std::move(n));
      }
    }
    *f = std::move(next);
    return Status::OK();
  });
}

Query& Query::Where(std::function<bool(graph::VertexId)> predicate) {
  return AddStep([predicate = std::move(predicate)](Frontier* f) -> Status {
    Frontier next;
    next.has_via = f->has_via;
    for (size_t i = 0; i < f->vertices.size(); ++i) {
      if (!predicate(f->vertices[i])) continue;
      next.vertices.push_back(f->vertices[i]);
      if (f->has_via) next.via.push_back(std::move(f->via[i]));
    }
    *f = std::move(next);
    return Status::OK();
  });
}

Query& Query::WhereEdge(
    std::function<bool(const graph::Neighbor&)> predicate) {
  return AddStep([predicate = std::move(predicate)](Frontier* f) -> Status {
    if (!f->has_via) {
      return Status::InvalidArgument(
          "WhereEdge requires a preceding Out step");
    }
    Frontier next;
    next.has_via = true;
    for (size_t i = 0; i < f->vertices.size(); ++i) {
      if (!predicate(f->via[i])) continue;
      next.vertices.push_back(f->vertices[i]);
      next.via.push_back(std::move(f->via[i]));
    }
    *f = std::move(next);
    return Status::OK();
  });
}

Query& Query::Dedup() {
  return AddStep([](Frontier* f) -> Status {
    std::unordered_set<graph::VertexId> seen;
    Frontier next;
    next.has_via = f->has_via;
    for (size_t i = 0; i < f->vertices.size(); ++i) {
      if (!seen.insert(f->vertices[i]).second) continue;
      next.vertices.push_back(f->vertices[i]);
      if (f->has_via) next.via.push_back(std::move(f->via[i]));
    }
    *f = std::move(next);
    return Status::OK();
  });
}

Query& Query::Limit(size_t n) {
  return AddStep([n](Frontier* f) -> Status {
    if (f->vertices.size() > n) {
      f->vertices.resize(n);
      if (f->has_via) f->via.resize(n);
    }
    return Status::OK();
  });
}

Query& Query::Order() {
  return AddStep([](Frontier* f) -> Status {
    // Sorting drops edge provenance (an aggregation boundary, like BGE's
    // sort operator).
    std::sort(f->vertices.begin(), f->vertices.end());
    f->via.clear();
    f->has_via = false;
    return Status::OK();
  });
}

Query& Query::Sample(size_t k, uint64_t seed) {
  return AddStep([k, seed](Frontier* f) -> Status {
    if (f->vertices.size() <= k) return Status::OK();
    // Fisher-Yates prefix shuffle: uniform k-sample, deterministic per seed.
    Random rng(seed);
    for (size_t i = 0; i < k; ++i) {
      const size_t j = i + rng.Uniform(f->vertices.size() - i);
      std::swap(f->vertices[i], f->vertices[j]);
      if (f->has_via) std::swap(f->via[i], f->via[j]);
    }
    f->vertices.resize(k);
    if (f->has_via) f->via.resize(k);
    return Status::OK();
  });
}

Result<std::vector<graph::VertexId>> Query::Execute() {
  BG3_TIMED_SCOPE("bg3.query.execute", OpLayer::kQuery, ctx_);
  BG3_RETURN_IF_ERROR(ValidateOpContext(ctx_));
  Frontier f;
  f.vertices = sources_;
  for (const Step& step : steps_) {
    // Between-step check: a deadline'd traversal gives up at a hop
    // boundary instead of starting another fan-out it cannot finish.
    BG3_RETURN_IF_ERROR(CheckDeadline(ctx_, "query step"));
    BG3_RETURN_IF_ERROR(step(&f));
  }
  return std::move(f.vertices);
}

Result<size_t> Query::Count() {
  auto result = Execute();
  BG3_RETURN_IF_ERROR(result.status());
  return result.value().size();
}

Result<bool> Query::Any() {
  auto result = Execute();
  BG3_RETURN_IF_ERROR(result.status());
  return !result.value().empty();
}

}  // namespace bg3::query
