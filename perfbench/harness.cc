#include "harness.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "query/query.h"

namespace bg3::perfbench {

namespace {

constexpr size_t kHottestSources = 100;
constexpr size_t kSampledSources = 1000;

thread_local int t_writer = -1;
thread_local CoreTally t_tally;

/// Every final value an edge may hold once the writers are done.
struct Candidates {
  std::vector<EdgeWrite> finals;
  bool run_written = false;  ///< written after the load.
};

enum class Expect { kLive, kGone, kEither };

uint64_t EdgeKey(graph::VertexId src, graph::VertexId dst) {
  BG3_CHECK(src <= std::numeric_limits<uint32_t>::max() &&
            dst <= std::numeric_limits<uint32_t>::max());
  return (src << 32) | dst;
}

class Reference {
 public:
  Reference(const HarnessEngine& engine, const CheckOptions& options)
      : opts_(options) {
    for (const EdgeWrite& w : engine.log(kLoadWriter)) {
      edges_[EdgeKey(w.src, w.dst)].finals = {w};
    }
    for (int client = 0; client < kClients; ++client) {
      // This client's last write of each edge.
      std::unordered_map<uint64_t, const EdgeWrite*> last;
      for (const EdgeWrite& w : engine.log(client)) {
        last[EdgeKey(w.src, w.dst)] = &w;
      }
      for (const auto& [key, w] : last) {
        Candidates& c = edges_[key];
        if (!c.run_written) c.finals.clear();
        c.run_written = true;
        c.finals.push_back(*w);
      }
    }
    for (const auto& [key, c] : edges_) {
      adjacency_[key >> 32].emplace_back(key & 0xffffffffu, &c);
    }
    for (auto& [src, list] : adjacency_) std::sort(list.begin(), list.end());
  }

  bool Live(const EdgeWrite& w) const {
    return opts_.ttl_us == 0 || w.created_us + opts_.ttl_us > opts_.now_us;
  }

  Expect ExpectOf(const Candidates& c) const {
    size_t live = 0;
    for (const EdgeWrite& w : c.finals) live += Live(w) ? 1 : 0;
    if (live == c.finals.size()) return Expect::kLive;
    return live == 0 ? Expect::kGone : Expect::kEither;
  }

  /// True if (created_us, props) is a live final value of `c`.
  bool Matches(const Candidates& c, graph::TimestampUs created_us,
               uint64_t props_hash, bool check_time) const {
    for (const EdgeWrite& w : c.finals) {
      if (Live(w) && w.props_hash == props_hash &&
          (!check_time || w.created_us == created_us)) {
        return true;
      }
    }
    return false;
  }

  uint64_t LiveEdges() const {
    uint64_t n = 0;
    for (const auto& [key, c] : edges_) n += ExpectOf(c) != Expect::kGone;
    return n;
  }

  /// Sources by descending reference out-degree (ties: smaller id first).
  std::vector<graph::VertexId> Hottest(size_t n) const {
    std::vector<std::pair<size_t, graph::VertexId>> by_degree;
    by_degree.reserve(adjacency_.size());
    for (const auto& [src, list] : adjacency_) {
      by_degree.emplace_back(list.size(), src);
    }
    std::sort(by_degree.begin(), by_degree.end(), [](auto& a, auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<graph::VertexId> out;
    for (size_t i = 0; i < std::min(n, by_degree.size()); ++i) {
      out.push_back(by_degree[i].second);
    }
    return out;
  }

  using Row = std::vector<std::pair<graph::VertexId, const Candidates*>>;
  const Row& Adjacency(graph::VertexId src) const {
    static const Row kEmpty;
    auto it = adjacency_.find(src);
    return it == adjacency_.end() ? kEmpty : it->second;
  }

  const std::unordered_map<uint64_t, Candidates>& edges() const {
    return edges_;
  }

  /// Query(db).V(src).Out(type, kFanout) x hops .Dedup().Count() on the
  /// reference. Valid without TTL, where every stored entry is live.
  size_t KHopCount(graph::VertexId src, int hops) const {
    std::vector<graph::VertexId> frontier{src};
    for (int hop = 0; hop < hops; ++hop) {
      std::vector<graph::VertexId> next;
      for (graph::VertexId v : frontier) {
        const Row& row = Adjacency(v);
        for (size_t i = 0; i < std::min(kFanout, row.size()); ++i) {
          next.push_back(row[i].first);
        }
      }
      frontier = std::move(next);
    }
    return std::unordered_set<graph::VertexId>(frontier.begin(),
                                               frontier.end())
        .size();
  }

 private:
  const CheckOptions opts_;
  std::unordered_map<uint64_t, Candidates> edges_;
  std::unordered_map<graph::VertexId, Row> adjacency_;
};

class Checker {
 public:
  Checker(core::GraphDB* db, const Reference& ref, CheckResult* result)
      : db_(db), ref_(ref), result_(result) {}

  void Neighbors(graph::VertexId src) {
    ++result_->probes;
    std::vector<graph::Neighbor> got;
    Status s = db_->GetNeighbors(src, kEdgeType,
                                 std::numeric_limits<size_t>::max(), &got);
    if (!s.ok()) return Fail("GetNeighbors(" + Id(src) + "): " + s.ToString());
    for (size_t i = 1; i < got.size(); ++i) {
      if (got[i - 1].dst >= got[i].dst) {
        return Fail("GetNeighbors(" + Id(src) + ") not in ascending order");
      }
    }
    const Reference::Row& want = ref_.Adjacency(src);
    size_t g = 0;
    for (const auto& [dst, cands] : want) {
      if (g < got.size() && got[g].dst < dst) {
        return Fail("GetNeighbors(" + Id(src) + ") returned unwritten edge " +
                    Id(got[g].dst));
      }
      const bool present = g < got.size() && got[g].dst == dst;
      const Expect e = ref_.ExpectOf(*cands);
      if (present) {
        if (e == Expect::kGone) {
          return Fail("edge " + Id(src) + "->" + Id(dst) + " outlived its TTL");
        }
        if (!ref_.Matches(*cands, got[g].created_us,
                          HashSlice(got[g].properties), true)) {
          return Fail("edge " + Id(src) + "->" + Id(dst) + " has a stale or "
                      "corrupt value");
        }
        ++g;
      } else if (e == Expect::kLive) {
        return Fail("edge " + Id(src) + "->" + Id(dst) + " missing");
      }
    }
    if (g < got.size()) {
      Fail("GetNeighbors(" + Id(src) + ") returned unwritten edge " +
           Id(got[g].dst));
    }
  }

  void Edge(graph::VertexId src, graph::VertexId dst, const Candidates& c) {
    ++result_->probes;
    auto got = db_->GetEdge(src, kEdgeType, dst);
    const Expect e = ref_.ExpectOf(c);
    if (got.ok()) {
      if (e == Expect::kGone) {
        return Fail("GetEdge " + Id(src) + "->" + Id(dst) +
                    " outlived its TTL");
      }
      if (!ref_.Matches(c, 0, HashSlice(Slice(got.value())), false)) {
        return Fail("GetEdge " + Id(src) + "->" + Id(dst) +
                    " has a stale or corrupt value");
      }
    } else if (!got.status().IsNotFound() || e == Expect::kLive) {
      Fail("GetEdge " + Id(src) + "->" + Id(dst) + ": " +
           got.status().ToString());
    }
  }

  void KHop(graph::VertexId src, int hops) {
    ++result_->probes;
    query::Query q(db_);
    q.V(src);
    for (int h = 0; h < hops; ++h) q.Out(kEdgeType, kFanout);
    auto got = q.Dedup().Count();
    const size_t want = ref_.KHopCount(src, hops);
    if (!got.ok() || got.value() != want) {
      Fail(std::to_string(hops) + "-hop count from " + Id(src) + ": got " +
           (got.ok() ? std::to_string(got.value()) : got.status().ToString()) +
           ", want " + std::to_string(want));
    }
  }

 private:
  static std::string Id(graph::VertexId v) { return std::to_string(v); }

  void Fail(std::string what) {
    ++result_->mismatches;
    if (result_->examples.size() < 5) {
      result_->examples.push_back(std::move(what));
    }
  }

  core::GraphDB* const db_;
  const Reference& ref_;
  CheckResult* const result_;
};

}  // namespace

HarnessEngine::HarnessEngine(core::GraphDB* db)
    : db_(db), logs_(kClients + 1) {}

void HarnessEngine::BindWriter(int writer) { t_writer = writer; }

CoreTally& HarnessEngine::Tally() { return t_tally; }

template <typename Fn>
auto HarnessEngine::Call(Fn&& fn) {
  if (!tracing_) return fn();
  const uint64_t t0 = NowNanos();
  auto result = fn();
  t_tally.ns += NowNanos() - t0;
  ++t_tally.calls;
  return result;
}

Status HarnessEngine::AddVertex(graph::VertexId id, const Slice& properties,
                                const OpContext* ctx) {
  return Call([&] { return db_->AddVertex(id, properties, ctx); });
}

Result<std::string> HarnessEngine::GetVertex(graph::VertexId id,
                                             const OpContext* ctx) {
  return Call([&] { return db_->GetVertex(id, ctx); });
}

Status HarnessEngine::DeleteVertex(graph::VertexId id, graph::EdgeType type,
                                   const OpContext* ctx) {
  return Call([&] { return db_->DeleteVertex(id, type, ctx); });
}

Status HarnessEngine::AddEdge(graph::VertexId src, graph::EdgeType type,
                              graph::VertexId dst, const Slice& properties,
                              graph::TimestampUs created_us,
                              const OpContext* ctx) {
  BG3_CHECK(t_writer >= 0 && t_writer <= kLoadWriter && type == kEdgeType &&
            created_us != 0);
  Status s = Call([&] {
    return db_->AddEdge(src, type, dst, properties, created_us, ctx);
  });
  if (s.ok()) {
    logs_[t_writer].push_back(
        EdgeWrite{src, dst, created_us, HashSlice(properties)});
  }
  return s;
}

Status HarnessEngine::DeleteEdge(graph::VertexId src, graph::EdgeType type,
                                 graph::VertexId dst, const OpContext* ctx) {
  // The reference does not model deletes; no workload issues one.
  BG3_CHECK(false) << "DeleteEdge is not part of any benchmark workload";
  return Status::OK();
}

Result<std::string> HarnessEngine::GetEdge(graph::VertexId src,
                                           graph::EdgeType type,
                                           graph::VertexId dst,
                                           const OpContext* ctx) {
  return Call([&] { return db_->GetEdge(src, type, dst, ctx); });
}

Status HarnessEngine::GetNeighbors(graph::VertexId src, graph::EdgeType type,
                                   size_t limit,
                                   std::vector<graph::Neighbor>* out,
                                   const OpContext* ctx) {
  return Call([&] { return db_->GetNeighbors(src, type, limit, out, ctx); });
}

CheckResult CheckAnswers(core::GraphDB* db, const HarnessEngine& engine,
                         const CheckOptions& options) {
  CheckResult result;
  const Reference ref(engine, options);
  result.live_edges = ref.LiveEdges();
  Checker check(db, ref, &result);

  std::vector<graph::VertexId> sources = ref.Hottest(kHottestSources);
  Random rng(options.seed);
  for (size_t i = 0; i < kSampledSources; ++i) {
    sources.push_back(rng.Uniform(options.num_vertices));
  }
  for (graph::VertexId src : sources) check.Neighbors(src);

  for (const auto& [key, c] : ref.edges()) {
    if (c.run_written) check.Edge(key >> 32, key & 0xffffffffu, c);
  }

  if (options.ttl_us == 0) {
    for (size_t i = 0; i < options.khop_queries; ++i) {
      // Half from the hot head of the Zipf id space, half uniform.
      const graph::VertexId src = rng.Uniform(
          i % 2 == 0 ? std::min<uint64_t>(1000, options.num_vertices)
                     : options.num_vertices);
      check.KHop(src, 2 + static_cast<int>(i % 2));
    }
  }
  return result;
}

}  // namespace bg3::perfbench
