// Quickstart: open a BG3 GraphDB over simulated cloud storage, write a tiny
// social graph, and run the basic read operations.
//
//   $ ./quickstart
#include <cstdio>

#include "cloud/cloud_store.h"
#include "core/graph_db.h"

int main() {
  using namespace bg3;

  // The shared append-only cloud store (one per deployment).
  cloud::CloudStore store;

  // A BG3 instance with default options: read-optimized Bw-trees, a
  // space-optimized forest, workload-aware space reclamation.
  core::GraphDBOptions options;
  core::GraphDB db(&store, options);

  // Vertices carry opaque property bytes.
  constexpr graph::VertexId kAlice = 1, kBob = 2, kCarol = 3;
  BG3_CHECK(db.AddVertex(kAlice, "name=alice").ok());
  BG3_CHECK(db.AddVertex(kBob, "name=bob").ok());
  BG3_CHECK(db.AddVertex(kCarol, "name=carol").ok());

  // Edge type 1 = "follows". Timestamps default to the DB clock when 0.
  constexpr graph::EdgeType kFollows = 1;
  BG3_CHECK(db.AddEdge(kAlice, kFollows, kBob, "since=2024", 0).ok());
  BG3_CHECK(db.AddEdge(kAlice, kFollows, kCarol, "since=2025", 0).ok());
  BG3_CHECK(db.AddEdge(kBob, kFollows, kCarol, "since=2026", 0).ok());

  // Point lookups.
  auto props = db.GetEdge(kAlice, kFollows, kBob);
  printf("alice->bob: %s\n", props.ok() ? props.value().c_str() : "missing");

  // Adjacency scan: whom does alice follow?
  std::vector<graph::Neighbor> followees;
  BG3_CHECK(db.GetNeighbors(kAlice, kFollows, /*limit=*/10, &followees).ok());
  printf("alice follows %zu users:", followees.size());
  for (const auto& n : followees) printf(" %llu", (unsigned long long)n.dst);
  printf("\n");

  // Unfollow.
  BG3_CHECK(db.DeleteEdge(kAlice, kFollows, kCarol).ok());
  followees.clear();
  BG3_CHECK(db.GetNeighbors(kAlice, kFollows, 10, &followees).ok());
  printf("after unfollow, alice follows %zu user(s)\n", followees.size());

  // Engine internals, read from the objects that own them.
  const cloud::IoStats& io = store.stats();
  printf("--- engine ---\n");
  printf("forest: trees=%zu init_entries=%zu approx_memory=%zuB\n",
         db.forest()->TreeCount(), db.forest()->InitEntryCount(),
         db.forest()->ApproxMemoryBytes());
  printf("storage: total=%lluB live=%lluB appends=%llu reads=%llu\n",
         (unsigned long long)store.TotalBytes(),
         (unsigned long long)store.LiveBytes(),
         (unsigned long long)io.append_ops.Get(),
         (unsigned long long)io.read_ops.Get());
  return 0;
}
