// The "Financial Risk Control" scenario of Table 1: fund-transfer edges
// with a short TTL, loop detection for anti-money-laundering (§2.6), and
// TTL-aware space reclamation that frees whole extents without moving a
// byte (§3.3 Observation 2).
//
//   $ ./risk_control
#include <cstdio>
#include <memory>

#include "cloud/cloud_store.h"
#include "core/graph_db.h"
#include "graph/pattern.h"
#include "graph/traversal.h"

int main() {
  using namespace bg3;

  cloud::CloudStoreOptions store_opts;
  store_opts.extent_capacity = 64 << 10;
  cloud::CloudStore store(store_opts);

  // A manual clock lets this demo fast-forward TTL expiry.
  cloud::ManualTimeSource clock;

  core::GraphDBOptions options;
  options.edge_ttl_us = 10ull * 60 * 1'000'000;  // 10-minute audit TTL
  options.gc_policy = core::GcPolicyKind::kWorkloadAware;
  options.time_source = &clock;
  core::GraphDB db(&store, options);

  constexpr graph::EdgeType kTransfer = 1;

  // A suspicious transfer ring: 100 -> 101 -> 102 -> 100, hidden among
  // legitimate star-shaped payment traffic.
  clock.SetUs(1'000'000);
  for (graph::VertexId a = 0; a < 100; ++a) {
    for (graph::VertexId b = 0; b < 5; ++b) {
      BG3_CHECK(db.AddEdge(a, kTransfer, 1000 + (a * 7 + b) % 400, "amt=10", 0).ok());
    }
  }
  BG3_CHECK(db.AddEdge(100, kTransfer, 101, "amt=9999", 0).ok());
  BG3_CHECK(db.AddEdge(101, kTransfer, 102, "amt=9999", 0).ok());
  BG3_CHECK(db.AddEdge(102, kTransfer, 100, "amt=9999", 0).ok());

  // Loop detection — the MPP-style risk query of §2.6.
  graph::CycleOptions cycle;
  cycle.type = kTransfer;
  cycle.max_length = 5;
  cycle.fanout = 64;
  for (graph::VertexId account : {100ull, 0ull, 101ull}) {
    auto found = graph::DetectCycle(&db, account, cycle);
    printf("account %llu: %s\n", (unsigned long long)account,
           found.ok() && found.value() ? "CYCLE DETECTED (flag for review)"
                                       : "clean");
  }

  // Multi-hop reachability: can funds flow from 100 to 102 within 10 hops?
  graph::TraversalOptions reach;
  reach.hops = 10;
  reach.fanout_per_vertex = 64;
  auto reachable = graph::IsReachable(&db, 100, 102, kTransfer, reach);
  printf("100 -> 102 reachable within 10 hops: %s\n",
         reachable.ok() && reachable.value() ? "yes" : "no");

  // TTL expiry: after the audit window, reads stop returning the data and
  // GC frees the extents outright — no relocation bandwidth (Table 2).
  const uint64_t storage_before = store.TotalBytes();
  clock.AdvanceUs(30ull * 60 * 1'000'000);  // +30 minutes
  BG3_CHECK(db.RunGcCycle().ok());
  printf("\nTTL reclamation:\n");
  printf("  storage before : %.1f KB\n", storage_before / 1e3);
  printf("  storage after  : %.1f KB\n", store.TotalBytes() / 1e3);
  printf("  extents expired: %llu, bytes moved by GC: %llu (expect 0)\n",
         (unsigned long long)db.reclaimer()->totals().extents_expired,
         (unsigned long long)store.stats().gc_moved_bytes.Get());

  auto gone = db.GetEdge(100, kTransfer, 101);
  printf("expired edge visible: %s\n", gone.ok() ? "yes (BUG)" : "no");
  return 0;
}
