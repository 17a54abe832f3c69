#ifndef BG3_REPLICATION_CHAOS_H_
#define BG3_REPLICATION_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace bg3::replication {

/// One node-level event in a chaos schedule — the crash/pause/resume layer
/// stacked on top of the substrate fault injector (DESIGN.md §5.2): where
/// the injector fails individual cloud operations, these events kill,
/// depose, resurrect and restart whole nodes of a Bg3Cluster.
struct ChaosEvent {
  enum class Kind : uint8_t {
    kPut,              ///< write through the current leader; ack -> model.
    kRead,             ///< strongly consistent follower read, model-checked.
    kLeaderRead,       ///< same check through the partition leader.
    kPromote,          ///< fence + depose the leader, promote a follower.
    kZombieResume,     ///< the deposed leader wakes up and tries to write.
    kFollowerRestart,  ///< tear down + pre-warm one follower.
    kReap,             ///< destroy the partition's zombie for good.
  };
  Kind kind = Kind::kPut;
  int partition = 0;  ///< target partition (promote/resume/restart/reap).
  int index = 0;      ///< follower index (promote/restart).
  uint64_t key = 0;   ///< key id (put/read), in [0, 128).
};

const char* ChaosEventName(ChaosEvent::Kind kind);

struct ChaosOptions {
  /// Seed of the schedule (and of the key/value draws). A (seed, options)
  /// pair fully determines the run; every violation message embeds it.
  uint64_t seed = 0xC4405;
  int steps = 600;
  int partitions = 2;
  int followers_per_partition = 2;

  /// Substrate faults layered *under* the node schedule, forwarded to the
  /// fault injector (0 = clean substrate; node chaos only).
  double transient_error_p = 0.0;
  double latency_spike_p = 0.0;
};

struct ChaosReport {
  uint64_t seed = 0;
  uint64_t steps = 0;
  uint64_t puts_acked = 0;
  uint64_t puts_rejected = 0;  ///< non-OK ack: value may or may not land.
  uint64_t reads = 0;
  uint64_t promotions = 0;
  uint64_t zombie_resumes = 0;
  uint64_t zombie_writes_rejected = 0;
  uint64_t follower_restarts = 0;
  uint64_t reaps = 0;
  uint64_t verified_keys = 0;     ///< model-checked reads, sweeps included.
  uint64_t fenced_appends = 0;    ///< cluster counter at schedule end.
  uint64_t zombie_drained = 0;    ///< cluster counter at schedule end.
  uint64_t final_term = 0;        ///< max partition term at schedule end.

  std::string ToString() const;
};

/// The deterministic node-event schedule for (options.seed): same options,
/// same events, every time.
std::vector<ChaosEvent> GenerateChaosSchedule(const ChaosOptions& options);

/// Runs the seeded schedule against a fresh store + cluster, checking after
/// every read that the cluster is linearizable for read-your-writes:
///  - an acknowledged write is never lost (NotFound after ack) and never
///    served stale (older value than the newest ack for its key);
///  - a value written through a deposed zombie after its term was fenced is
///    NEVER visible anywhere — zero stale-term records applied;
///  - every value served was actually written by this schedule to this key.
/// Returns the report, or the first violation as an error Status whose
/// message embeds the seed and step index for exact replay. Set the
/// BG3_CHAOS_TRACE environment variable to dump every scheduled event to
/// stderr while replaying a seed.
Result<ChaosReport> RunChaos(const ChaosOptions& options);

}  // namespace bg3::replication

#endif  // BG3_REPLICATION_CHAOS_H_
