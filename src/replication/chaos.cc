#include "replication/chaos.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>

#include "cloud/cloud_store.h"
#include "cloud/fault_injector.h"
#include "common/logging.h"
#include "common/random.h"
#include "replication/cluster.h"

namespace bg3::replication {
namespace {

std::string ChaosKey(uint64_t id) {
  char buf[24];
  snprintf(buf, sizeof(buf), "c%08llu", static_cast<unsigned long long>(id));
  return buf;
}

std::string LeaderValue(uint64_t key, uint64_t step) {
  return "k" + std::to_string(key) + ".s" + std::to_string(step);
}

std::string ZombieValue(uint64_t key, uint64_t step) {
  return "zombie.k" + std::to_string(key) + ".s" + std::to_string(step);
}

/// Per-key model of what the schedule has written. `last_acked_step` is the
/// newest *acknowledged* write (0 = none); `issued` holds every value ever
/// attempted on the key through a live leader — a rejected put's records can
/// stay buffered and land on a later flush, so its value is admissible until
/// a newer put acks past it.
struct KeyModel {
  uint64_t last_acked_step = 0;
  std::string acked_value;
  std::map<uint64_t, std::string> issued;  ///< step -> value.
};

struct Checker {
  const ChaosOptions& opts;
  std::map<uint64_t, KeyModel> model;
  /// Values written through a fenced zombie: visible NOWHERE, ever.
  std::unordered_set<std::string> forbidden;
  uint64_t verified = 0;

  Status Violation(uint64_t step, const std::string& what) const {
    return Status::Corruption("chaos violation (seed=" +
                              std::to_string(opts.seed) + " step=" +
                              std::to_string(step) + "): " + what);
  }

  /// Validates one observed read of `key` against the model.
  Status Check(uint64_t step, uint64_t key, const Result<std::string>& read,
               const char* where) {
    ++verified;
    const KeyModel* km = [&]() -> const KeyModel* {
      auto it = model.find(key);
      return it == model.end() ? nullptr : &it->second;
    }();
    const std::string key_str = ChaosKey(key);
    if (!read.ok()) {
      if (!read.status().IsNotFound()) {
        return Violation(step, std::string(where) + " read of " + key_str +
                                   " failed: " + read.status().ToString());
      }
      if (km != nullptr && km->last_acked_step != 0) {
        return Violation(
            step, "acked write lost: " + std::string(where) + " read of " +
                      key_str + " is NotFound but step " +
                      std::to_string(km->last_acked_step) + " acked \"" +
                      km->acked_value + "\"");
      }
      return Status::OK();
    }
    const std::string& v = read.value();
    if (forbidden.count(v) != 0) {
      return Violation(step, "stale-term record applied: " +
                                 std::string(where) + " read of " + key_str +
                                 " returned fenced zombie value \"" + v +
                                 "\"");
    }
    if (km == nullptr) {
      return Violation(step, std::string(where) + " read of " + key_str +
                                 " returned \"" + v +
                                 "\" but the key was never written");
    }
    // The value must be one this schedule issued on this key, at or after
    // the newest acked step (an older value would be a stale read — the
    // acked write has a higher LSN on the same key and must win).
    uint64_t value_step = 0;
    for (const auto& [s, issued_v] : km->issued) {
      if (issued_v == v) {
        value_step = s;
        break;
      }
    }
    if (value_step == 0) {
      return Violation(step, std::string(where) + " read of " + key_str +
                                 " returned \"" + v +
                                 "\" which was never issued for this key");
    }
    if (value_step < km->last_acked_step) {
      return Violation(
          step, "stale read: " + std::string(where) + " read of " + key_str +
                    " returned \"" + v + "\" (step " +
                    std::to_string(value_step) + ") but step " +
                    std::to_string(km->last_acked_step) + " acked \"" +
                    km->acked_value + "\"");
    }
    return Status::OK();
  }
};

}  // namespace

const char* ChaosEventName(ChaosEvent::Kind kind) {
  switch (kind) {
    case ChaosEvent::Kind::kPut:
      return "put";
    case ChaosEvent::Kind::kRead:
      return "read";
    case ChaosEvent::Kind::kLeaderRead:
      return "leader_read";
    case ChaosEvent::Kind::kPromote:
      return "promote";
    case ChaosEvent::Kind::kZombieResume:
      return "zombie_resume";
    case ChaosEvent::Kind::kFollowerRestart:
      return "follower_restart";
    case ChaosEvent::Kind::kReap:
      return "reap";
  }
  return "unknown";
}

std::vector<ChaosEvent> GenerateChaosSchedule(const ChaosOptions& opts) {
  BG3_CHECK_GT(opts.steps, 0);
  BG3_CHECK_GT(opts.partitions, 0);
  BG3_CHECK_GT(opts.followers_per_partition, 0);
  // Relative step-mix weights, in ChaosEvent::Kind order; keys are drawn
  // from 128 ids.
  constexpr double weights[] = {0.55, 0.22, 0.05, 0.06, 0.05, 0.04, 0.03};
  double total = 0;
  for (double w : weights) total += w;

  Random rng(opts.seed);
  std::vector<ChaosEvent> schedule;
  schedule.reserve(opts.steps);
  for (int i = 0; i < opts.steps; ++i) {
    ChaosEvent ev;
    double draw = rng.NextDouble() * total;
    int kind = 0;
    while (kind < 6 && draw >= weights[kind]) {
      draw -= weights[kind];
      ++kind;
    }
    ev.kind = static_cast<ChaosEvent::Kind>(kind);
    ev.partition = static_cast<int>(rng.Uniform(opts.partitions));
    ev.index = static_cast<int>(rng.Uniform(opts.followers_per_partition));
    ev.key = rng.Uniform(128);
    schedule.push_back(ev);
  }
  return schedule;
}

std::string ChaosReport::ToString() const {
  return "chaos(seed=" + std::to_string(seed) + "): " +
         std::to_string(steps) + " steps, " + std::to_string(puts_acked) +
         " acked / " + std::to_string(puts_rejected) + " rejected puts, " +
         std::to_string(reads) + " reads, " + std::to_string(promotions) +
         " promotions, " + std::to_string(zombie_resumes) +
         " zombie resumes (" + std::to_string(zombie_writes_rejected) +
         " writes rejected), " + std::to_string(follower_restarts) +
         " follower restarts, " + std::to_string(reaps) + " reaps, " +
         std::to_string(verified_keys) + " reads verified, " +
         std::to_string(fenced_appends) + " fenced appends, " +
         std::to_string(zombie_drained) + " records drained, final term " +
         std::to_string(final_term);
}

Result<ChaosReport> RunChaos(const ChaosOptions& opts) {
  // Fresh substrate per run: schedule determinism must not depend on what
  // an earlier run left in a shared store.
  cloud::FaultInjectorOptions fopts;
  fopts.seed = opts.seed ^ 0xFA;
  fopts.transient_error_p = opts.transient_error_p;
  fopts.latency_spike_p = opts.latency_spike_p;
  cloud::FaultInjector injector(fopts);

  cloud::CloudStoreOptions sopts;
  if (opts.transient_error_p > 0) sopts.retry.max_attempts = 6;
  auto store = std::make_unique<cloud::CloudStore>(sopts);
  ClusterOptions copts;
  copts.partitions = opts.partitions;
  copts.followers_per_partition = opts.followers_per_partition;
  copts.leader.tree.max_leaf_entries = 32;
  // Group flushes stay manual: a zombie's Put then never starts a cut, whose
  // fence check could race a promotion's fence (see DESIGN.md §5.10).
  copts.leader.flush_group_pages = 1u << 30;
  copts.leader.flush_group_mutations = 1ull << 40;
  copts.ro.seed = opts.seed + 7;
  // Followers tail eagerly — chaos probes consistency, not poll latency.
  copts.ro.poll_interval_us = 0;
  copts.leader.wal.group_window_us = 0;
  copts.leader.checkpoint.interval_ms = 1;
  Bg3Cluster cluster(store.get(), copts);
  store->SetFaultInjector(&injector);
  cluster.StartCheckpointers();

  Checker checker{opts, {}, {}, 0};
  ChaosReport report;
  report.seed = opts.seed;

  const std::vector<ChaosEvent> schedule = GenerateChaosSchedule(opts);

  auto verify_all = [&](uint64_t step) -> Status {
    for (const auto& [key, km] : checker.model) {
      if (km.issued.empty()) continue;
      BG3_RETURN_IF_ERROR(checker.Check(step, key, cluster.Get(ChaosKey(key)),
                                        "sweep follower"));
      BG3_RETURN_IF_ERROR(checker.Check(
          step, key, cluster.GetFromLeader(ChaosKey(key)), "sweep leader"));
    }
    return Status::OK();
  };

  const bool trace = getenv("BG3_CHAOS_TRACE") != nullptr;
  uint64_t step = 0;
  for (const ChaosEvent& ev : schedule) {
    ++step;
    report.steps = step;
    if (trace) {
      fprintf(stderr, "[chaos %3llu] %s p=%d i=%d key=%llu part(key)=%d\n",
              (unsigned long long)step, ChaosEventName(ev.kind), ev.partition,
              ev.index, (unsigned long long)ev.key,
              cluster.PartitionOf(ChaosKey(ev.key)));
    }
    switch (ev.kind) {
      case ChaosEvent::Kind::kPut: {
        const std::string key = ChaosKey(ev.key);
        const std::string value = LeaderValue(ev.key, step);
        KeyModel& km = checker.model[ev.key];
        km.issued[step] = value;
        // Acknowledged = the call succeeded (a failed WAL append fails it).
        // Anything else stays "issued but unacked": admissible, never
        // required.
        if (cluster.Put(key, value).ok()) {
          km.last_acked_step = step;
          km.acked_value = value;
          ++report.puts_acked;
        } else {
          ++report.puts_rejected;
        }
        break;
      }
      case ChaosEvent::Kind::kRead: {
        ++report.reads;
        BG3_RETURN_IF_ERROR(checker.Check(
            step, ev.key, cluster.Get(ChaosKey(ev.key)), "follower"));
        break;
      }
      case ChaosEvent::Kind::kLeaderRead: {
        ++report.reads;
        BG3_RETURN_IF_ERROR(checker.Check(
            step, ev.key, cluster.GetFromLeader(ChaosKey(ev.key)), "leader"));
        break;
      }
      case ChaosEvent::Kind::kPromote: {
        const Status s = cluster.PromoteFollower(ev.partition, ev.index);
        if (!s.ok()) {
          // With substrate faults underneath, a promotion may lose its I/O
          // (epoch manifest gets, catch-up polls). That is an availability
          // event, not a consistency one: the partition stays fenced until
          // a later promotion lands, and every invariant still holds.
          if (opts.transient_error_p == 0) {
            return checker.Violation(
                step, "promotion of partition " +
                          std::to_string(ev.partition) +
                          " failed: " + s.ToString());
          }
          break;
        }
        ++report.promotions;
        BG3_RETURN_IF_ERROR(verify_all(step));
        break;
      }
      case ChaosEvent::Kind::kZombieResume: {
        RwNode* zombie = cluster.zombie(ev.partition);
        if (zombie == nullptr) break;  // nothing deposed to resurrect
        ++report.zombie_resumes;
        const std::string value = ZombieValue(ev.key, step);
        // Forbidden *before* the attempt: if the write sneaks through
        // anywhere, any later read of it is a violation.
        checker.forbidden.insert(value);
        if (!zombie->Put(ChaosKey(ev.key), value).ok()) {
          ++report.zombie_writes_rejected;
        }
        // Drain: Flush re-kicks parked batches straight into the fence.
        (void)zombie->wal_writer()->Flush();
        if (!zombie->wal_writer()->fenced()) {
          return checker.Violation(
              step, "zombie leader of partition " +
                        std::to_string(ev.partition) +
                        " wrote after promotion without tripping the fence");
        }
        break;
      }
      case ChaosEvent::Kind::kFollowerRestart: {
        const Status s = cluster.RestartFollower(ev.partition, ev.index);
        if (!s.ok() && opts.transient_error_p == 0) {
          return checker.Violation(
              step, "restart of follower " + std::to_string(ev.index) +
                        " of partition " + std::to_string(ev.partition) +
                        " failed: " + s.ToString());
        }
        ++report.follower_restarts;
        break;
      }
      case ChaosEvent::Kind::kReap: {
        if (cluster.zombie(ev.partition) != nullptr) ++report.reaps;
        cluster.ReapZombie(ev.partition);
        break;
      }
    }
  }

  // Final sweep: every key the schedule touched, through both read paths.
  cluster.StopCheckpointers();
  BG3_RETURN_IF_ERROR(verify_all(step));

  report.verified_keys = checker.verified;
  report.fenced_appends = cluster.fenced_appends();
  report.zombie_drained = cluster.zombie_drained();
  for (int p = 0; p < cluster.partitions(); ++p) {
    report.final_term = std::max(report.final_term, cluster.term(p));
  }
  return report;
}

}  // namespace bg3::replication
