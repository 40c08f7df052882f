// Randomized multi-fault chaos campaigns (the robustness harness).
//
// A ChaosCampaign drives a NeatHost through a deterministic, seeded
// schedule of composite faults — replica crashes, driver crashes, crash
// storms, crashes timed into the TCP handshake window, crashes during lazy
// termination, concurrent driver+replica failures, and transient link
// degradation (loss + reordering + duplication + corruption) — while the
// caller keeps an HTTP workload running over the host. When the schedule
// ends and the supervisor has settled, `audit()` checks the end-of-run
// invariants:
//
//   * supervision completeness — every crash in the recovery log was
//     detected by the watchdog and resolved (restart/quarantine/collect),
//     within the detection-latency bound;
//   * steering consistency — every RSS indirection entry points to a
//     serving, never-terminating, never-quarantined replica whose driver
//     endpoint is live (a replica in lazy termination or quarantine must
//     never re-enter the steering table);
//   * listener replay completeness — every durable listen() record is
//     present on every active replica;
//   * quarantine hygiene — a quarantined replica's processes are all down
//     and it stays out of the serving set.
//
// Client-visible invariants (payload integrity via
// wl::OpenLoopClient::Report::payload_mismatches, no cross-replica
// disturbance) are asserted by the callers, which own the workload.
//
// The campaign layer deliberately depends only on neat_core + nic — not on
// the harness — so any rig can be chaos-tested.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "neat/host.hpp"
#include "nic/nic.hpp"
#include "sim/random.hpp"

namespace neat::fault {

/// One fault kind the scheduler can draw, with its relative weight.
enum class ChaosKind {
  kReplicaCrash,    ///< whole-stack crash of one random active replica
  kComponentCrash,  ///< one component (TCP/IP/UDP/PF) of a multi replica
  kDriverCrash,     ///< NIC driver process crash
  kConcurrent,      ///< driver + replica crash in the same instant
  kCrashStorm,      ///< several replicas crash back-to-back
  kHandshakeCrash,  ///< crash a replica that has handshakes in flight
  kScaleDownCrash,  ///< begin lazy termination, then crash the drainer
  kLinkBlip,        ///< transient link degradation (loss/reorder/dup/...)
};

[[nodiscard]] const char* to_string(ChaosKind k);

struct ChaosConfig {
  std::uint64_t seed{42};
  /// Faults are injected over [start, start + duration).
  sim::SimTime duration{2 * sim::kSecond};
  /// Mean inter-fault gap (exponential inter-arrivals).
  sim::SimTime mean_fault_gap{60 * sim::kMillisecond};
  /// Quiet period after the last fault before the audit runs; must cover
  /// detection + the deepest backoff the campaign can provoke.
  sim::SimTime settle{1 * sim::kSecond};

  /// Relative weights per kind (0 disables a kind).
  double w_replica_crash{4.0};
  double w_component_crash{2.0};
  double w_driver_crash{1.0};
  double w_concurrent{1.0};
  double w_crash_storm{0.5};
  double w_handshake_crash{1.5};
  double w_scale_down_crash{1.0};
  double w_link_blip{2.0};

  /// Replicas hit by one crash storm (clamped to the active set).
  std::size_t storm_size{3};

  /// The degraded profile a link blip applies, and for how long.
  nic::LinkImpairment blip{
      .drop_probability = 0.02,
      .corrupt_probability = 0.005,
      .duplicate_probability = 0.01,
      .reorder_probability = 0.05,
      .reorder_window = 150 * sim::kMicrosecond,
      .jitter = 20 * sim::kMicrosecond,
  };
  sim::SimTime blip_duration{50 * sim::kMillisecond};
};

struct ChaosReport {
  std::size_t faults_injected{0};
  std::size_t replica_crashes{0};
  std::size_t component_crashes{0};
  std::size_t driver_crashes{0};
  std::size_t concurrent_faults{0};
  std::size_t crash_storms{0};
  std::size_t handshake_crashes{0};
  std::size_t scale_down_crashes{0};
  std::size_t link_blips{0};

  /// Invariant violations found by audit(); empty = campaign passed.
  std::vector<std::string> violations;

  [[nodiscard]] bool passed() const { return violations.empty(); }
};

class ChaosCampaign {
 public:
  ChaosCampaign(NeatHost& host, nic::Link& link, ChaosConfig cfg);

  /// Schedule the fault sequence starting now. The caller then runs the
  /// simulation past now + duration + settle and calls audit().
  void start();

  /// Total sim-time the campaign needs from start() until audit-ready.
  [[nodiscard]] sim::SimTime span() const {
    return cfg_.duration + cfg_.settle;
  }

  /// Run the end-of-run invariant checks; appends violations to the
  /// report. Idempotent per call (violations accumulate only once per
  /// distinct failure found at call time).
  const ChaosReport& audit();

  [[nodiscard]] const ChaosReport& report() const { return report_; }
  [[nodiscard]] const ChaosConfig& config() const { return cfg_; }

 private:
  void schedule_next();
  void inject_one();
  [[nodiscard]] ChaosKind draw_kind();
  [[nodiscard]] StackReplica* random_active();

  void do_replica_crash();
  void do_component_crash();
  void do_driver_crash();
  void do_concurrent();
  void do_crash_storm();
  void do_handshake_crash();
  void do_scale_down_crash();
  void do_link_blip();

  NeatHost& host_;
  nic::Link& link_;
  ChaosConfig cfg_;
  sim::Rng rng_;
  ChaosReport report_;
  sim::SimTime end_at_{0};
  bool blip_active_{false};
  nic::LinkImpairment pre_blip_;
};

}  // namespace neat::fault
