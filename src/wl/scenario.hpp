// Scenario registry + runner: named, seed-reproducible workload campaigns.
//
// A Scenario declares tenants (each with its own port, arrival process,
// session shape, size mix and SLO — several services multiplexed onto one
// NEaT host) plus optional adversaries and autoscaling. run_scenario()
// assembles the two-machine testbed, drives the whole thing, and returns
// per-tenant CO-corrected results plus a replica-count timeline, so a bench
// can show the AutoScaler riding a flash crowd and a SYN flood's collateral
// damage as numbers rather than anecdotes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "neat/autoscaler.hpp"
#include "wl/adversary.hpp"
#include "wl/arrival.hpp"
#include "wl/openloop.hpp"
#include "wl/session.hpp"

namespace neat::wl {

struct TenantSpec {
  std::string name{"t0"};
  ArrivalModel arrival{ArrivalModel::poisson(5000.0)};
  SessionModel session{};
  SizeModel sizes{SizeModel::fixed_size(1024)};
  /// Distinct files drawn from `sizes` to populate this tenant's catalog.
  std::size_t catalog_files{4};
  sim::SimTime slo{20 * sim::kMillisecond};
  std::size_t max_in_flight{4096};
};

struct AdversarySpec {
  enum class Kind { kSynFlood, kSlowloris, kChurnStorm };
  Kind kind{Kind::kSynFlood};
  double rate{50'000.0};         ///< SYNs/s or conns/s
  std::size_t connections{128};  ///< slowloris holds this many
  bool request_before_close{true};
  /// Start relative to scenario start; the adversary runs to the end and
  /// aims at the first tenant's port.
  sim::SimTime start_at{100 * sim::kMillisecond};
};

struct Scenario {
  std::string name{"unnamed"};
  std::uint64_t seed{42};
  sim::SimTime warmup{150 * sim::kMillisecond};
  sim::SimTime measure{600 * sim::kMillisecond};
  int replicas{1};
  bool multi_component{false};
  bool tracking_filters{false};
  // --- defenses (ext_defense benches run each scenario with and without) --
  /// SYN cookies: no TCB until the handshake's final ACK validates.
  bool syn_cookies{false};
  /// No NIC tracking filter until the handshake completes (needs
  /// tracking_filters).
  bool defer_syn_filters{false};
  /// Web-server slowloris deadlines (0 = undefended).
  sim::SimTime http_first_byte_deadline{0};
  sim::SimTime http_header_deadline{0};
  /// Override the NIC's FIN-to-reclaim linger (0 = keep the NIC default).
  /// Sub-second scenarios shorten it so filter retirement is observable.
  sim::SimTime fin_retire_linger{0};
  /// Hand the AutoScaler this many spare single-core replica slots.
  bool autoscale{false};
  int spare_replica_slots{2};
  std::vector<TenantSpec> tenants;
  std::vector<AdversarySpec> adversaries;

  // --- fleet topology (fleet_hosts > 0 switches run_scenario() from the
  // --- two-machine testbed to a multi-host cluster behind the maglev
  // --- steering tier; tenants/adversaries above are then unused) ----------
  int fleet_hosts{0};      ///< backend hosts in the steering table
  int fleet_clients{2};    ///< client machines
  int fleet_replicas_per_host{2};
  std::uint64_t fleet_conns{20'000};  ///< total connections, fleet-wide
  int fleet_ports{8};                 ///< VIP ports served by every backend
  /// Power this backend off mid-run (-1 = no crash). The tier's health
  /// prober detects and evicts it; only its connections are lost.
  int fleet_crash_host{-1};
  sim::SimTime fleet_crash_at{0};  ///< relative to scenario start
};

struct TenantResult {
  std::string name;
  std::uint64_t sessions_started{0};
  std::uint64_t sessions_completed{0};
  std::uint64_t sessions_failed{0};
  std::uint64_t sessions_abandoned{0};
  std::uint64_t sessions_shed{0};
  std::uint64_t requests{0};
  std::uint64_t bad_status{0};
  std::uint64_t slo_violations{0};
  double krps{0.0};
  double goodput_mbps{0.0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  double p999_ms{0.0};
  /// Wire-clock p99 (no CO correction) — the flattering number.
  double raw_p99_ms{0.0};
};

struct ScenarioResult {
  std::string name;
  std::vector<TenantResult> tenants;
  /// (time, serving replicas) sampled every 25 ms across warmup+measure.
  std::vector<std::pair<sim::SimTime, std::size_t>> replica_timeline;
  std::size_t max_replicas{0};
  std::size_t end_replicas{0};
  std::uint64_t scale_ups{0};
  std::uint64_t scale_downs{0};
  std::uint64_t lazy_terminations{0};
  std::uint64_t syns_sent{0};
  std::uint64_t churn_conns{0};
  std::uint64_t slowloris_held{0};
  /// Times the server shed a slowloris holder (the adversary reopens, so the
  /// standing population stays at target — sheds measure bounded lifetime).
  std::uint64_t slowloris_shed{0};
  std::uint64_t server_filters_retired{0};
  std::uint64_t server_flow_filters_end{0};
  /// High-water mark of the server NIC flow-filter table (sampled on the
  /// replica timeline) — shows whether a flood can exhaust the table.
  std::uint64_t server_flow_filters_peak{0};
  std::uint64_t server_filter_evictions{0};
  std::uint64_t syn_cookies_sent{0};
  std::uint64_t syn_cookies_accepted{0};
  std::uint64_t syn_cookies_rejected{0};
  /// Connections the web servers closed for overstaying a header deadline.
  std::uint64_t http_deadline_closes{0};
  std::uint64_t migrations{0};

  // --- fleet results (fleet_hosts > 0 runs only) --------------------------
  std::size_t fleet_hosts_up_end{0};  ///< backends in the table at the end
  std::uint64_t fleet_established{0};
  std::uint64_t fleet_responses{0};
  std::uint64_t fleet_lost_conns{0};  ///< client fds closed by reset/failure
  std::uint64_t fleet_requests_served{0};  ///< summed over backend hubs
  std::uint64_t fleet_backends_declared_down{0};
  double fleet_rtt_p50_ms{0.0};  ///< merged across client-host hubs
  double fleet_rtt_p99_ms{0.0};
};

ScenarioResult run_scenario(const Scenario& sc);

/// Built-in scenario library (the bench iterates this).
struct NamedScenario {
  std::string name;
  std::string summary;
  Scenario (*make)(bool quick);
};
[[nodiscard]] const std::vector<NamedScenario>& builtin_scenarios();

}  // namespace neat::wl
