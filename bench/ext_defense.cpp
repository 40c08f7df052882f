// Extension: adversary defenses, attacked vs defended.
//
// Three experiments, each the same workload run with the defense off and
// then on:
//
//   1. Spoofed SYN flood vs SYN cookies + deferred filter install. The
//      undefended server burns its accept backlog on half-open TCBs and
//      lets the flood fill the NIC's 8k exact-match filter table; the
//      defended server answers floods statelessly (no TCB, no filter until
//      the cookie-ACK validates) and keeps serving.
//   2. Slowloris vs web-server header deadlines. Undefended, every holder
//      parks on the server for the whole run; defended, a holder lives at
//      most first_byte/header-deadline before it is closed, so the standing
//      holder population stays bounded.
//   3. Live connection migration vs restart-based recovery. Replica-to-
//      replica migration churn under load measures the connection blackout
//      (NIC capture window open -> filters repointed + frames replayed);
//      the comparison run crashes a replica and measures the supervisor's
//      crash-to-first-service latency. Migration should be orders of
//      magnitude quicker — that is why scale-down can drain immediately.
//
// Usage: ext_defense [--quick]
//
// Exit code is non-zero when a defense gate fails: defended SYN-flood
// goodput must be >= 5x the attacked-undefended goodput, slowloris deadline
// closes must fire with the defense on, and the migration p99 blackout must
// beat the restart-recovery p50.
#include <algorithm>
#include <string>

#include "bench_util.hpp"
#include "wl/scenario.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

using wl::AdversarySpec;
using wl::Scenario;
using wl::ScenarioResult;
using wl::TenantSpec;

TenantSpec victim_tenant(double rate) {
  TenantSpec t;
  t.name = "web";
  t.arrival = wl::ArrivalModel::poisson(rate);
  t.session.requests_per_session = 1;
  t.session.abandon_after = 1 * sim::kSecond;
  t.sizes = wl::SizeModel::fixed_size(256);
  t.catalog_files = 1;
  t.slo = 5 * sim::kMillisecond;
  return t;
}

Scenario syn_flood_scenario(bool quick, bool defended) {
  Scenario sc;
  sc.name = defended ? "syn_flood_defended" : "syn_flood_attacked";
  sc.replicas = 2;
  sc.tracking_filters = true;
  sc.fin_retire_linger = 150 * sim::kMillisecond;
  sc.measure = quick ? 300 * sim::kMillisecond : 600 * sim::kMillisecond;
  const double f = quick ? 0.5 : 1.0;
  sc.tenants.push_back(victim_tenant(8000 * f));
  AdversarySpec a;
  a.kind = AdversarySpec::Kind::kSynFlood;
  a.rate = 240000 * f;
  // Start inside warmup so the whole measured window is under attack.
  a.start_at = 100 * sim::kMillisecond;
  sc.adversaries.push_back(a);
  if (defended) {
    sc.syn_cookies = true;
    sc.defer_syn_filters = true;
  }
  return sc;
}

Scenario slowloris_scenario(bool quick, bool defended) {
  Scenario sc;
  sc.name = defended ? "slowloris_defended" : "slowloris_attacked";
  sc.replicas = 2;
  sc.measure = quick ? 300 * sim::kMillisecond : 600 * sim::kMillisecond;
  const double f = quick ? 0.5 : 1.0;
  sc.tenants.push_back(victim_tenant(8000 * f));
  AdversarySpec a;
  a.kind = AdversarySpec::Kind::kSlowloris;
  a.connections = quick ? 128 : 256;
  a.start_at = 200 * sim::kMillisecond;
  sc.adversaries.push_back(a);
  if (defended) {
    sc.http_first_byte_deadline = 30 * sim::kMillisecond;
    sc.http_header_deadline = 50 * sim::kMillisecond;
  }
  return sc;
}

double tenant_goodput(const ScenarioResult& r) {
  return r.tenants.empty() ? 0.0 : r.tenants[0].goodput_mbps;
}

void print_scenario(const ScenarioResult& r) {
  const auto& t = r.tenants[0];
  std::printf(
      "%-22s krps=%7.1f goodput=%7.2fMbps p99=%7.2fms completed=%llu "
      "failed=%llu\n",
      r.name.c_str(), t.krps, t.goodput_mbps, t.p99_ms,
      static_cast<unsigned long long>(t.sessions_completed),
      static_cast<unsigned long long>(t.sessions_failed));
  std::printf(
      "  filters: peak=%llu end=%llu evicted=%llu | cookies: sent=%llu "
      "accepted=%llu rejected=%llu | loris_held=%llu deadline_closes=%llu\n",
      static_cast<unsigned long long>(r.server_flow_filters_peak),
      static_cast<unsigned long long>(r.server_flow_filters_end),
      static_cast<unsigned long long>(r.server_filter_evictions),
      static_cast<unsigned long long>(r.syn_cookies_sent),
      static_cast<unsigned long long>(r.syn_cookies_accepted),
      static_cast<unsigned long long>(r.syn_cookies_rejected),
      static_cast<unsigned long long>(r.slowloris_held),
      static_cast<unsigned long long>(r.http_deadline_closes));
  std::fflush(stdout);
}

void add_scenario_json(JsonWriter& j, const ScenarioResult& r) {
  const std::string p = r.name + ".";
  const auto& t = r.tenants[0];
  j.add(p + "krps", t.krps);
  j.add(p + "goodput_mbps", t.goodput_mbps);
  j.add(p + "p99_ms", t.p99_ms);
  j.add(p + "sessions_completed", t.sessions_completed);
  j.add(p + "sessions_failed", t.sessions_failed);
  j.add(p + "flow_filters_peak", r.server_flow_filters_peak);
  j.add(p + "flow_filters_end", r.server_flow_filters_end);
  j.add(p + "filter_evictions", r.server_filter_evictions);
  j.add(p + "syn_cookies_sent", r.syn_cookies_sent);
  j.add(p + "syn_cookies_accepted", r.syn_cookies_accepted);
  j.add(p + "syn_cookies_rejected", r.syn_cookies_rejected);
  j.add(p + "slowloris_held", r.slowloris_held);
  j.add(p + "slowloris_shed", r.slowloris_shed);
  j.add(p + "deadline_closes", r.http_deadline_closes);
  if (r.syns_sent > 0) j.add(p + "syns_sent", r.syns_sent);
}

struct MigrationResult {
  std::uint64_t migrations{0};
  std::uint64_t conns_moved{0};
  double blackout_p50_us{0.0};
  double blackout_p99_us{0.0};
  std::uint64_t error_conns{0};
  double krps{0.0};
};

/// Migration churn under live load: ping-pong every established connection
/// between two replicas and record the blackout each pass costs.
MigrationResult run_migration_churn(bool quick) {
  MigrationResult out;
  Testbed::Config cfg;
  cfg.seed = 3434;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  so.tracking_filters = true;  // migration repoints exact-match filters
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 4;
  co.concurrency_per_gen = 16;
  co.requests_per_conn = 1000;  // long-lived connections worth moving
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);

  tb.sim.run_for(kWarmup);
  client.mark();
  std::uint64_t errors_before = 0;
  for (auto& g : client.gens) errors_before += g->report().error_conns;

  const int rounds = quick ? 6 : 12;
  std::uint64_t moved = 0;
  for (int i = 0; i < rounds; ++i) {
    auto& from = server.neat->replica(static_cast<std::size_t>(i % 2));
    auto& to = server.neat->replica(static_cast<std::size_t>((i + 1) % 2));
    server.neat->migrate_connections(from, to,
                                     [&moved](std::size_t n) { moved += n; });
    tb.sim.run_for(50 * sim::kMillisecond);
  }
  const auto agg = client.aggregate(
      static_cast<sim::SimTime>(rounds) * 50 * sim::kMillisecond);

  std::uint64_t errors_after = 0;
  for (auto& g : client.gens) errors_after += g->report().error_conns;
  out.error_conns = errors_after - errors_before;
  out.conns_moved = moved;
  out.krps = agg.krps;
  if (const auto* c = tb.sim.metrics().find_counter("neat.migrations")) {
    out.migrations = c->value();
  }
  if (const auto* h =
          tb.sim.metrics().find_histogram("neat.migration_blackout_ns")) {
    out.blackout_p50_us = static_cast<double>(h->quantile(0.50)) / 1e3;
    out.blackout_p99_us = static_cast<double>(h->quantile(0.99)) / 1e3;
  }
  return out;
}

/// The comparison point: checkpointed restart recovery. Crash a replica,
/// let the supervisor detect + restart it, and read the crash-to-first-
/// service histogram the host records.
double run_restart_recovery_p50_us(bool quick) {
  Testbed::Config cfg;
  cfg.seed = 3535;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  so.tracking_filters = true;
  so.host.checkpoint_interval = 5 * sim::kMillisecond;  // stateful recovery
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 4;
  co.concurrency_per_gen = 16;
  co.requests_per_conn = 100;
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);

  tb.sim.run_for(kWarmup);
  const int crashes = quick ? 2 : 4;
  for (int i = 0; i < crashes; ++i) {
    server.neat->inject_crash(
        server.neat->replica(static_cast<std::size_t>(i % 2)),
        Component::kWhole);
    tb.sim.run_for(300 * sim::kMillisecond);
  }
  const auto* h =
      tb.sim.metrics().find_histogram("recovery.crash_to_first_service_ns");
  return h != nullptr ? static_cast<double>(h->quantile(0.50)) / 1e3 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  header("Extension: adversary defenses — SYN cookies, filter eviction, "
         "header deadlines, live migration");
  JsonWriter json;
  Gates gates;

  // --- 1. SYN flood -------------------------------------------------------
  std::printf("\n[1/3] spoofed SYN flood, attacked vs defended\n");
  const ScenarioResult syn_att =
      wl::run_scenario(syn_flood_scenario(quick, false));
  print_scenario(syn_att);
  const ScenarioResult syn_def =
      wl::run_scenario(syn_flood_scenario(quick, true));
  print_scenario(syn_def);
  const double att_goodput = std::max(tenant_goodput(syn_att), 1e-9);
  const double syn_ratio = tenant_goodput(syn_def) / att_goodput;
  gates.check("syn_flood.goodput_ratio", syn_ratio, ">=", 5.0);
  // A spoofed flood must not exhaust the 8k filter table when install is
  // deferred to handshake completion.
  gates.check("syn_flood_defended.flow_filters_peak",
              syn_def.server_flow_filters_peak, "<", 8192);
  add_scenario_json(json, syn_att);
  add_scenario_json(json, syn_def);
  json.add("syn_flood.goodput_ratio", syn_ratio);

  // --- 2. slowloris -------------------------------------------------------
  std::printf("\n[2/3] slowloris, attacked vs defended\n");
  const ScenarioResult lor_att =
      wl::run_scenario(slowloris_scenario(quick, false));
  print_scenario(lor_att);
  const ScenarioResult lor_def =
      wl::run_scenario(slowloris_scenario(quick, true));
  print_scenario(lor_def);
  // The adversary reopens every holder the server sheds, so the standing
  // population stays at target in both runs. The defense signal is bounded
  // holder lifetime: the defended server sheds holders (deadline closes /
  // adversary conns_lost), the undefended one never does.
  std::printf(
      "=> shed holders: attacked=%llu defended=%llu, deadline closes=%llu "
      "(holders=%llu)\n",
      static_cast<unsigned long long>(lor_att.slowloris_shed),
      static_cast<unsigned long long>(lor_def.slowloris_shed),
      static_cast<unsigned long long>(lor_def.http_deadline_closes),
      static_cast<unsigned long long>(lor_def.slowloris_held));
  gates.check("slowloris_defended.deadline_closes",
              lor_def.http_deadline_closes, ">", 0);
  gates.check("slowloris_defended.slowloris_shed", lor_def.slowloris_shed,
              ">", 0);
  gates.check("slowloris_attacked.slowloris_shed", lor_att.slowloris_shed,
              "<=", 0);
  add_scenario_json(json, lor_att);
  add_scenario_json(json, lor_def);

  // --- 3. migration -------------------------------------------------------
  std::printf("\n[3/3] live migration blackout vs restart recovery\n");
  const MigrationResult mig = run_migration_churn(quick);
  const double restart_p50_us = run_restart_recovery_p50_us(quick);
  std::printf(
      "migrations=%llu conns_moved=%llu blackout p50=%.1fus p99=%.1fus | "
      "errors=%llu krps=%.1f\n",
      static_cast<unsigned long long>(mig.migrations),
      static_cast<unsigned long long>(mig.conns_moved),
      mig.blackout_p50_us, mig.blackout_p99_us,
      static_cast<unsigned long long>(mig.error_conns), mig.krps);
  std::printf("restart recovery crash-to-first-service p50=%.1fus\n",
              restart_p50_us);
  std::printf("=> migration p99 blackout vs restart p50: %.1fus vs %.1fus\n",
              mig.blackout_p99_us, restart_p50_us);
  gates.check("migration.count", mig.migrations, ">", 0);
  gates.check("migration.conns_moved", mig.conns_moved, ">", 0);
  gates.check("migration.blackout_p99_us", mig.blackout_p99_us, ">", 0);
  gates.check("restart.first_service_p50_us", restart_p50_us, ">", 0);
  gates.check("migration.blackout_p99_us_vs_restart_p50", mig.blackout_p99_us,
              "<", restart_p50_us);
  gates.check("migration.error_conns", mig.error_conns, "<=", 0);
  json.add("migration.count", mig.migrations);
  json.add("migration.conns_moved", mig.conns_moved);
  json.add("migration.blackout_p50_us", mig.blackout_p50_us);
  json.add("migration.blackout_p99_us", mig.blackout_p99_us);
  json.add("migration.error_conns", mig.error_conns);
  json.add("migration.krps", mig.krps);
  json.add("restart.first_service_p50_us", restart_p50_us);

  json.add("quick", quick);
  json.add(gates);
  json.write("ext_defense");
  return gates.exit_code();
}
