// Extension bench: the fleet layer's headline experiment.
//
// A cluster of NEaT hosts serves one VIP behind the maglev steering tier
// while client machines hold a million-plus concurrent connections across
// it. The experiment runs TWICE with the same seed: once undisturbed, once
// with a backend host powered off mid-measurement. The tier's ICMP prober
// detects the silence, evicts the host, and the maglev remap plus the
// conntrack pins confine the damage to exactly the crashed host's flows —
// which the gates check numerically:
//
//   * >= the target connection count concurrently established fleet-wide
//     (1M+ across 8 backends in full mode);
//   * the crashed host serves ~nothing after the crash;
//   * every SURVIVING host's measure-window delivered-request count and
//     per-host p99 RTT stay within 5% of the same-seed no-crash run.
//
// Per-host and fleet-merged percentiles (obs_merge fold over the per-host
// hubs) go to BENCH_ext_fleet.json; the exit code reflects the gates.
// So does fleet_bytes_per_conn, the host memory one connection costs (RSS
// growth over run A's ramp per established connection), which a full run
// bounds at 1.20x the committed value.
//
// Usage: ext_fleet [--quick] [--trace-out=FILE]
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fleet/app.hpp"
#include "fleet/cluster.hpp"
#include "fleet/obs_merge.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

struct Params {
  std::uint64_t seed{2026};
  int backends{8};
  int clients{4};
  int replicas_per_backend{3};
  int replicas_per_client{4};
  std::uint64_t total_conns{1'050'000};
  std::uint64_t conns_gate{1'000'000};
  int ports{64};
  std::uint64_t sample_every{128};
  sim::SimTime ping_interval{20 * sim::kMillisecond};
  std::uint64_t ramp_batch{1024};
  sim::SimTime ramp_interval{500 * sim::kMicrosecond};
  /// The self-pacing ramp establishes ~850k conns/s fleet-wide; 1M+ needs
  /// ~1.3s of warmup before the measure window opens on a settled fleet.
  sim::SimTime warmup{1800 * sim::kMillisecond};
  sim::SimTime measure{500 * sim::kMillisecond};
  sim::SimTime crash_after{150 * sim::kMillisecond};  // into the measure
  std::size_t victim{0};
};

struct HostOut {
  std::uint64_t conns{0};             ///< established at measure start
  std::uint64_t window_responses{0};  ///< delivered in the measure window
  double p50_ms{0.0};
  double p99_ms{0.0};
};

struct RunOut {
  std::uint64_t established{0};
  std::uint64_t attempted{0};
  std::uint64_t connect_failures{0};
  std::uint64_t window_responses{0};
  std::uint64_t responses_total{0};
  std::uint64_t requests_served{0};
  std::uint64_t lost_conns{0};
  std::uint64_t retries{0};
  std::uint64_t declared_down{0};
  std::uint64_t victim_post_crash{0};
  std::size_t hosts_up_end{0};
  double fleet_p50_ms{0.0};
  double fleet_p99_ms{0.0};
  std::map<int, HostOut> hosts;
  double wall_s{0.0};
  /// Resident-set growth over the ramp per established connection (both
  /// ends: client and server sockets live in this one process).
  double bytes_per_conn{0.0};
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

RunOut run_fleet(const Params& p, bool crash, const std::string& trace_out) {
  const auto wall0 = std::chrono::steady_clock::now();

  fleet::FleetConfig fc;
  fc.seed = p.seed;
  fc.backends = p.backends;
  fc.clients = p.clients;
  fc.replicas_per_backend = p.replicas_per_backend;
  fc.replicas_per_client = p.replicas_per_client;
  fleet::FleetCluster fleet(fc);
  enable_trace(fleet.sim, trace_out);

  std::vector<std::uint16_t> ports;
  for (int i = 0; i < p.ports; ++i) {
    ports.push_back(static_cast<std::uint16_t>(8000 + i));
  }

  std::vector<std::unique_ptr<fleet::PingServer>> servers;
  for (std::size_t i = 0; i < fleet.backend_count(); ++i) {
    fleet::FleetHost& b = fleet.backend(i);
    auto s = std::make_unique<fleet::PingServer>(
        fleet.sim, "ping" + std::to_string(b.id), *b.host, b.id);
    s->pin(b.app_thread());
    s->start(ports);
    servers.push_back(std::move(s));
  }
  fleet.set_adoption_handler(
      [&servers](fleet::FleetHost& to, StackReplica& rep,
                 const std::vector<net::TcpSocketPtr>& adopted) {
        servers[static_cast<std::size_t>(to.id)]->adopt(rep, adopted);
      });

  std::vector<std::unique_ptr<fleet::FleetClient>> clients;
  for (std::size_t j = 0; j < fleet.client_count(); ++j) {
    fleet::FleetClient::Config cc;
    cc.vip = fleet.config().steering.vip;
    cc.ports = ports;
    cc.total_conns = p.total_conns / fleet.client_count();
    cc.ramp_batch = p.ramp_batch;
    cc.ramp_interval = p.ramp_interval;
    cc.sample_every = p.sample_every;
    cc.ping_interval = p.ping_interval;
    fleet::FleetHost& c = fleet.client(j);
    auto cl = std::make_unique<fleet::FleetClient>(
        fleet.sim, "cli" + std::to_string(j), *c.host, std::move(cc));
    cl->pin(c.app_thread());
    clients.push_back(std::move(cl));
  }

  fleet.start_health_probing();
  const std::uint64_t rss_before_ramp = current_rss_bytes();
  for (auto& c : clients) c->start();
  fleet.sim.run_for(p.warmup);
  const std::uint64_t rss_after_ramp = current_rss_bytes();

  RunOut out;
  for (std::size_t i = 0; i < fleet.backend_count(); ++i) {
    const auto n = static_cast<std::uint64_t>(fleet.backend_connections(i));
    out.established += n;
    out.hosts[fleet.backend(i).id].conns = n;
  }
  if (out.established > 0 && rss_after_ramp > rss_before_ramp) {
    const auto grown = static_cast<double>(rss_after_ramp - rss_before_ramp);
    out.bytes_per_conn = grown / static_cast<double>(out.established);
  }
  for (auto& c : clients) c->mark();

  if (crash) {
    fleet.sim.run_for(p.crash_after);
    fleet.crash_host(p.victim);
    std::uint64_t victim_at_crash = 0;
    for (const auto& c : clients) {
      const auto& per = c->app_stats().per_host_responses;
      if (auto it = per.find(static_cast<int>(p.victim)); it != per.end()) {
        victim_at_crash += it->second;
      }
    }
    fleet.sim.run_for(p.measure - p.crash_after);
    std::uint64_t victim_at_end = 0;
    for (const auto& c : clients) {
      const auto& per = c->app_stats().per_host_responses;
      if (auto it = per.find(static_cast<int>(p.victim)); it != per.end()) {
        victim_at_end += it->second;
      }
    }
    out.victim_post_crash = victim_at_end - victim_at_crash;
  } else {
    fleet.sim.run_for(p.measure);
  }

  std::vector<const obs::Hub*> client_hubs;
  for (std::size_t j = 0; j < fleet.client_count(); ++j) {
    client_hubs.push_back(fleet.client(j).hub.get());
  }
  for (const auto& c : clients) {
    const auto& st = c->app_stats();
    out.attempted += st.attempted;
    out.connect_failures += st.connect_failures;
    out.responses_total += st.responses;
    out.lost_conns += st.closed_reset;
    out.retries += st.retries;
    for (const auto& [id, n] : c->window_responses()) {
      out.hosts[id].window_responses += n;
      out.window_responses += n;
    }
  }
  for (const auto& s : servers) out.requests_served += s->app_stats().requests;
  for (auto& [id, h] : out.hosts) {
    const obs::Histogram rtt = fleet::merged_histogram(
        client_hubs, "fleet.rtt.host" + std::to_string(id) + "_ns");
    h.p50_ms = ms(rtt.quantile(0.5));
    h.p99_ms = ms(rtt.quantile(0.99));
  }
  const obs::Histogram rtt = fleet::merged_histogram(client_hubs, "fleet.rtt_ns");
  out.fleet_p50_ms = ms(rtt.quantile(0.5));
  out.fleet_p99_ms = ms(rtt.quantile(0.99));
  out.declared_down = fleet.steering().stats().backends_declared_down;
  for (int i = 0; i < p.backends; ++i) {
    if (fleet.steering().has_backend(i)) ++out.hosts_up_end;
  }
  write_trace(fleet.sim, trace_out);
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall0)
                   .count();
  return out;
}

void add_run(JsonWriter& j, const std::string& prefix, const RunOut& r) {
  j.add(prefix + "established", r.established);
  j.add(prefix + "attempted", r.attempted);
  j.add(prefix + "connect_failures", r.connect_failures);
  j.add(prefix + "window_responses", r.window_responses);
  j.add(prefix + "responses_total", r.responses_total);
  j.add(prefix + "requests_served", r.requests_served);
  j.add(prefix + "lost_conns", r.lost_conns);
  j.add(prefix + "retries", r.retries);
  j.add(prefix + "declared_down", r.declared_down);
  j.add(prefix + "hosts_up_end", static_cast<std::uint64_t>(r.hosts_up_end));
  j.add(prefix + "rtt_p50_ms", r.fleet_p50_ms);
  j.add(prefix + "rtt_p99_ms", r.fleet_p99_ms);
  j.add(prefix + "wall_s", r.wall_s);
  for (const auto& [id, h] : r.hosts) {
    const std::string hp = prefix + "host" + std::to_string(id) + "_";
    j.add(hp + "conns", h.conns);
    j.add(hp + "window_responses", h.window_responses);
    j.add(hp + "rtt_p50_ms", h.p50_ms);
    j.add(hp + "rtt_p99_ms", h.p99_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::string trace = trace_out_arg(argc, argv);

  Params p;
  if (quick) {
    p.backends = 4;
    p.clients = 2;
    p.replicas_per_backend = 2;
    p.replicas_per_client = 2;
    p.total_conns = 20'000;
    p.conns_gate = 19'000;
    p.ports = 8;
    p.sample_every = 16;
    p.ping_interval = 10 * sim::kMillisecond;
    p.ramp_batch = 512;
    p.ramp_interval = 1 * sim::kMillisecond;
    p.warmup = 250 * sim::kMillisecond;
    p.measure = 400 * sim::kMillisecond;
    p.crash_after = 100 * sim::kMillisecond;
  }

  header(quick ? "Fleet: cluster crash isolation (quick)"
               : "Fleet: 1M+ connections, 8 hosts, mid-run host crash");
  std::printf("backends=%d clients=%d conns=%llu ports=%d (seed %llu)\n",
              p.backends, p.clients,
              static_cast<unsigned long long>(p.total_conns), p.ports,
              static_cast<unsigned long long>(p.seed));

  std::printf("\n-- run A: undisturbed --\n");
  const RunOut base = run_fleet(p, /*crash=*/false, "");
  std::printf("established %llu, window responses %llu, fleet p50/p99 "
              "%.3f/%.3f ms (%.1fs wall, %.0f B/conn over the ramp)\n",
              static_cast<unsigned long long>(base.established),
              static_cast<unsigned long long>(base.window_responses),
              base.fleet_p50_ms, base.fleet_p99_ms, base.wall_s,
              base.bytes_per_conn);

  std::printf("\n-- run B: same seed, host %d powered off mid-measure --\n",
              static_cast<int>(p.victim));
  const RunOut dead = run_fleet(p, /*crash=*/true, trace);
  std::printf("established %llu, declared down %llu, hosts up %zu, victim "
              "post-crash responses %llu (%.1fs wall)\n",
              static_cast<unsigned long long>(dead.established),
              static_cast<unsigned long long>(dead.declared_down),
              dead.hosts_up_end,
              static_cast<unsigned long long>(dead.victim_post_crash),
              dead.wall_s);

  // ---- gates --------------------------------------------------------------
  std::printf("\n");
  Gates gates;
  gates.check("nocrash_established", base.established, ">=", p.conns_gate);
  gates.check("crash_established", dead.established, ">=", p.conns_gate);
  gates.check("backends", p.backends, ">=", quick ? 4 : 8);
  // The prober declares exactly the crashed host down and evicts it.
  gates.within("crash_declared_down", dead.declared_down, 1, 0, 0);
  gates.within("crash_hosts_up_end", dead.hosts_up_end, p.backends - 1, 0, 0);
  // The crashed host must be silent after the crash (a handful of frames
  // already in flight may still land).
  gates.check("crash_victim_post_crash", dead.victim_post_crash, "<=", 64);
  // Blast radius: every surviving host's delivered count and p99 within 5%
  // of the same-seed undisturbed run (a host missing from the crash run
  // reads as zero and fails).
  for (const auto& [id, b] : base.hosts) {
    if (id == static_cast<int>(p.victim)) continue;
    const auto it = dead.hosts.find(id);
    const HostOut d = it != dead.hosts.end() ? it->second : HostOut{};
    const std::string hp = "host" + std::to_string(id) + "_";
    gates.within(hp + "window_responses", d.window_responses,
                 b.window_responses, 0.05, 16);
    gates.within(hp + "rtt_p99_ms", d.p99_ms, b.p99_ms, 0.05, 0.02);
  }
  // Memory guard: what one connection costs the host (both ends live in
  // this process). A >20% rise over the committed full-length value means
  // per-connection state grew back (DESIGN.md §5n).
  if (!quick) {
    gates.check("fleet_bytes_per_conn", base.bytes_per_conn, "<=",
                committed("ext_fleet", "fleet_bytes_per_conn").scaled(1.20));
  }

  JsonWriter json;
  json.add("quick", quick);
  json.add("seed", p.seed);
  json.add("backends", p.backends);
  json.add("clients", p.clients);
  json.add("replicas_per_backend", p.replicas_per_backend);
  json.add("ports", p.ports);
  json.add("conns_target", p.total_conns);
  json.add("victim", static_cast<int>(p.victim));
  add_run(json, "nocrash_", base);
  add_run(json, "crash_", dead);
  // Host-side memory: taken from run A, the first in this process — run B
  // reuses memory the allocator kept from run A, so its growth undercounts.
  json.add("fleet_bytes_per_conn", base.bytes_per_conn);
  json.add(gates);
  // Written in quick mode too (the "quick" flag marks it): CI uploads the
  // sidecar as its auditable crash-isolation artifact.
  json.write("ext_fleet");
  return gates.exit_code();
}
