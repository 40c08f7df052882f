#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "apps/http.hpp"
#include "calib.hpp"
#include "fleet/app.hpp"
#include "fleet/cluster.hpp"
#include "fleet/obs_merge.hpp"
#include "harness/testbed.hpp"
#include "ledger.hpp"
#include "socklib/socklib.hpp"
#include "wl/openloop.hpp"

namespace neat::perfbench {

namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ns_to_ms(double ns) { return ns / 1e6; }

/// Latency summary shared by every workload: interpolated p50/p99 of the
/// measure window, the sample count and the support of the p99. The
/// percentile rule: at least 10 samples must rank beyond the p99.
void add_latency(Result& r, const obs::Histogram& lat) {
  r.sim.emplace_back("p50_ms", ns_to_ms(interp_quantile(lat, 0.50)));
  r.sim.emplace_back("p99_ms", ns_to_ms(interp_quantile(lat, 0.99)));
  r.sim.emplace_back("latency_samples", static_cast<double>(lat.count()));
  const std::uint64_t beyond = samples_beyond(lat, 0.99);
  r.sim.emplace_back("samples_beyond_p99", static_cast<double>(beyond));
  r.check("p99_has_10_samples_beyond", beyond >= 10,
          std::to_string(beyond) + " of " + std::to_string(lat.count()));
}

void add_outcome(Result& r, double attempted, double failed) {
  r.sim.emplace_back("attempted", attempted);
  r.sim.emplace_back("failed", failed);
  r.sim.emplace_back("error_frac", ratio(failed, attempted));
}

/// Build the workload once, timed, after one calibration unit. A repetition
/// is a fresh process, so this is the cold set-up a user pays: a second
/// build in the same process reuses the allocator's already-faulted pages
/// and runs several times faster.
template <typename Build>
auto timed_setup(Build build, CalibrationKernel& kernel, Result& r) {
  r.setup_calib_s = kernel.time_unit();
  const auto t0 = Clock::now();
  auto rig = build();
  r.setup_s = seconds_since(t0);
  return rig;
}

/// Advance `sim` by `span` in slices of one simulated millisecond. Each
/// slice's host time and frame count are recorded, followed by one timed
/// unit of the calibration kernel, so run.py can scale every slice's frame
/// rate by the machine's speed at that moment. Slicing only moves
/// run_until() horizons: simulated results are unchanged (the fig9
/// cross-check holds digit for digit), though the engine's fused-completion
/// count depends on where the horizons fall.
template <typename Frames>
void run_sliced(sim::Simulator& sim, sim::SimTime span, Frames frames,
                CalibrationKernel& kernel, Result& r) {
  constexpr sim::SimTime kSlice = sim::kMillisecond;
  while (span > 0) {
    const sim::SimTime step = std::min(span, kSlice);
    const std::uint64_t f0 = frames();
    const auto t0 = Clock::now();
    sim.run_for(step);
    const double secs = seconds_since(t0);
    r.run_s += secs;
    r.slice_s.push_back(secs);
    r.slice_frames.push_back(static_cast<double>(frames() - f0));
    r.slice_calib_s.push_back(kernel.time_unit());
    span -= step;
  }
}

// ---------------------------------------------------------------------------
// Web workloads: the paper's fig9 server under three client shapes.
// ---------------------------------------------------------------------------

constexpr int kWebs = 8;
constexpr int kReplicas = 2;

struct WebShape {
  bool open_loop{false};
  std::size_t file_bytes{20};
  // Closed loop (apps::LoadGen via build_client).
  int generators{12};
  std::size_t conns_per_gen{24};
  int requests_per_conn{100};
  // Open loop (wl::OpenLoopClient per web port): total sessions/s.
  double session_rate{0.0};
  bool tso{true};
  bool tracking_filters{false};
  sim::SimTime fin_retire_linger{0};
  sim::SimTime warmup{200 * sim::kMillisecond};
  sim::SimTime measure{300 * sim::kMillisecond};
};

WebShape web_shape(const std::string& name) {
  WebShape s;
  if (name == "fig9_keepalive") return s;  // ext_perf's fig9 configuration
  if (name == "bulk_keepalive") {
    s.file_bytes = 32 * 1024;
    s.generators = 8;
    s.conns_per_gen = 2;
    // Short keep-alive trains re-draw each connection's RSS replica often,
    // so the seed moves krps and the percentiles by a few % at most.
    s.requests_per_conn = 20;
    s.measure = 600 * sim::kMillisecond;
    // Segments of one MSS each: the NIC would otherwise carry one TSO
    // super-frame per response and hide the per-segment work.
    s.tso = false;
    return s;
  }
  // conn_churn
  s.open_loop = true;
  s.session_rate = 40'000.0;
  s.tracking_filters = true;
  s.fin_retire_linger = 50 * sim::kMillisecond;
  return s;
}

/// One web testbed and its rigs, destroyed in reverse member order (open
/// clients, client rig, server rig, then the testbed).
struct WebRig {
  std::unique_ptr<harness::Testbed> tb;
  harness::ServerRig server;
  harness::ClientRig client;
  std::vector<std::unique_ptr<wl::OpenLoopClient>> open;
};

/// "/file20" for the 20-byte workloads: the request bytes then match
/// ext_perf's fig9 run exactly (the paper cross-check depends on it).
std::string web_path(const WebShape& s) {
  return "/file" + std::to_string(s.file_bytes);
}

std::unique_ptr<WebRig> build_web(const Options& opt, const WebShape& s) {
  using namespace harness;
  const std::string path = web_path(s);
  auto w = std::make_unique<WebRig>();
  Testbed::Config cfg;
  cfg.seed = opt.seed;
  cfg.server_machine = sim::intel_xeon_e5520();
  cfg.server_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
  cfg.client_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
  w->tb = std::make_unique<Testbed>(cfg);
  Testbed& tb = *w->tb;

  NeatServerOptions so;
  so.multi_component = true;
  so.replicas = kReplicas;
  so.webs = kWebs;
  so.files = {{path, s.file_bytes}};
  so.placement = xeon_placement(true, kReplicas, kWebs, /*ht=*/true);
  so.tracking_filters = s.tracking_filters;
  so.host.tcp.tso = s.tso;
  w->server = build_neat_server(tb, so);
  if (s.fin_retire_linger > 0) {
    tb.server_nic.set_fin_retire_linger(s.fin_retire_linger);
  }

  ClientOptions co;
  co.generators = s.open_loop ? 0 : s.generators;
  co.concurrency_per_gen = s.conns_per_gen;
  co.requests_per_conn = s.requests_per_conn;
  co.path = path;
  co.tcp.tso = s.tso;
  w->client = build_client(tb, co, kWebs);
  const std::vector<std::uint8_t>* body = w->server.files->lookup(path);
  for (auto& g : w->client.gens) g->config().expect_body = body;

  if (s.open_loop) {
    auto& cm = tb.client_machine;
    const int first_core = 3 + co.stack_replicas;
    for (int i = 0; i < kWebs; ++i) {
      wl::OpenLoopClient::Config oc;
      oc.tenant = "c";
      oc.tenant += std::to_string(i);
      oc.server = net::SockAddr{kServerIp,
                                static_cast<std::uint16_t>(kBasePort + i)};
      oc.arrival = wl::ArrivalModel::poisson(s.session_rate / kWebs);
      oc.session.requests_per_session = 1;
      oc.catalog = {path};
      auto cl = std::make_unique<wl::OpenLoopClient>(tb.sim, "open" + oc.tenant,
                                                     oc);
      cl->pin(cm.thread(first_core + i));
      cl->attach_api(std::make_unique<socklib::SockLib>(*cl, *w->client.host));
      w->open.push_back(std::move(cl));
    }
  }
  prepopulate_arp(w->server, w->client);
  for (auto& c : w->open) c->start();
  return w;
}

/// Build, run and read one web testbed. The rig dies when this returns; the
/// replays that follow in run_web work on the capture alone.
void web_once(const Options& opt, const WebShape& s, Result& r, Capture& cap,
              ReplayTarget& t) {
  using namespace harness;
  const std::string path = web_path(s);
  const sim::SimTime warmup = s.warmup;
  const sim::SimTime measure = s.measure;
  CalibrationKernel kernel;
  const std::unique_ptr<WebRig> rig =
      timed_setup([&] { return build_web(opt, s); }, kernel, r);
  Testbed& tb = *rig->tb;
  ServerRig& server = rig->server;
  ClientRig& client = rig->client;
  const auto& open = rig->open;
  const std::vector<std::uint8_t>* body = server.files->lookup(path);

  if (opt.trace) {
    tb.link.set_tap([&cap, srv = &tb.server_nic](const nic::Nic& from,
                                                 const net::Packet& f) {
      cap.add(f.bytes(), &from != srv);
    });
  }

  // harness::run_window's sequence (warm up, mark, measure, aggregate),
  // run in timed slices.
  const auto frames = [&tb] { return tb.link.frames_delivered(); };
  const double cpu0 = cpu_seconds();
  const auto loop0 = Clock::now();
  run_sliced(tb.sim, warmup, frames, kernel, r);
  for (auto& c : open) c->mark();
  client.mark();
  run_sliced(tb.sim, measure, frames, kernel, r);
  r.loop_s = seconds_since(loop0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.frames = frames();
  const ClientRig::Aggregate rr = client.aggregate(measure);

  // --- simulated results ---------------------------------------------------
  const double window_s = sim::to_seconds(measure);
  std::uint64_t completed = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t bad_status = 0;
  double attempted = 0;
  double failed = 0;
  double co_gap_ms = 0;
  std::uint64_t shed = 0;
  obs::Histogram lat;
  if (s.open_loop) {
    obs::Histogram raw;
    for (const auto& c : open) {
      const auto& rep = c->report();
      lat.merge(rep.latency);
      raw.merge(rep.raw_latency);
      completed += rep.requests_completed;
      body_bytes += rep.bytes_received;
      bad_status += rep.bad_status;
      shed += rep.sessions_shed;
      attempted +=
          static_cast<double>(rep.sessions_started + rep.sessions_shed);
      failed += static_cast<double>(rep.sessions_failed +
                                    rep.sessions_abandoned + rep.sessions_shed +
                                    rep.bad_status);
    }
    co_gap_ms =
        ns_to_ms(interp_quantile(lat, 0.99) - interp_quantile(raw, 0.99));
  } else {
    std::uint64_t mismatches = 0;
    for (const auto& g : client.gens) {
      const auto& rep = g->report();
      lat.merge(rep.latency);
      completed += rep.committed_requests;
      body_bytes += rep.committed_bytes;
      bad_status += rep.bad_status;
      mismatches += rep.payload_mismatches;
      failed += static_cast<double>(rep.error_conns + rep.bad_status);
    }
    attempted = static_cast<double>(completed) + failed;
    r.check("payload_matches_file", mismatches == 0,
            std::to_string(mismatches) + " mismatched body bytes");
    // ext_perf's keys for the paper cross-check (bucket-edge quantiles,
    // exactly as harness::run_window reports them).
    r.sim.emplace_back("xcheck_requests", static_cast<double>(rr.requests));
    r.sim.emplace_back("xcheck_krps", rr.krps);
    r.sim.emplace_back("xcheck_p99_ms", rr.p99_latency_ms);
  }
  r.sim.emplace_back("krps",
                     ratio(static_cast<double>(completed), window_s) / 1e3);
  r.sim.emplace_back("requests", static_cast<double>(completed));
  add_latency(r, lat);
  add_outcome(r, attempted, failed);
  r.check("http_status_200", bad_status == 0,
          std::to_string(bad_status) + " non-200 responses");
  r.check("body_bytes_eq_requests_x_file",
          body_bytes == completed * s.file_bytes,
          std::to_string(body_bytes) + " body bytes for " +
              std::to_string(completed) + " requests of " +
              std::to_string(s.file_bytes) + " B");
  r.check("requests_completed", completed > 0, std::to_string(completed));

  // --- per-layer ledger (counters) -----------------------------------------
  LayerInputs in;
  in.sim = &tb.sim;
  in.hubs = {&tb.sim.obs()};
  in.server_nics = {&tb.server_nic};
  in.server_hosts = {server.neat.get()};
  for (const auto& w : server.webs) in.apps.push_back(w.get());
  in.pool = &tb.pool;
  in.requests = static_cast<double>(server.total_requests());
  in.frames = r.frames;
  layer_counts(in, r);
  r.counts.emplace_back("wl.co_gap_p99_ms", co_gap_ms);
  r.counts.emplace_back("wl.sessions_shed", static_cast<double>(shed));

  if (!opt.trace) return;

  t.nic_params = tb.server_nic.params();
  t.mac = tb.server_nic.mac();
  t.ip = tb.server_nic.ip();
  for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
    t.queues.push_back(server.neat->replica(i).queue());
  }
  t.tcp.requests_per_conn = s.open_loop ? 1 : s.requests_per_conn;
  t.tcp.request_bytes = apps::build_request(path).size();
  t.tcp.response_bytes = apps::build_response(200, *body).size();
  t.tcp.tso = s.tso;
  for (const auto& [name, v] : r.counts) {
    if (name == "ipc.batch_mean") t.ipc_batch = v;
  }
  t.http = true;
  t.http_base_port = kBasePort;
  t.http_ports = kWebs;
}

Result run_web(const Options& opt, const WebShape& s) {
  Result r;
  Capture cap;
  ReplayTarget t;
  web_once(opt, s, r, cap, t);
  if (opt.trace) replay_layers(cap, t, r);
  return r;
}

// ---------------------------------------------------------------------------
// fleet_conns: NEaT backends behind the maglev steering tier.
// ---------------------------------------------------------------------------

struct FleetShape {
  int backends{4};
  int clients{2};
  int replicas_per_backend{2};
  int replicas_per_client{2};
  std::uint64_t conns{100'000};
  int ports{16};
  std::uint64_t sample_every{64};
  sim::SimTime ping_interval{10 * sim::kMillisecond};
  std::uint64_t ramp_batch{256};
  sim::SimTime ramp_interval{1 * sim::kMillisecond};
  sim::SimTime warmup{300 * sim::kMillisecond};
  sim::SimTime measure{400 * sim::kMillisecond};
  sim::SimTime crash_after{100 * sim::kMillisecond};
  std::size_t victim{0};
  /// The backend whose link is tapped for the replays (a survivor).
  std::size_t traced{1};
};

std::uint64_t responses_from(
    const std::vector<std::unique_ptr<fleet::FleetClient>>& clients, int host) {
  std::uint64_t n = 0;
  for (const auto& c : clients) {
    const auto& per = c->app_stats().per_host_responses;
    if (auto it = per.find(host); it != per.end()) n += it->second;
  }
  return n;
}

/// One fleet and its applications, destroyed in reverse member order
/// (clients, servers, then the cluster). The prober's verdicts land here.
struct FleetRig {
  std::unique_ptr<fleet::FleetCluster> fl;
  std::vector<std::unique_ptr<fleet::PingServer>> servers;
  std::vector<std::unique_ptr<fleet::FleetClient>> clients;
  int downs{0};
  int down_id{-1};
  sim::SimTime down_at{0};
};

std::unique_ptr<FleetRig> build_fleet(const Options& opt, const FleetShape& s) {
  auto rig = std::make_unique<FleetRig>();
  fleet::FleetConfig fc;
  fc.seed = opt.seed;
  fc.backends = s.backends;
  fc.clients = s.clients;
  fc.replicas_per_backend = s.replicas_per_backend;
  fc.replicas_per_client = s.replicas_per_client;
  // 16-byte pings: the default 96 KiB socket rings would cost real memory
  // per connection for nothing.
  fc.backend_tcp.send_buf = fc.backend_tcp.recv_buf = 4096;
  fc.client_tcp.send_buf = fc.client_tcp.recv_buf = 4096;
  rig->fl = std::make_unique<fleet::FleetCluster>(fc);
  fleet::FleetCluster& fl = *rig->fl;

  std::vector<std::uint16_t> ports;
  for (int i = 0; i < s.ports; ++i) {
    ports.push_back(static_cast<std::uint16_t>(8000 + i));
  }
  for (std::size_t i = 0; i < fl.backend_count(); ++i) {
    fleet::FleetHost& b = fl.backend(i);
    auto srv = std::make_unique<fleet::PingServer>(
        fl.sim, "ping" + std::to_string(b.id), *b.host, b.id);
    srv->pin(b.app_thread());
    srv->start(ports);
    rig->servers.push_back(std::move(srv));
  }
  for (std::size_t j = 0; j < fl.client_count(); ++j) {
    fleet::FleetClient::Config cc;
    cc.vip = fl.config().steering.vip;
    cc.ports = ports;
    cc.total_conns = s.conns / fl.client_count();
    cc.ramp_batch = s.ramp_batch;
    cc.ramp_interval = s.ramp_interval;
    cc.sample_every = s.sample_every;
    cc.ping_interval = s.ping_interval;
    fleet::FleetHost& c = fl.client(j);
    auto cl = std::make_unique<fleet::FleetClient>(
        fl.sim, "cli" + std::to_string(j), *c.host, std::move(cc));
    cl->pin(c.app_thread());
    rig->clients.push_back(std::move(cl));
  }
  fl.start_health_probing([r = rig.get()](int id) {
    ++r->downs;
    r->down_id = id;
    r->down_at = r->fl->sim.now();
  });
  for (auto& c : rig->clients) c->start();
  return rig;
}

/// Build, run and read one fleet (see web_once for the teardown contract).
void fleet_once(const Options& opt, const FleetShape& s, Result& r,
                Capture& cap, ReplayTarget& t) {
  const sim::SimTime warmup = s.warmup;
  const sim::SimTime measure = s.measure;
  CalibrationKernel kernel;
  const std::unique_ptr<FleetRig> rig =
      timed_setup([&] { return build_fleet(opt, s); }, kernel, r);
  fleet::FleetCluster* fl = rig->fl.get();
  const auto& servers = rig->servers;
  const auto& clients = rig->clients;

  if (opt.trace) {
    fleet::FleetHost& b = fl->backend(s.traced);
    b.link->set_tap([&cap, nic = b.nic.get()](const nic::Nic& from,
                                              const net::Packet& f) {
      cap.add(f.bytes(), &from != nic);
    });
  }

  const auto frames = [fl] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < fl->backend_count(); ++i) {
      n += fl->backend(i).link->frames_delivered();
    }
    for (std::size_t j = 0; j < fl->client_count(); ++j) {
      n += fl->client(j).link->frames_delivered();
    }
    return n;
  };
  const double cpu0 = cpu_seconds();
  const auto loop0 = Clock::now();
  run_sliced(fl->sim, warmup, frames, kernel, r);
  std::uint64_t established = 0;
  for (std::size_t i = 0; i < fl->backend_count(); ++i) {
    established += fl->backend_connections(i);
  }
  for (auto& c : clients) c->mark();
  run_sliced(fl->sim, s.crash_after, frames, kernel, r);
  const std::size_t victim_flows =
      fl->steering().tracked_flows_for(static_cast<int>(s.victim)).size();
  const sim::SimTime crash_at = fl->sim.now();
  fl->crash_host(s.victim);
  const std::uint64_t victim_at_crash =
      responses_from(clients, static_cast<int>(s.victim));
  run_sliced(fl->sim, measure - s.crash_after, frames, kernel, r);
  const std::uint64_t victim_post_crash =
      responses_from(clients, static_cast<int>(s.victim)) - victim_at_crash;
  r.loop_s = seconds_since(loop0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.frames = frames();

  // --- simulated results ---------------------------------------------------
  std::vector<const obs::Hub*> client_hubs;
  for (std::size_t j = 0; j < fl->client_count(); ++j) {
    client_hubs.push_back(fl->client(j).hub.get());
  }
  std::uint64_t window_responses = 0;
  std::uint64_t responses_total = 0;
  std::uint64_t conn_attempts = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t reset = 0;
  for (const auto& c : clients) {
    const auto& st = c->app_stats();
    for (const auto& [id, n] : c->window_responses()) window_responses += n;
    responses_total += st.responses;
    conn_attempts += st.attempted;
    // Refusals and closes the crash cannot explain; RSTs are the victim's
    // pinged connections re-steered to a survivor (bounded below).
    unexpected += st.connect_failures + st.closed_other + st.closed_migrated;
    reset += st.closed_reset;
  }
  const obs::Histogram rtt =
      fleet::merged_histogram(client_hubs, "fleet.rtt_ns");
  r.sim.emplace_back("krps", ratio(static_cast<double>(window_responses),
                                   sim::to_seconds(measure)) /
                                 1e3);
  r.sim.emplace_back("requests", static_cast<double>(window_responses));
  add_latency(r, rtt);
  add_outcome(r, static_cast<double>(conn_attempts + window_responses),
              static_cast<double>(unexpected));
  std::size_t hosts_up = 0;
  for (int i = 0; i < s.backends; ++i) {
    if (fl->steering().has_backend(i)) ++hosts_up;
  }
  r.check("one_host_declared_down",
          rig->downs == 1 && rig->down_id == static_cast<int>(s.victim) &&
              fl->steering().stats().backends_declared_down == 1,
          std::to_string(rig->downs) + " down, id " +
              std::to_string(rig->down_id));
  r.check("survivors_in_table",
          hosts_up == static_cast<std::size_t>(s.backends - 1),
          std::to_string(hosts_up) + " backends in the table");
  r.check("victim_silent_after_crash", victim_post_crash <= 64,
          std::to_string(victim_post_crash) + " responses after the crash");
  r.check("conns_established", established * 100 >= s.conns * 99,
          std::to_string(established) + " of " + std::to_string(s.conns));
  r.check("resets_confined_to_victim", reset <= victim_flows,
          std::to_string(reset) + " resets, victim held " +
              std::to_string(victim_flows) + " flows");

  // --- per-layer ledger (counters) -----------------------------------------
  LayerInputs in;
  in.sim = &fl->sim;
  in.hubs = {&fl->sim.obs()};
  for (std::size_t i = 0; i < fl->backend_count(); ++i) {
    fleet::FleetHost& b = fl->backend(i);
    in.hubs.push_back(b.hub.get());
    in.server_nics.push_back(b.nic.get());
    in.server_hosts.push_back(b.host.get());
  }
  for (std::size_t j = 0; j < fl->client_count(); ++j) {
    in.hubs.push_back(fl->client(j).hub.get());
  }
  double served = 0;
  for (const auto& srv : servers) {
    in.apps.push_back(srv.get());
    served += static_cast<double>(srv->app_stats().requests);
  }
  in.apps_are_fleet = true;
  in.pool = &fl->pool;
  in.requests = served;
  in.frames = r.frames;
  layer_counts(in, r);
  const auto& ts = fl->steering().stats();
  r.counts.emplace_back("wl.co_gap_p99_ms", 0.0);
  r.counts.emplace_back("wl.sessions_shed", 0.0);
  r.counts.emplace_back("fleet.established", static_cast<double>(established));
  r.counts.emplace_back(
      "fleet.conntrack_flows",
      static_cast<double>(fl->steering().tracked_flow_count()));
  r.counts.emplace_back(
      "fleet.frames_per_resp",
      ratio(static_cast<double>(ts.to_backend + ts.to_client),
            static_cast<double>(responses_total)));
  r.counts.emplace_back("fleet.no_backend_drops",
                        static_cast<double>(ts.no_backend_drops));
  r.counts.emplace_back("fleet.crash_lost_conns", static_cast<double>(reset));
  r.counts.emplace_back("fleet.sim_recovery_ms",
                        ns_to_ms(static_cast<double>(rig->down_at - crash_at)));

  if (!opt.trace) return;

  fleet::FleetHost& b = fl->backend(s.traced);
  t.nic_params = b.nic->params();
  t.mac = b.nic->mac();
  t.ip = b.nic->ip();
  for (std::size_t i = 0; i < b.host->replica_count(); ++i) {
    t.queues.push_back(b.host->replica(i).queue());
  }
  // A pinger's life in the capture window: one 16-byte ping per interval.
  t.tcp.requests_per_conn = 20;
  t.tcp.request_bytes = fleet::kPingFrame;
  t.tcp.response_bytes = fleet::kPingFrame;
  t.tcp.buf_bytes = 4096;
  for (const auto& [name, v] : r.counts) {
    if (name == "ipc.batch_mean") t.ipc_batch = v;
  }
  t.maglev_backends = s.backends;
  t.maglev_table_size = fl->config().steering.table_size;
}

Result run_fleet(const Options& opt) {
  Result r;
  Capture cap;
  ReplayTarget t;
  fleet_once(opt, FleetShape{}, r, cap, t);
  if (opt.trace) replay_layers(cap, t, r);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "fig9_keepalive", "bulk_keepalive", "conn_churn", "fleet_conns"};
  return names;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "fleet_conns") return run_fleet(opt);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
  return run_web(opt, web_shape(opt.workload));
}

}  // namespace neat::perfbench
