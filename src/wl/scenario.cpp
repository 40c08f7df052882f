#include "wl/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "harness/testbed.hpp"
#include "socklib/socklib.hpp"

namespace neat::wl {

namespace {

constexpr sim::SimTime kTimelineSample = 25 * sim::kMillisecond;
/// Client-side stack replicas carrying the generated load.
constexpr int kClientReplicas = 4;

/// Client half of a scenario. The apps are declared after the rig, so they
/// die before its host.
struct ClientSide {
  harness::ClientRig rig;
  std::vector<std::unique_ptr<OpenLoopClient>> tenants;
  /// Churn adversaries: clients that are never mark()ed, so their reports
  /// cover the whole run.
  std::vector<std::unique_ptr<OpenLoopClient>> churn;
  std::vector<std::unique_ptr<SynFlood>> floods;
  std::vector<std::unique_ptr<Slowloris>> loris;
};

[[nodiscard]] double ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& sc) {
  harness::Testbed::Config cfg;
  cfg.seed = sc.seed;
  harness::Testbed tb(cfg);

  const int n_tenants = std::max<int>(1, static_cast<int>(sc.tenants.size()));

  // --- server rig: system cores 0-2, replicas, autoscaler spares, webs ----
  harness::Placement pl;
  pl.os = {0, 0};
  pl.syscall = {1, 0};
  pl.driver = {2, 0};
  int core = 3;
  for (int r = 0; r < sc.replicas; ++r) {
    if (sc.multi_component) {
      pl.replicas.push_back({{core, 0}, {core + 1, 0}});
      core += 2;
    } else {
      pl.replicas.push_back({{core, 0}});
      ++core;
    }
  }
  std::vector<std::vector<sim::HwThread*>> spares;
  if (sc.autoscale) {
    for (int s = 0; s < sc.spare_replica_slots; ++s) {
      assert(core < tb.server_machine.cores());
      spares.push_back({&tb.server_machine.thread(core)});
      ++core;
    }
  }
  for (int w = 0; w < n_tenants; ++w) {
    assert(core < tb.server_machine.cores());
    pl.webs.push_back({core, 0});
    ++core;
  }

  // Per-tenant file catalogs: sizes drawn once, deterministically, from the
  // tenant's SizeModel, so the byte mix is heavy-tailed but the FileStore
  // stays finite (and identical across runs of the same seed).
  harness::NeatServerOptions so;
  so.multi_component = sc.multi_component;
  so.replicas = sc.replicas;
  so.webs = n_tenants;
  so.placement = pl;
  so.tracking_filters = sc.tracking_filters;
  so.defer_syn_filters = sc.defer_syn_filters;
  so.host.tcp.syn_cookies = sc.syn_cookies;
  so.http_first_byte_deadline = sc.http_first_byte_deadline;
  so.http_header_deadline = sc.http_header_deadline;
  so.files = {{"/file20", 20}};  // adversaries fetch this
  sim::Rng catalog_rng(sc.seed ^ 0xca7a1095u);
  std::vector<std::vector<std::string>> catalogs;
  for (const auto& t : sc.tenants) {
    std::vector<std::string> paths;
    for (std::size_t j = 0; j < std::max<std::size_t>(1, t.catalog_files);
         ++j) {
      std::string path = "/" + t.name + "/f" + std::to_string(j);
      so.files.emplace_back(path, t.sizes.sample(catalog_rng));
      paths.push_back(std::move(path));
    }
    catalogs.push_back(std::move(paths));
  }
  harness::ServerRig server = harness::build_neat_server(tb, so);
  if (sc.fin_retire_linger > 0) {
    tb.server_nic.set_fin_retire_linger(sc.fin_retire_linger);
  }

  std::unique_ptr<AutoScaler> scaler;
  if (sc.autoscale) {
    scaler = std::make_unique<AutoScaler>(*server.neat, std::move(spares),
                                          AutoScaler::Policy{});
    scaler->start();
  }

  // --- client side --------------------------------------------------------
  harness::ClientOptions co;
  co.stack_replicas = kClientReplicas;
  co.generators = 0;
  ClientSide cs;
  cs.rig = harness::build_client(tb, co, 1);
  NeatHost& chost = *cs.rig.host;
  auto& cm = tb.client_machine;
  const int total_client_procs =
      3 + kClientReplicas + n_tenants +
      static_cast<int>(sc.adversaries.size());
  assert(total_client_procs <= cm.cores() && "client machine out of cores");
  (void)total_client_procs;
  int client_core = 3 + kClientReplicas;

  for (std::size_t i = 0; i < sc.tenants.size(); ++i) {
    const TenantSpec& t = sc.tenants[i];
    OpenLoopClient::Config oc;
    oc.tenant = t.name;
    oc.server = net::SockAddr{
        harness::kServerIp,
        static_cast<std::uint16_t>(harness::kBasePort + i)};
    oc.arrival = t.arrival;
    oc.session = t.session;
    oc.catalog = catalogs[i];
    oc.max_in_flight = t.max_in_flight;
    oc.slo = t.slo;
    auto cl = std::make_unique<OpenLoopClient>(tb.sim, "wl-" + t.name, oc);
    cl->pin(cm.thread(client_core++));
    cl->attach_api(std::make_unique<socklib::SockLib>(*cl, chost));
    cs.tenants.push_back(std::move(cl));
  }

  for (const AdversarySpec& a : sc.adversaries) {
    // Every adversary aims at the first tenant's port.
    const net::SockAddr target{harness::kServerIp, harness::kBasePort};
    sim::Process* proc = nullptr;
    sim::SmallFn go;
    switch (a.kind) {
      case AdversarySpec::Kind::kSynFlood: {
        SynFlood::Config fc;
        fc.target = target;
        fc.target_mac = net::MacAddr::local(1);
        fc.rate = a.rate;
        auto f = std::make_unique<SynFlood>(tb.sim, "synflood",
                                            tb.client_nic, fc);
        proc = f.get();
        go = [p = f.get()] { p->start(); };
        cs.floods.push_back(std::move(f));
        break;
      }
      case AdversarySpec::Kind::kSlowloris: {
        Slowloris::Config lc;
        lc.server = target;
        lc.connections = a.connections;
        auto l = std::make_unique<Slowloris>(tb.sim, "slowloris", lc);
        l->attach_api(std::make_unique<socklib::SockLib>(*l, chost));
        proc = l.get();
        go = [p = l.get()] { p->start(); };
        cs.loris.push_back(std::move(l));
        break;
      }
      case AdversarySpec::Kind::kChurnStorm: {
        // Churn is the client engine at one request per session.
        OpenLoopClient::Config oc;
        oc.tenant = "churn";
        oc.server = target;
        oc.arrival = ArrivalModel::poisson(a.rate);
        oc.max_in_flight = 2048;
        auto c = std::make_unique<OpenLoopClient>(tb.sim, "churn", oc);
        c->attach_api(std::make_unique<socklib::SockLib>(*c, chost));
        proc = c.get();
        go = [p = c.get()] { p->start(); };
        cs.churn.push_back(std::move(c));
        break;
      }
    }
    proc->pin(cm.thread(client_core++));
    tb.sim.queue().schedule(a.start_at, std::move(go));
  }

  // Static ARP, as on a real point-to-point testbed. Replicas the
  // AutoScaler spawns later resolve on demand (their ARP request transits
  // the link like any other frame).
  harness::prepopulate_arp(server, cs.rig);

  // Replica-count timeline and NIC filter high-water mark, sampled from
  // the server host.
  ScenarioResult res;
  res.name = sc.name;
  const sim::SimTime horizon = sc.warmup + sc.measure;
  NeatHost* shost = server.neat.get();
  for (sim::SimTime t = 0; t <= horizon; t += kTimelineSample) {
    tb.sim.queue().schedule(t, [&tb, &res, shost] {
      res.replica_timeline.emplace_back(tb.sim.now(),
                                        shost->serving_replicas().size());
      res.server_flow_filters_peak =
          std::max<std::uint64_t>(res.server_flow_filters_peak,
                                  tb.server_nic.flow_filter_count());
    });
  }

  for (auto& t : cs.tenants) t->start();
  tb.sim.run_for(sc.warmup);
  for (auto& t : cs.tenants) t->mark();
  tb.sim.run_for(sc.measure);

  // --- collect ------------------------------------------------------------
  const double secs = sim::to_seconds(sc.measure);
  for (std::size_t i = 0; i < cs.tenants.size(); ++i) {
    const auto& rep = cs.tenants[i]->report();
    TenantResult tr;
    tr.name = sc.tenants[i].name;
    tr.sessions_started = rep.sessions_started;
    tr.sessions_completed = rep.sessions_completed;
    tr.sessions_failed = rep.sessions_failed;
    tr.sessions_abandoned = rep.sessions_abandoned;
    tr.sessions_shed = rep.sessions_shed;
    tr.requests = rep.requests_completed;
    tr.bad_status = rep.bad_status;
    tr.slo_violations = rep.slo_violations;
    if (secs > 0) {
      tr.krps = static_cast<double>(rep.requests_completed) / secs / 1000.0;
      tr.goodput_mbps =
          static_cast<double>(rep.bytes_received) / secs / 1e6;
    }
    tr.p50_ms = ms(rep.latency.quantile(0.50));
    tr.p99_ms = ms(rep.latency.quantile(0.99));
    tr.p999_ms = ms(rep.latency.quantile(0.999));
    tr.raw_p99_ms = ms(rep.raw_latency.quantile(0.99));
    if (const obs::Histogram* h = tb.sim.metrics().find_histogram(
            "wl." + tr.name + ".request_latency_ns")) {
      tr.hub_latency_samples = h->count();
    }
    res.tenants.push_back(std::move(tr));
  }

  for (const auto& [t, n] : res.replica_timeline) {
    res.max_replicas = std::max(res.max_replicas, n);
    res.end_replicas = n;
  }
  if (scaler) {
    res.scale_ups = scaler->scale_ups();
    res.scale_downs = scaler->scale_downs();
  }
  if (const auto* c = tb.sim.metrics().find_counter("neat.lazy_terminations");
      c != nullptr) {
    res.lazy_terminations = c->value();
  }
  for (const auto& f : cs.floods) res.syns_sent += f->stats().syns_sent;
  for (const auto& c : cs.churn) {
    res.churn_conns += c->report().sessions_started;
  }
  for (const auto& l : cs.loris) {
    res.slowloris_held += l->held();
    res.slowloris_shed += l->stats().conns_lost;
  }
  res.server_filters_retired = tb.server_nic.stats().filters_retired;
  res.server_flow_filters_end = tb.server_nic.flow_filter_count();
  res.server_filter_evictions = tb.server_nic.stats().filters_evicted;
  for (std::size_t i = 0; i < shost->replica_count(); ++i) {
    const auto& ts = shost->replica(i).tcp().stats();
    res.syn_cookies_sent += ts.syn_cookies_sent;
    res.syn_cookies_accepted += ts.syn_cookies_accepted;
    res.syn_cookies_rejected += ts.syn_cookies_rejected;
  }
  for (const auto& w : server.webs) {
    res.http_deadline_closes += w->app_stats().deadline_closes;
  }
  if (const auto* c = tb.sim.metrics().find_counter("neat.migrations");
      c != nullptr) {
    res.migrations = c->value();
  }

  // Quiesce generation before teardown so no adversary keeps re-arming.
  for (auto& t : cs.tenants) t->stop();
  for (auto& f : cs.floods) f->stop();
  for (auto& l : cs.loris) l->stop();
  for (auto& c : cs.churn) c->stop();
  if (scaler) scaler->stop();
  return res;
}

// ---------------------------------------------------------------------------
// Built-in scenarios
// ---------------------------------------------------------------------------

namespace {

TenantSpec web_tenant(const char* name, double rate) {
  TenantSpec t;
  t.name = name;
  t.arrival = ArrivalModel::poisson(rate);
  t.session.requests_per_session = 4;
  t.session.geometric = true;
  t.session.abandon_after = 2 * sim::kSecond;
  t.sizes = SizeModel::pareto(200.0, 1.3, 64 * 1024);
  t.catalog_files = 6;
  t.slo = 20 * sim::kMillisecond;
  return t;
}

TenantSpec api_tenant(const char* name, double rate) {
  TenantSpec t;
  t.name = name;
  t.arrival = ArrivalModel::poisson(rate);
  t.session.requests_per_session = 1;
  t.session.abandon_after = 1 * sim::kSecond;
  t.sizes = SizeModel::fixed_size(256);
  t.catalog_files = 1;
  t.slo = 5 * sim::kMillisecond;
  return t;
}

Scenario steady_mix(bool quick) {
  Scenario sc;
  sc.name = "steady_mix";
  sc.replicas = 2;
  sc.measure = quick ? 250 * sim::kMillisecond : 600 * sim::kMillisecond;
  const double f = quick ? 0.5 : 1.0;
  sc.tenants.push_back(web_tenant("web", 4000 * f));
  sc.tenants.push_back(api_tenant("api", 8000 * f));
  TenantSpec bulk;
  bulk.name = "bulk";
  bulk.arrival = ArrivalModel::poisson(150 * f);
  bulk.session.requests_per_session = 2;
  bulk.session.abandon_after = 2 * sim::kSecond;
  bulk.sizes = SizeModel::log_normal(10.2, 0.8, 256 * 1024);
  bulk.catalog_files = 5;
  bulk.slo = 200 * sim::kMillisecond;
  sc.tenants.push_back(bulk);
  return sc;
}

Scenario mmpp_bursts(bool quick) {
  Scenario sc;
  sc.name = "mmpp_bursts";
  sc.replicas = 2;
  sc.measure = quick ? 300 * sim::kMillisecond : 600 * sim::kMillisecond;
  const double f = quick ? 0.5 : 1.0;
  TenantSpec bursty = api_tenant("bursty", 3000 * f);
  bursty.arrival =
      ArrivalModel::mmpp(3000 * f, 30000 * f, 100 * sim::kMillisecond,
                         20 * sim::kMillisecond);
  bursty.sizes = SizeModel::fixed_size(512);
  bursty.slo = 10 * sim::kMillisecond;
  sc.tenants.push_back(bursty);
  sc.tenants.push_back(api_tenant("steady", 6000 * f));
  return sc;
}

Scenario diurnal(bool quick) {
  Scenario sc;
  sc.name = "diurnal";
  sc.replicas = 1;
  sc.autoscale = true;
  // Lazy termination needs per-flow tracking filters: without them a
  // draining replica's established flows lose their steering the moment it
  // leaves the RSS set, never finish, and block collection forever.
  sc.tracking_filters = true;
  sc.spare_replica_slots = 2;
  sc.measure = quick ? 500 * sim::kMillisecond : 900 * sim::kMillisecond;
  const double f = quick ? 0.6 : 1.0;
  TenantSpec t = api_tenant("diurnal", 0);
  t.arrival = ArrivalModel::diurnal(
      2000 * f, 45000 * f,
      quick ? 300 * sim::kMillisecond : 450 * sim::kMillisecond);
  t.sizes = SizeModel::fixed_size(512);
  t.slo = 10 * sim::kMillisecond;
  sc.tenants.push_back(t);
  return sc;
}

Scenario flash_crowd(bool quick) {
  Scenario sc;
  sc.name = "flash_crowd";
  sc.replicas = 1;
  sc.autoscale = true;
  sc.tracking_filters = true;  // required for lazy termination (see diurnal)
  sc.spare_replica_slots = 3;
  sc.warmup = 150 * sim::kMillisecond;
  sc.measure = quick ? 700 * sim::kMillisecond : 1100 * sim::kMillisecond;
  const double f = quick ? 0.7 : 1.0;
  TenantSpec t = api_tenant("web", 0);
  // Surge starts after mark() so the whole ramp is inside the measured
  // window; it ends with >=350ms of calm so lazy termination has time to
  // fire (scaler cooldown 150ms + host gc).
  t.arrival = ArrivalModel::flash_crowd(
      5000 * f, 80000 * f, /*at=*/250 * sim::kMillisecond,
      /*ramp=*/50 * sim::kMillisecond,
      /*hold=*/quick ? 200 * sim::kMillisecond : 350 * sim::kMillisecond,
      /*decay=*/80 * sim::kMillisecond);
  t.sizes = SizeModel::fixed_size(512);
  t.slo = 10 * sim::kMillisecond;
  t.max_in_flight = 8192;
  sc.tenants.push_back(t);
  return sc;
}

Scenario syn_flood(bool quick) {
  Scenario sc;
  sc.name = "syn_flood";
  sc.replicas = 2;
  sc.tracking_filters = true;
  sc.fin_retire_linger = 150 * sim::kMillisecond;
  sc.measure = quick ? 300 * sim::kMillisecond : 600 * sim::kMillisecond;
  const double f = quick ? 0.5 : 1.0;
  sc.tenants.push_back(api_tenant("web", 8000 * f));
  AdversarySpec a;
  a.kind = AdversarySpec::Kind::kSynFlood;
  a.rate = 60000 * f;
  a.start_at = 250 * sim::kMillisecond;  // after mark(): collateral visible
  sc.adversaries.push_back(a);
  return sc;
}

Scenario slowloris(bool quick) {
  Scenario sc;
  sc.name = "slowloris";
  sc.replicas = 2;
  sc.measure = quick ? 300 * sim::kMillisecond : 600 * sim::kMillisecond;
  const double f = quick ? 0.5 : 1.0;
  sc.tenants.push_back(api_tenant("web", 8000 * f));
  AdversarySpec a;
  a.kind = AdversarySpec::Kind::kSlowloris;
  a.connections = quick ? 128 : 256;
  a.start_at = 200 * sim::kMillisecond;
  sc.adversaries.push_back(a);
  return sc;
}

Scenario churn_storm(bool quick) {
  Scenario sc;
  sc.name = "churn_storm";
  sc.replicas = 2;
  sc.tracking_filters = true;
  sc.fin_retire_linger = 150 * sim::kMillisecond;
  sc.measure = quick ? 300 * sim::kMillisecond : 600 * sim::kMillisecond;
  const double f = quick ? 0.5 : 1.0;
  sc.tenants.push_back(api_tenant("web", 8000 * f));
  AdversarySpec a;
  a.kind = AdversarySpec::Kind::kChurnStorm;
  a.rate = 12000 * f;
  a.start_at = 200 * sim::kMillisecond;
  sc.adversaries.push_back(a);
  return sc;
}

}  // namespace

const std::vector<NamedScenario>& builtin_scenarios() {
  static const std::vector<NamedScenario> kScenarios = {
      {"steady_mix", "three tenants (web/api/bulk), heavy-tailed sizes",
       steady_mix},
      {"mmpp_bursts", "bursty MMPP tenant next to a steady one",
       mmpp_bursts},
      {"diurnal", "sinusoidal load against the autoscaler", diurnal},
      {"flash_crowd", "step surge: scale up, then lazy termination",
       flash_crowd},
      {"syn_flood", "spoofed SYN flood collateral on a serving tenant",
       syn_flood},
      {"slowloris", "slow-header connection hoarding", slowloris},
      {"churn_storm", "open/close churn against steering + filters",
       churn_storm},
  };
  return kScenarios;
}

}  // namespace neat::wl
