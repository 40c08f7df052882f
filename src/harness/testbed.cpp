#include "harness/testbed.hpp"

#include <cassert>

namespace neat::harness {

Testbed::Config::Config() {
  client_machine.name = "client";
  client_machine.cores = 32;
  client_machine.threads_per_core = 1;
  client_machine.freq = sim::Frequency{3.0};
  client_machine.work_scale = 0.8;
}

Testbed::Testbed(Config config)
    : sim(config.seed),
      cfg(std::move(config)),
      server_machine(sim.add_machine(cfg.server_machine)),
      client_machine(sim.add_machine(cfg.client_machine)),
      server_nic(sim, net::MacAddr::local(1), kServerIp, cfg.server_nic),
      client_nic(sim, net::MacAddr::local(2), kClientIp, cfg.client_nic),
      link(sim, server_nic, client_nic, cfg.link) {
  pool.bind(sim.obs());
}

Testbed::~Testbed() {
  // Out-of-order teardown check: every rig must already be gone. A rig that
  // outlives its testbed holds processes pinned to freed machines and
  // channels into a dead simulator — exactly the UAF class PR 3 fixed in
  // five fixtures. Fail at the destruction site, not at the later crash.
  assert(*dependents_ == 0 &&
         "rig outlived its Testbed (destroy rigs before the testbed)");
  // The obs hub dies with `sim`, before `pool`; packets released during
  // simulator teardown (closures in the event queue hold PacketPtrs) must
  // not bump freed counters.
  pool.unbind();
}

// ---------------------------------------------------------------------------
// Placements
// ---------------------------------------------------------------------------

Placement amd_placement(bool multi_component, int replicas, int webs) {
  Placement p;
  p.os = {0, 0};
  p.syscall = {1, 0};
  p.driver = {2, 0};
  int core = 3;
  for (int r = 0; r < replicas; ++r) {
    if (multi_component) {
      p.replicas.push_back({{core, 0}, {core + 1, 0}});  // TCP, IP
      core += 2;
    } else {
      p.replicas.push_back({{core, 0}});
      ++core;
    }
  }
  for (int w = 0; w < webs; ++w) {
    assert(core < 12 && "AMD machine out of cores for this configuration");
    p.webs.push_back({core++, 0});
  }
  return p;
}

Placement xeon_placement(bool multi_component, int replicas, int webs,
                         bool ht) {
  Placement p;
  constexpr int kCores = 8;
  std::vector<std::vector<bool>> used(kCores, std::vector<bool>(2, false));
  auto take = [&](int c, int t) {
    used[static_cast<std::size_t>(c)][static_cast<std::size_t>(t)] = true;
    return Placement::Slot{c, t};
  };

  if (ht) {
    // Figure 8b/10: OS alone (its sibling is the last web slot), the NIC
    // driver and the SYSCALL server share one core, stack components pack
    // two per core on sibling threads.
    p.os = take(0, 0);
    p.driver = take(1, 0);
    p.syscall = take(1, 1);
    int core = 2;
    int thread = 0;
    auto next_stack_slot = [&] {
      const Placement::Slot s = take(core, thread);
      thread = 1 - thread;
      if (thread == 0) ++core;
      return s;
    };
    if (multi_component) {
      // All TCP processes pack first (Fig. 8c pairs replicas per core),
      // then all IP processes.
      std::vector<Placement::Slot> tcps, ips;
      for (int r = 0; r < replicas; ++r) tcps.push_back(next_stack_slot());
      if (thread != 0) {
        thread = 0;
        ++core;
      }
      for (int r = 0; r < replicas; ++r) ips.push_back(next_stack_slot());
      if (thread != 0) {
        thread = 0;
        ++core;
      }
      for (int r = 0; r < replicas; ++r) {
        p.replicas.push_back(
            {tcps[static_cast<std::size_t>(r)], ips[static_cast<std::size_t>(r)]});
      }
    } else {
      for (int r = 0; r < replicas; ++r) {
        p.replicas.push_back({next_stack_slot()});
      }
      if (thread != 0) {
        thread = 0;
        ++core;
      }
    }
  } else {
    // Core-only layout: OS and SYSCALL share core 0 (both are nearly idle
    // under load), the driver gets core 1, stack components one core each.
    p.os = take(0, 0);
    p.syscall = {0, 0};
    p.driver = take(1, 0);
    int core = 2;
    for (int r = 0; r < replicas; ++r) {
      if (multi_component) {
        assert(core + 1 < kCores);
        p.replicas.push_back({take(core, 0), take(core + 1, 0)});
        core += 2;
      } else {
        assert(core < kCores);
        p.replicas.push_back({take(core, 0)});
        ++core;
      }
    }
  }

  // Webs: breadth-first — thread 0 of every free core, then the sibling
  // threads, then idle sibling threads of stack/system cores. This mirrors
  // how the paper scaled lighttpd: whole cores first, hyper-threads next,
  // and finally the threads of the cores occupied by the network stack
  // itself (Fig. 9, points 6 and 8).
  std::vector<Placement::Slot> web_slots;
  for (int t = 0; t < 2; ++t) {
    for (int c = 0; c < kCores; ++c) {
      if (!used[static_cast<std::size_t>(c)][0] &&
          !used[static_cast<std::size_t>(c)][1]) {
        web_slots.push_back({c, t});
      }
    }
  }
  for (int c = kCores - 1; c >= 0; --c) {
    for (int t = 1; t >= 0; --t) {
      if (used[static_cast<std::size_t>(c)][static_cast<std::size_t>(t)]) {
        continue;
      }
      const bool half_used = used[static_cast<std::size_t>(c)][0] ||
                             used[static_cast<std::size_t>(c)][1];
      if (half_used) web_slots.push_back({c, t});
    }
  }
  assert(static_cast<int>(web_slots.size()) >= webs &&
         "Xeon out of hardware threads for this configuration");
  for (int w = 0; w < webs; ++w) {
    p.webs.push_back(web_slots[static_cast<std::size_t>(w)]);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Server rigs
// ---------------------------------------------------------------------------

ServerRig build_neat_server(Testbed& tb, NeatServerOptions opt) {
  ServerRig rig;
  rig.testbed_token = tb.depend();
  for (const auto& [path, size] : opt.files) rig.files->add(path, size);
  if (opt.tracking_filters) tb.server_nic.set_tracking_filters(true);
  assert((!opt.defer_syn_filters || opt.tracking_filters) &&
         "defer_syn_filters needs tracking filters to defer");
  if (opt.defer_syn_filters) tb.server_nic.set_defer_syn_filters(true);

  NeatHost::Config hc = opt.host;
  hc.kind = opt.multi_component ? NeatHost::Config::Kind::kMulti
                                : NeatHost::Config::Kind::kSingle;
  rig.neat = std::make_unique<NeatHost>(tb.sim, tb.server_machine,
                                        tb.server_nic, hc);

  Placement pl = opt.placement;
  if (pl.replicas.empty()) {
    pl = amd_placement(opt.multi_component, opt.replicas, opt.webs);
  }
  auto& mc = tb.server_machine;
  rig.neat->os_process().pin(mc.thread(pl.os.core, pl.os.thread));
  rig.neat->syscall().pin(mc.thread(pl.syscall.core, pl.syscall.thread));
  rig.neat->driver().pin(mc.thread(pl.driver.core, pl.driver.thread));

  for (int r = 0; r < opt.replicas; ++r) {
    std::vector<sim::HwThread*> pins;
    for (const auto& slot : pl.replicas[static_cast<std::size_t>(r)]) {
      pins.push_back(&mc.thread(slot.core, slot.thread));
    }
    rig.neat->add_replica(pins);
  }

  for (int w = 0; w < opt.webs; ++w) {
    auto srv = std::make_unique<apps::HttpServer>(
        tb.sim, "web" + std::to_string(w + 1), *rig.files,
        static_cast<std::uint16_t>(kBasePort + w));
    const auto& slot = pl.webs[static_cast<std::size_t>(w)];
    srv->pin(mc.thread(slot.core, slot.thread));
    srv->first_byte_deadline = opt.http_first_byte_deadline;
    srv->header_deadline = opt.http_header_deadline;
    srv->attach_api(std::make_unique<socklib::SockLib>(*srv, *rig.neat));
    srv->start();
    rig.webs.push_back(std::move(srv));
  }
  return rig;
}

ServerRig build_linux_server(Testbed& tb, LinuxServerOptions opt) {
  ServerRig rig;
  rig.testbed_token = tb.depend();
  for (const auto& [path, size] : opt.files) rig.files->add(path, size);

  baseline::LinuxHost::Config cfg;
  cfg.tuning = opt.tuning;
  cfg.costs = opt.costs;
  cfg.tcp = opt.tcp;
  rig.linux_host = std::make_unique<baseline::LinuxHost>(
      tb.sim, tb.server_machine, tb.server_nic, cfg);

  auto& mc = tb.server_machine;
  const int cores = mc.cores();
  const int tpc = mc.threads_per_core();
  for (int w = 0; w < opt.webs; ++w) {
    auto srv = std::make_unique<apps::HttpServer>(
        tb.sim, "web" + std::to_string(w + 1), *rig.files,
        static_cast<std::uint16_t>(kBasePort + w));
    const int slot = w % (cores * tpc);
    rig.linux_host->register_app(*srv, mc.thread(slot % cores, slot / cores));
    srv->attach_api(std::make_unique<baseline::LinuxSockets>(
        *srv, *rig.linux_host, slot % cores));
    srv->start();
    rig.webs.push_back(std::move(srv));
  }
  return rig;
}

// ---------------------------------------------------------------------------
// Client rig
// ---------------------------------------------------------------------------

ClientRig build_client(Testbed& tb, ClientOptions opt, int num_ports) {
  ClientRig rig;
  rig.testbed_token = tb.depend();
  NeatHost::Config hc;
  hc.kind = NeatHost::Config::Kind::kSingle;
  hc.costs = opt.costs;
  hc.tcp = opt.tcp;
  // Load generators churn tens of thousands of connections per second out
  // of a 16k ephemeral-port pool; like real httperf testbeds (tcp_tw_reuse)
  // the client recycles TIME_WAIT ports quickly or the pool exhausts.
  hc.tcp.time_wait = 50 * sim::kMillisecond;
  rig.host = std::make_unique<NeatHost>(tb.sim, tb.client_machine,
                                        tb.client_nic, hc);
  auto& mc = tb.client_machine;
  assert(3 + opt.stack_replicas + opt.generators <= mc.cores() &&
         "client machine out of cores");
  rig.host->os_process().pin(mc.thread(0));
  rig.host->syscall().pin(mc.thread(1));
  rig.host->driver().pin(mc.thread(2));
  for (int r = 0; r < opt.stack_replicas; ++r) {
    rig.host->add_replica({&mc.thread(3 + r)});
  }

  for (int g = 0; g < opt.generators; ++g) {
    wl::OpenLoopClient::Config lc;
    lc.tenant = "httperf" + std::to_string(g);
    lc.server = net::SockAddr{
        kServerIp, static_cast<std::uint16_t>(kBasePort + g % num_ports)};
    lc.arrival = wl::ArrivalModel::closed(opt.concurrency_per_gen);
    lc.session.requests_per_session =
        static_cast<std::uint32_t>(opt.requests_per_conn);
    lc.catalog = {opt.path};
    lc.max_conns = opt.max_conns;
    auto gen = std::make_unique<wl::OpenLoopClient>(tb.sim, lc.tenant, lc);
    gen->pin(mc.thread(3 + opt.stack_replicas + g));
    gen->attach_api(std::make_unique<socklib::SockLib>(*gen, *rig.host));
    gen->start();
    rig.gens.push_back(std::move(gen));
  }
  return rig;
}

void ClientRig::mark() {
  for (auto& g : gens) g->mark();
}

ClientRig::Aggregate ClientRig::aggregate(sim::SimTime window) const {
  Aggregate a;
  std::uint64_t bytes = 0;
  // Merge the per-generator histograms so the percentiles come from one
  // combined distribution (max-of-p99s across generators is not a p99).
  obs::Histogram merged;
  for (const auto& g : gens) {
    const auto& r = g->report();
    a.requests += r.committed_requests;
    bytes += r.committed_bytes;
    a.error_conns += r.error_conns;
    merged.merge(r.latency);
  }
  const double secs = sim::to_seconds(window);
  if (secs > 0) {
    a.krps = static_cast<double>(a.requests) / secs / 1000.0;
    a.mbps = static_cast<double>(bytes) / secs / 1e6;
  }
  a.mean_latency_ms = merged.mean() / 1e6;
  a.p50_latency_ms = static_cast<double>(merged.quantile(0.50)) / 1e6;
  a.p95_latency_ms = static_cast<double>(merged.quantile(0.95)) / 1e6;
  a.p99_latency_ms = static_cast<double>(merged.quantile(0.99)) / 1e6;
  a.p999_latency_ms = static_cast<double>(merged.quantile(0.999)) / 1e6;
  return a;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

ClientRig::Aggregate run_window(Testbed& tb, ClientRig& client,
                                sim::SimTime warmup, sim::SimTime measure) {
  tb.sim.run_for(warmup);
  client.mark();
  tb.sim.run_for(measure);
  return client.aggregate(measure);
}

void prepopulate_arp(ServerRig& server, ClientRig& client) {
  const net::MacAddr server_mac = net::MacAddr::local(1);
  const net::MacAddr client_mac = net::MacAddr::local(2);
  if (server.neat) {
    for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
      server.neat->replica(i).ip_layer_ref().arp().insert(kClientIp,
                                                          client_mac);
    }
  }
  if (server.linux_host) {
    server.linux_host->ip_layer().arp().insert(kClientIp, client_mac);
  }
  for (std::size_t i = 0; i < client.host->replica_count(); ++i) {
    client.host->replica(i).ip_layer_ref().arp().insert(kServerIp,
                                                        server_mac);
  }
}

}  // namespace neat::harness
