// Fleet-layer tests: the maglev steering table's balance/disruption
// contracts, per-host observability merging, and the multi-host cluster —
// steering end-to-end, health-probe crash detection with blast-radius
// isolation, flow stability across joins, and cross-host live migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "fleet/app.hpp"
#include "fleet/cluster.hpp"
#include "fleet/fleet_autoscaler.hpp"
#include "fleet/maglev.hpp"
#include "fleet/obs_merge.hpp"

namespace neat::fleet {
namespace {

net::FlowKey flow_of(std::uint32_t client, std::uint16_t cport,
                     std::uint16_t vport) {
  net::FlowKey k;
  k.local_ip = net::Ipv4Addr::of(10, 0, 0, 100);
  k.local_port = vport;
  k.remote_ip = net::Ipv4Addr{client};
  k.remote_port = cport;
  return k;
}

// ---------------------------------------------------------------------------
// MaglevTable
// ---------------------------------------------------------------------------

TEST(Maglev, TableIsAFunctionOfTheBackendSetNotJoinOrder) {
  MaglevTable a(97);
  MaglevTable b(97);
  for (int id : {0, 1, 2, 3}) a.add_backend(id);
  for (int id : {3, 1, 0, 2}) b.add_backend(id);
  EXPECT_EQ(a.entries(), b.entries());
}

TEST(Maglev, NonPrimeTableSizeIsRejectedInEveryBuild) {
  // The permutation skip must be coprime with the table size; a composite
  // size would leave entries unreachable, so the constructor refuses it
  // whether or not asserts are compiled in.
  EXPECT_THROW(MaglevTable(100), std::invalid_argument);
  EXPECT_THROW(MaglevTable(1), std::invalid_argument);
  EXPECT_NO_THROW(MaglevTable(101));
}

TEST(Maglev, EveryEntryAssignedAndNearBalanced) {
  MaglevTable t;  // default prime size 4099
  constexpr int kBackends = 8;
  for (int id = 0; id < kBackends; ++id) t.add_backend(id);
  std::vector<std::size_t> share(kBackends, 0);
  for (int e : t.entries()) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, kBackends);
    ++share[static_cast<std::size_t>(e)];
  }
  const double fair =
      static_cast<double>(t.size()) / static_cast<double>(kBackends);
  for (int id = 0; id < kBackends; ++id) {
    EXPECT_GT(static_cast<double>(share[static_cast<std::size_t>(id)]),
              0.8 * fair)
        << "backend " << id;
    EXPECT_LT(static_cast<double>(share[static_cast<std::size_t>(id)]),
              1.2 * fair)
        << "backend " << id;
  }
}

TEST(Maglev, RemovalDisturbsExactlyTheRemovedBackendsEntries) {
  MaglevTable t;
  constexpr int kBackends = 8;
  for (int id = 0; id < kBackends; ++id) t.add_backend(id);
  const std::vector<int> before = t.entries();

  t.remove_backend(3);
  const std::vector<int>& after = t.entries();
  ASSERT_EQ(before.size(), after.size());
  std::size_t changed = 0;
  std::size_t was_threes = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] == 3) ++was_threes;
    if (before[i] != after[i]) {
      ++changed;
      // Only slots the departed backend owned may change…
      EXPECT_EQ(before[i], 3) << "survivor lost slot " << i;
      // …and they must land on a survivor.
      EXPECT_NE(after[i], 3);
      EXPECT_GE(after[i], 0);
    }
  }
  EXPECT_EQ(changed, was_threes);
  // The removed share is ~M/N.
  EXPECT_LT(static_cast<double>(changed),
            1.2 * static_cast<double>(t.size()) / kBackends);
}

TEST(Maglev, AddGivesTheNewcomerAFairShare) {
  MaglevTable t;
  for (int id = 0; id < 7; ++id) t.add_backend(id);
  t.add_backend(7);
  std::size_t newcomer = 0;
  for (int e : t.entries()) {
    if (e == 7) ++newcomer;
  }
  const double fair = static_cast<double>(t.size()) / 8.0;
  EXPECT_GT(static_cast<double>(newcomer), 0.7 * fair);
  EXPECT_LT(static_cast<double>(newcomer), 1.3 * fair);
}

TEST(Maglev, LookupIsDeterministicAndEmptyTableSaysSo) {
  MaglevTable t(193);
  EXPECT_EQ(t.lookup(flow_of(1, 2, 3)), -1);
  t.add_backend(4);
  t.add_backend(9);
  const net::FlowKey f = flow_of(0x0a000202, 49200, 8000);
  const int first = t.lookup(f);
  EXPECT_TRUE(first == 4 || first == 9);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(t.lookup(f), first);
}

// ---------------------------------------------------------------------------
// Observability merge
// ---------------------------------------------------------------------------

TEST(ObsMerge, CountersGaugesAndHistogramsFold) {
  obs::Hub a;
  obs::Hub b;
  a.metrics.counter("x").inc(3);
  b.metrics.counter("x").inc(4);
  a.metrics.histogram("h").record(100);
  b.metrics.histogram("h").record(300);

  const std::vector<const obs::Hub*> hubs{&a, &b};
  EXPECT_EQ(summed_counter(hubs, "x"), 7u);
  const obs::Histogram h = merged_histogram(hubs, "h");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.max(), 300u);
  // Fleet quantiles come from the combined distribution (clamped to the
  // true maximum at q=1).
  EXPECT_EQ(h.quantile(1.0), 300u);
}

// ---------------------------------------------------------------------------
// Cluster fixtures
// ---------------------------------------------------------------------------

struct FleetRig {
  explicit FleetRig(FleetConfig cfg) : fleet(std::move(cfg)) {
    for (std::size_t i = 0; i < fleet.backend_count(); ++i) {
      FleetHost& b = fleet.backend(i);
      auto s = std::make_unique<PingServer>(
          fleet.sim, "ping" + std::to_string(b.id), *b.host, b.id);
      s->pin(b.app_thread());
      s->start(ports);
      servers.push_back(std::move(s));
    }
    fleet.set_adoption_handler(
        [this](FleetHost& to, StackReplica& rep,
               const std::vector<net::TcpSocketPtr>& adopted) {
          servers[static_cast<std::size_t>(to.id)]->adopt(rep, adopted);
        });
  }

  void add_client(FleetClient::Config cc) {
    const std::size_t j = clients.size();
    cc.vip = fleet.config().steering.vip;
    cc.ports = ports;
    FleetHost& c = fleet.client(j);
    auto cl = std::make_unique<FleetClient>(
        fleet.sim, "cli" + std::to_string(j), *c.host, std::move(cc));
    cl->pin(c.app_thread());
    clients.push_back(std::move(cl));
  }

  void start_and_run(sim::SimTime t) {
    for (auto& c : clients) c->start();
    fleet.sim.run_for(t);
  }

  // Apps are declared after the cluster, so they are destroyed first (the
  // SockLibs must unregister before their hosts die).
  FleetCluster fleet;
  std::vector<std::uint16_t> ports{8000, 8001, 8002, 8003};
  std::vector<std::unique_ptr<PingServer>> servers;
  std::vector<std::unique_ptr<FleetClient>> clients;
};

FleetConfig small_cluster(int backends, int clients, int standbys = 0) {
  FleetConfig fc;
  fc.seed = 11;
  fc.backends = backends;
  fc.standbys = standbys;
  fc.clients = clients;
  fc.replicas_per_backend = 2;
  fc.replicas_per_client = 2;
  return fc;
}

FleetClient::Config pinger_heavy(std::uint64_t conns) {
  FleetClient::Config cc;
  cc.total_conns = conns;
  cc.sample_every = 1;  // every connection pings
  cc.ping_interval = 2 * sim::kMillisecond;
  return cc;
}

// ---------------------------------------------------------------------------
// End-to-end steering
// ---------------------------------------------------------------------------

TEST(FleetCluster, ClientsReachTheVipAndFlowsPinToBackends) {
  FleetRig rig(small_cluster(2, 1));
  rig.add_client(pinger_heavy(64));
  rig.start_and_run(300 * sim::kMillisecond);

  const auto& st = rig.clients[0]->app_stats();
  EXPECT_EQ(st.connected, 64u);
  EXPECT_EQ(st.closed_reset, 0u);
  EXPECT_GT(st.responses, 64u);

  // The tier tracked every flow, and both backends ended up serving.
  const auto& ts = rig.fleet.steering().stats();
  EXPECT_GE(ts.flows_installed, 64u);
  EXPECT_EQ(ts.no_backend_drops, 0u);
  std::uint64_t served_total = 0;
  int backends_serving = 0;
  for (const auto& s : rig.servers) {
    served_total += s->app_stats().requests;
    if (s->app_stats().requests > 0) ++backends_serving;
  }
  // Every client response was served by a backend; at most one response
  // per pinger may still be in flight at the instant the sim stops.
  EXPECT_GE(served_total, st.responses);
  EXPECT_LE(served_total - st.responses, 64u);
  EXPECT_EQ(backends_serving, 2);

  // Responses attribute to real backend ids.
  for (const auto& [id, n] : st.per_host_responses) {
    EXPECT_TRUE(id == 0 || id == 1) << id;
    EXPECT_GT(n, 0u);
  }

  // RTTs record only after mark(); the fleet view merges the client hubs.
  rig.clients[0]->mark();
  rig.fleet.sim.run_for(100 * sim::kMillisecond);
  std::vector<const obs::Hub*> client_hubs;
  for (std::size_t j = 0; j < rig.fleet.client_count(); ++j) {
    client_hubs.push_back(rig.fleet.client(j).hub.get());
  }
  EXPECT_GT(merged_histogram(client_hubs, "fleet.rtt_ns").quantile(0.99), 0u);
}

TEST(FleetCluster, PerHostHubsKeepMetricsSeparable) {
  FleetRig rig(small_cluster(2, 1));
  rig.add_client(pinger_heavy(32));
  rig.start_and_run(200 * sim::kMillisecond);

  // Each backend recorded NIC activity on its own hub; the fleet view is
  // the merge, and it dominates each part.
  const auto hubs = rig.fleet.backend_hubs();
  ASSERT_EQ(hubs.size(), 2u);
  const std::uint64_t merged_rx = summed_counter(hubs, "nic.steer_rss");
  const std::uint64_t h0 = summed_counter({hubs[0]}, "nic.steer_rss");
  const std::uint64_t h1 = summed_counter({hubs[1]}, "nic.steer_rss");
  EXPECT_GT(h0, 0u);
  EXPECT_GT(h1, 0u);
  EXPECT_EQ(merged_rx, h0 + h1);
}

TEST(FleetCluster, EnabledTraceExportHoldsEveryBackendsHandshakes) {
  // Metrics stay per host, but trace events from every host land in the
  // simulation's one tracer — the one a bench exports.
  FleetRig rig(small_cluster(2, 1));
  rig.fleet.sim.tracer().set_enabled(true);
  rig.add_client(pinger_heavy(32));
  rig.start_and_run(100 * sim::kMillisecond);

  std::size_t handshakes = 0;
  for (const obs::TraceEvent& e : rig.fleet.sim.tracer().events()) {
    if (std::string_view(e.name) == "handshake_done") ++handshakes;
  }
  EXPECT_GE(handshakes, 32u);
  const std::uint64_t hub_handshakes =
      summed_counter(rig.fleet.backend_hubs(), "tcp.handshakes");
  EXPECT_EQ(handshakes, hub_handshakes)
      << "one trace event per handshake a backend hub counted";
  EXPECT_NE(rig.fleet.sim.tracer().chrome_json().find("\"handshake_done\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Crash detection + isolation
// ---------------------------------------------------------------------------

TEST(FleetCluster, ProberEvictsACrashedHostAndSurvivorsKeepServing) {
  FleetRig rig(small_cluster(3, 1));
  rig.add_client(pinger_heavy(90));
  rig.fleet.start_health_probing();

  rig.start_and_run(250 * sim::kMillisecond);
  rig.fleet.crash_host(0);

  const std::uint64_t served_before_1 = rig.servers[1]->app_stats().requests;
  const std::uint64_t served_before_2 = rig.servers[2]->app_stats().requests;
  const std::uint64_t victim_served = rig.servers[0]->app_stats().requests;
  EXPECT_GT(victim_served, 0u);

  rig.fleet.sim.run_for(600 * sim::kMillisecond);

  // Detection: declared down within the probe budget, pulled from the
  // table; the maglev remap sends new flows to survivors only.
  const auto& ts = rig.fleet.steering().stats();
  EXPECT_EQ(ts.backends_declared_down, 1u);
  EXPECT_FALSE(rig.fleet.steering().has_backend(0));
  EXPECT_TRUE(rig.fleet.steering().has_backend(1));
  EXPECT_TRUE(rig.fleet.steering().has_backend(2));

  // Blast radius: the victim served nothing after the crash...
  EXPECT_EQ(rig.servers[0]->app_stats().requests, victim_served);
  // ...while both survivors kept serving.
  EXPECT_GT(rig.servers[1]->app_stats().requests, served_before_1);
  EXPECT_GT(rig.servers[2]->app_stats().requests, served_before_2);

  // The victim's clients were flushed out via RST (retry → survivor →
  // RST), none of the survivors' connections died.
  const auto& st = rig.clients[0]->app_stats();
  EXPECT_GT(st.closed_reset, 0u);
  EXPECT_GT(st.retries, 0u);
  const std::uint64_t live = rig.clients[0]->live_connections();
  EXPECT_EQ(live + st.closed_reset, st.connected);
}

// ---------------------------------------------------------------------------
// Join stability
// ---------------------------------------------------------------------------

TEST(FleetCluster, EstablishedFlowsSurviveAStandbyJoining) {
  FleetRig rig(small_cluster(2, 1, /*standbys=*/1));
  rig.add_client(pinger_heavy(64));
  rig.start_and_run(200 * sim::kMillisecond);

  const auto& tier = rig.fleet.steering();
  ASSERT_EQ(rig.clients[0]->app_stats().connected, 64u);
  const std::size_t tracked_before = tier.tracked_flow_count();
  ASSERT_GT(tracked_before, 0u);

  // Record every flow's pin, then bring the standby into the table.
  std::vector<std::pair<net::FlowKey, int>> pins;
  for (int b : {0, 1}) {
    for (const auto& f : tier.tracked_flows_for(b)) pins.emplace_back(f, b);
  }
  rig.fleet.activate_backend(2);
  rig.fleet.sim.run_for(300 * sim::kMillisecond);

  // Conntrack pins outrank the (rebuilt) maglev table: no tracked flow
  // moved, no connection reset.
  for (const auto& [f, b] : pins) {
    const auto now_pinned = tier.tracked_backend(f);
    ASSERT_TRUE(now_pinned.has_value());
    EXPECT_EQ(*now_pinned, b);
  }
  EXPECT_EQ(rig.clients[0]->app_stats().closed_reset, 0u);
  // The newcomer is in the table and picks up new flows from now on (not
  // asserted: no new flows are opened in this test), while old responses
  // keep flowing.
  EXPECT_TRUE(tier.has_backend(2));
  EXPECT_GT(rig.clients[0]->app_stats().responses, 0u);
}

// ---------------------------------------------------------------------------
// Cross-host live migration
// ---------------------------------------------------------------------------

TEST(FleetCluster, DrainMovesEveryConnectionAndServiceContinues) {
  FleetRig rig(small_cluster(2, 1));
  rig.add_client(pinger_heavy(64));
  rig.start_and_run(200 * sim::kMillisecond);

  const std::size_t on_src = rig.fleet.backend_connections(0);
  const std::size_t on_dst = rig.fleet.backend_connections(1);
  ASSERT_GT(on_src, 0u);
  const std::uint64_t responses_before =
      rig.clients[0]->app_stats().responses;

  std::size_t moved = 0;
  rig.fleet.drain_host(0, 1, [&moved](std::size_t n) { moved = n; });
  rig.fleet.sim.run_for(400 * sim::kMillisecond);

  // Everything moved; the source is empty and out of the table.
  EXPECT_EQ(moved, on_src);
  EXPECT_EQ(rig.fleet.backend_connections(0), 0u);
  EXPECT_EQ(rig.fleet.backend_connections(1), on_src + on_dst);
  EXPECT_FALSE(rig.fleet.steering().has_backend(0));

  // The adopting host wired the sockets into fresh fds; the source's
  // libraries dropped exactly the moved fds as kMigratedAway husks.
  EXPECT_EQ(rig.servers[1]->app_stats().adopted, on_src);
  EXPECT_EQ(rig.servers[0]->app_stats().migrated_away, on_src);

  // Byte-exact continuation: every connection keeps pinging and no client
  // connection was reset — the moved streams resumed mid-flight, and all
  // post-drain responses come from the adopting host.
  const auto& st = rig.clients[0]->app_stats();
  EXPECT_EQ(st.closed_reset, 0u);
  EXPECT_EQ(st.closed_migrated, 0u);
  EXPECT_GT(st.responses, responses_before);
  rig.clients[0]->mark();
  rig.fleet.sim.run_for(100 * sim::kMillisecond);
  const auto& window = rig.clients[0]->window_responses();
  ASSERT_TRUE(window.contains(1));
  EXPECT_GT(window.at(1), 0u);
  EXPECT_FALSE(window.contains(0));

  // Re-activating the drained host puts it back in rotation (it kept its
  // listeners; it simply has no connections).
  rig.fleet.activate_backend(0);
  EXPECT_TRUE(rig.fleet.steering().has_backend(0));
}

// ---------------------------------------------------------------------------
// Fleet autoscaler
// ---------------------------------------------------------------------------

TEST(FleetAutoScalerTest, HotFleetActivatesTheStandbyExactlyOnce) {
  FleetRig rig(small_cluster(2, 1, /*standbys=*/1));
  rig.add_client(pinger_heavy(32));
  AutoScaler::Policy pol;
  pol.scale_up_threshold = -1.0;   // any utilization counts as hot
  pol.scale_down_threshold = -2.0; // never cold
  pol.period = 100 * sim::kMillisecond;
  pol.cooldown = 100 * sim::kMillisecond;
  FleetAutoScaler scaler(rig.fleet, pol);
  scaler.start();

  ASSERT_FALSE(rig.fleet.steering().has_backend(2));
  rig.start_and_run(500 * sim::kMillisecond);

  // The one standby joined the table; with no candidates left, the scaler
  // stays hot but can do nothing more.
  EXPECT_EQ(scaler.host_activations(), 1u);
  EXPECT_EQ(scaler.host_drains(), 0u);
  EXPECT_TRUE(rig.fleet.steering().has_backend(2));
  EXPECT_GE(scaler.last_fleet_utilization(), 0.0);
}

TEST(FleetAutoScalerTest, ColdFleetDrainsDownToMinHosts) {
  FleetRig rig(small_cluster(3, 1));
  rig.add_client(pinger_heavy(48));
  AutoScaler::Policy pol;
  pol.scale_up_threshold = 1.5;   // never hot
  pol.scale_down_threshold = 2.0; // any utilization counts as cold
  pol.min_units = 2;
  pol.period = 100 * sim::kMillisecond;
  pol.cooldown = 100 * sim::kMillisecond;
  FleetAutoScaler scaler(rig.fleet, pol);
  scaler.start();

  rig.start_and_run(600 * sim::kMillisecond);

  // Exactly one host drained (down to the floor), its connections moved,
  // and nobody's connection died in the process.
  EXPECT_EQ(scaler.host_drains(), 1u);
  int in_table = 0;
  std::size_t drained = 99;
  for (std::size_t i = 0; i < 3; ++i) {
    if (rig.fleet.steering().has_backend(static_cast<int>(i))) {
      ++in_table;
    } else {
      drained = i;
    }
  }
  EXPECT_EQ(in_table, 2);
  ASSERT_LT(drained, 3u);
  EXPECT_EQ(rig.fleet.backend_connections(drained), 0u);
  const auto& st = rig.clients[0]->app_stats();
  EXPECT_EQ(st.closed_reset, 0u);
  EXPECT_EQ(rig.clients[0]->live_connections(), st.connected);
}

TEST(FleetAutoScalerTest, PerHostLoopsPublishToTheirOwnHub) {
  // Regression: every host-level loop wrote its autoscaler.* gauges to the
  // simulator-global hub, so backends sharing a fleet overwrote each other
  // and the last one to tick won.
  FleetConfig fc = small_cluster(2, 1);
  fc.spare_replicas_per_backend = 1;
  FleetRig rig(fc);
  NeatHost& h0 = *rig.fleet.backend(0).host;
  NeatHost& h1 = *rig.fleet.backend(1).host;
  h1.add_replica(rig.fleet.spare_pins(1)[0]);
  ASSERT_EQ(h0.active_replicas().size(), 2u);
  ASSERT_EQ(h1.active_replicas().size(), 3u);

  AutoScaler::Policy pol;
  pol.min_units = 3;  // the fleet is idle: neither loop may act
  AutoScaler s0(h0, rig.fleet.spare_pins(0), pol);
  AutoScaler s1(h1, {}, pol);
  s0.start();
  s1.start();
  rig.fleet.sim.run_for(120 * sim::kMillisecond);
  ASSERT_EQ(s0.scale_ups() + s0.scale_downs() + s1.scale_ups() +
                s1.scale_downs(),
            0u);

  for (std::size_t i = 0; i < 2; ++i) {
    FleetHost& b = rig.fleet.backend(i);
    const auto* g = b.hub->metrics.find_gauge("autoscaler.replicas_active");
    ASSERT_NE(g, nullptr) << "backend " << i;
    EXPECT_EQ(static_cast<std::size_t>(g->value()),
              b.host->active_replicas().size())
        << "backend " << i;
  }
  for (const auto& [name, g] : rig.fleet.sim.metrics().gauges()) {
    EXPECT_FALSE(std::string_view(name).starts_with("autoscaler."))
        << name << " leaked onto the simulator-global hub";
  }
}

}  // namespace
}  // namespace neat::fleet
