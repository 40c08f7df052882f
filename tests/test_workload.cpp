// Workload-engine tests: deterministic arrival/size models, open-loop
// coordinated-omission accounting, scenario reproducibility, NIC filter
// retirement on FIN, AutoScaler observability export, the Testbed teardown
// contract, and the connection-churn leak soak.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "harness/testbed.hpp"
#include "socklib/socklib.hpp"
#include "wl/adversary.hpp"
#include "wl/arrival.hpp"
#include "wl/scenario.hpp"
#include "wl/session.hpp"

namespace neat::wl {
namespace {

using harness::build_client;
using harness::build_neat_server;
using harness::ClientOptions;
using harness::ClientRig;
using harness::kBasePort;
using harness::kClientIp;
using harness::kServerIp;
using harness::NeatServerOptions;
using harness::prepopulate_arp;
using harness::ServerRig;
using harness::Testbed;
using harness::TestbedDependent;

// ---------------------------------------------------------------------------
// Arrival models
// ---------------------------------------------------------------------------

std::vector<sim::SimTime> draw(const ArrivalModel& m, std::uint64_t seed,
                               std::size_t n) {
  ArrivalSampler s(m, sim::Rng(seed));
  std::vector<sim::SimTime> out;
  sim::SimTime t = 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(t = s.next_after(t));
  return out;
}

TEST(Arrival, SameSeedSameTrainDifferentSeedDifferent) {
  const auto m = ArrivalModel::poisson(10000.0);
  EXPECT_EQ(draw(m, 7, 500), draw(m, 7, 500));
  EXPECT_NE(draw(m, 7, 500), draw(m, 8, 500));
}

TEST(Arrival, PoissonHitsItsMeanRate) {
  const auto train = draw(ArrivalModel::poisson(10000.0), 3, 20000);
  const double secs = sim::to_seconds(train.back());
  const double rate = 20000.0 / secs;
  EXPECT_NEAR(rate, 10000.0, 500.0);
}

TEST(Arrival, MmppAlternatesBetweenRates) {
  // Burst rate 20x base: the train must contain both sparse and dense
  // stretches — compare gap quantiles.
  const auto m = ArrivalModel::mmpp(1000.0, 20000.0, 50 * sim::kMillisecond,
                                    50 * sim::kMillisecond);
  const auto train = draw(m, 11, 20000);
  std::vector<sim::SimTime> gaps;
  for (std::size_t i = 1; i < train.size(); ++i) {
    gaps.push_back(train[i] - train[i - 1]);
  }
  std::sort(gaps.begin(), gaps.end());
  const auto p10 = gaps[gaps.size() / 10];
  const auto p90 = gaps[gaps.size() * 9 / 10];
  EXPECT_GT(p90, p10 * 8) << "gap spread too small for a 20x MMPP";
}

TEST(Arrival, FlashCrowdRateFollowsRampHoldDecay) {
  auto m = ArrivalModel::flash_crowd(
      1000.0, 50000.0, /*at=*/100 * sim::kMillisecond,
      /*ramp=*/50 * sim::kMillisecond, /*hold=*/200 * sim::kMillisecond,
      /*decay=*/100 * sim::kMillisecond);
  ArrivalSampler s(m, sim::Rng(1));
  EXPECT_DOUBLE_EQ(s.rate_at(50 * sim::kMillisecond), 1000.0);
  EXPECT_NEAR(s.rate_at(125 * sim::kMillisecond), 25500.0, 1.0);  // mid-ramp
  EXPECT_DOUBLE_EQ(s.rate_at(200 * sim::kMillisecond), 50000.0);  // hold
  EXPECT_DOUBLE_EQ(s.rate_at(500 * sim::kMillisecond), 1000.0);   // after
  EXPECT_DOUBLE_EQ(m.max_rate(), 50000.0);
}

// ---------------------------------------------------------------------------
// Size + session models
// ---------------------------------------------------------------------------

TEST(SizeModel, ParetoRespectsBoundsAndIsHeavyTailed) {
  const auto m = SizeModel::pareto(200.0, 1.2, 1 << 20);
  sim::Rng rng(5);
  std::uint64_t total = 0;
  std::size_t biggest = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t s = m.sample(rng);
    ASSERT_GE(s, 200u);
    ASSERT_LE(s, std::size_t{1} << 20);
    total += s;
    biggest = std::max(biggest, s);
  }
  const double mean = static_cast<double>(total) / 20000.0;
  // alpha=1.2, xm=200 -> untruncated mean 1200; truncation pulls it down.
  EXPECT_GT(mean, 400.0);
  EXPECT_GT(biggest, 100'000u) << "no tail: not Pareto";
}

TEST(SizeModel, DeterministicGivenSeed) {
  const auto m = SizeModel::log_normal(9.0, 1.0, 1 << 18);
  sim::Rng a(9);
  sim::Rng b(9);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(m.sample(a), m.sample(b));
}

TEST(SessionModel, GeometricTrainsHaveTheRequestedMean) {
  SessionModel sm;
  sm.requests_per_session = 8;
  sm.geometric = true;
  sim::Rng rng(13);
  std::uint64_t total = 0;
  for (int i = 0; i < 20000; ++i) total += sm.sample_requests(rng);
  EXPECT_NEAR(static_cast<double>(total) / 20000.0, 8.0, 0.5);
}

// ---------------------------------------------------------------------------
// Open-loop scenarios end to end
// ---------------------------------------------------------------------------

Scenario tiny_scenario() {
  Scenario sc;
  sc.name = "tiny";
  sc.seed = 31337;
  sc.replicas = 2;
  sc.warmup = 100 * sim::kMillisecond;
  sc.measure = 200 * sim::kMillisecond;
  TenantSpec web;
  web.name = "web";
  web.arrival = ArrivalModel::poisson(4000.0);
  web.session.requests_per_session = 2;
  web.session.abandon_after = 1 * sim::kSecond;
  web.sizes = SizeModel::fixed_size(512);
  web.slo = 20 * sim::kMillisecond;
  TenantSpec api;
  api.name = "api";
  api.arrival = ArrivalModel::poisson(6000.0);
  api.sizes = SizeModel::fixed_size(128);
  api.slo = 10 * sim::kMillisecond;
  sc.tenants = {web, api};
  return sc;
}

TEST(ScenarioRun, ServesTenantsAndRecordsCoCorrectedLatency) {
  const ScenarioResult r = run_scenario(tiny_scenario());
  ASSERT_EQ(r.tenants.size(), 2u);
  for (const TenantResult& t : r.tenants) {
    EXPECT_GT(t.sessions_started, 100u) << t.name;
    EXPECT_GT(t.requests, 200u) << t.name;
    EXPECT_GT(t.sessions_completed, 0u) << t.name;
    EXPECT_EQ(t.bad_status, 0u) << t.name;
    EXPECT_GT(t.p99_ms, 0.0) << t.name;
    // CO-corrected latency measures from the intended epoch, which never
    // trails the actual send: corrected >= wire-clock, always.
    EXPECT_GE(t.p99_ms, t.raw_p99_ms * 0.9) << t.name;
  }
  EXPECT_GE(r.max_replicas, 2u);
}

TEST(ScenarioRun, IdenticalSeedsReproduceIdenticalRuns) {
  const ScenarioResult a = run_scenario(tiny_scenario());
  const ScenarioResult b = run_scenario(tiny_scenario());
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].sessions_started, b.tenants[i].sessions_started);
    EXPECT_EQ(a.tenants[i].requests, b.tenants[i].requests);
    EXPECT_EQ(a.tenants[i].sessions_completed,
              b.tenants[i].sessions_completed);
    EXPECT_DOUBLE_EQ(a.tenants[i].p999_ms, b.tenants[i].p999_ms);
  }
  Scenario other = tiny_scenario();
  other.seed = 4;
  const ScenarioResult c = run_scenario(other);
  EXPECT_NE(a.tenants[0].requests, c.tenants[0].requests)
      << "different seed should perturb the run";
}

TEST(ScenarioRun, TenantHistogramsLandInTheHub) {
  // The per-tenant latency series must be visible through the obs registry
  // under wl.<tenant>.*, not only in the client's private report — that is
  // what ties workloads into dashboards. Smoke-check via a scenario that
  // also exercises the builtin registry.
  const auto& lib = builtin_scenarios();
  ASSERT_GE(lib.size(), 5u);
  std::set<std::string> names;
  for (const auto& s : lib) names.insert(s.name);
  EXPECT_TRUE(names.contains("flash_crowd"));
  EXPECT_TRUE(names.contains("syn_flood"));
  EXPECT_TRUE(names.contains("churn_storm"));
}

// ---------------------------------------------------------------------------
// NIC tracking-filter retirement on FIN
// ---------------------------------------------------------------------------

TEST(FilterRetirement, FinRetiresTrackingFiltersAfterLinger) {
  Testbed::Config cfg;
  cfg.seed = 2024;
  cfg.server_nic.fin_retire_linger = 800 * sim::kMillisecond;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  so.tracking_filters = true;
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 2;
  co.concurrency_per_gen = 8;
  co.requests_per_conn = 5;  // short conns: plenty of FINs
  co.max_conns = 50;         // bounded: the run goes fully idle
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);

  tb.sim.run_for(400 * sim::kMillisecond);
  const auto filters_at_quiesce = tb.server_nic.flow_filter_count();
  EXPECT_GT(tb.server_nic.stats().filters_installed, 0u);

  // All conns FINished; before the linger elapses filters may remain, but
  // afterwards every one must be retired — a dead flow's filter slot is
  // exactly what a SYN-flood needs to evict live state.
  tb.sim.run_for(1200 * sim::kMillisecond);
  EXPECT_EQ(tb.server_nic.flow_filter_count(), 0u)
      << filters_at_quiesce << " filters at quiesce";
  EXPECT_GT(tb.server_nic.stats().filters_retired, 0u);
}

TEST(FilterRetirement, ShortLingerDoesNotLeakViaStragglerRefault) {
  // Regression: with fin_retire_linger < TIME_WAIT (500ms), the filter
  // retires while the close handshake's stragglers (peer FIN/final ACK)
  // are still arriving. Those used to hit the refault path and re-install
  // the dead flow's filter — which nothing ever retired again. The NIC's
  // dead-flow memory must suppress exactly those refaults.
  Testbed::Config cfg;
  cfg.seed = 2025;
  cfg.server_nic.fin_retire_linger = 100 * sim::kMillisecond;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  so.tracking_filters = true;
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 2;
  co.concurrency_per_gen = 8;
  co.requests_per_conn = 5;
  co.max_conns = 50;
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);

  tb.sim.run_for(400 * sim::kMillisecond);
  EXPECT_GT(tb.server_nic.stats().filters_installed, 0u);

  // Idle long enough for every linger and the dead-flow memory to run out.
  tb.sim.run_for(2500 * sim::kMillisecond);
  EXPECT_EQ(tb.server_nic.flow_filter_count(), 0u)
      << "straggler refaults must not resurrect retired filters";
  EXPECT_GT(tb.server_nic.stats().filters_retired, 0u);
}

// ---------------------------------------------------------------------------
// AutoScaler observability export
// ---------------------------------------------------------------------------

TEST(AutoScalerObs, ExportsGaugesAndCountersToTheHub) {
  Testbed::Config cfg;
  cfg.seed = 606;
  cfg.server_nic.tracking_filters = true;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.replicas = 1;
  so.webs = 4;
  ServerRig server = build_neat_server(tb, so);

  AutoScaler::Policy policy;
  policy.scale_up_threshold = 0.80;
  policy.scale_down_threshold = 0.20;
  AutoScaler scaler(*server.neat,
                    {{&tb.server_machine.thread(5)},
                     {&tb.server_machine.thread(4)}},
                    policy);
  scaler.start();

  ClientOptions co;
  co.generators = 4;
  co.concurrency_per_gen = 32;
  ClientRig client = build_client(tb, co, 4);
  prepopulate_arp(server, client);

  tb.sim.run_for(600 * sim::kMillisecond);
  ASSERT_GT(scaler.scale_ups(), 0u);

  auto& m = tb.sim.metrics();
  const auto* ups = m.find_counter("autoscaler.scale_ups");
  ASSERT_NE(ups, nullptr);
  EXPECT_EQ(ups->value(), scaler.scale_ups());
  const auto* active = m.find_gauge("autoscaler.replicas_active");
  ASSERT_NE(active, nullptr);
  EXPECT_DOUBLE_EQ(active->value(),
                   static_cast<double>(server.neat->active_replicas().size()));
  ASSERT_NE(m.find_gauge("autoscaler.mean_utilization"), nullptr);
  ASSERT_NE(m.find_gauge("autoscaler.spare_pins"), nullptr);

  // Load vanishes -> scale-down + lazy termination become visible too.
  for (auto& g : client.gens) g->config().max_conns = 1;
  tb.sim.run_for(1500 * sim::kMillisecond);
  const auto* downs = m.find_counter("autoscaler.scale_downs");
  ASSERT_NE(downs, nullptr);
  EXPECT_EQ(downs->value(), scaler.scale_downs());
  EXPECT_GT(downs->value(), 0u);
  const auto* lazy = m.find_counter("neat.lazy_terminations");
  ASSERT_NE(lazy, nullptr);
  EXPECT_GT(lazy->value(), 0u);
}

// ---------------------------------------------------------------------------
// Testbed teardown contract
// ---------------------------------------------------------------------------

TEST(TestbedContract, RigsHoldDependentTokensUntilDestroyed) {
  Testbed tb{Testbed::Config{}};
  EXPECT_EQ(tb.dependent_count(), 0u);
  {
    TestbedDependent t1 = tb.depend();
    TestbedDependent t2 = tb.depend();
    EXPECT_EQ(tb.dependent_count(), 2u);
    TestbedDependent moved = std::move(t1);
    EXPECT_EQ(tb.dependent_count(), 2u) << "move must not double-count";
    t2.release();
    EXPECT_EQ(tb.dependent_count(), 1u);
  }
  EXPECT_EQ(tb.dependent_count(), 0u);
  {
    NeatServerOptions so;
    so.replicas = 1;
    so.webs = 1;
    ServerRig rig = build_neat_server(tb, so);
    EXPECT_EQ(tb.dependent_count(), 1u) << "rigs must register themselves";
  }
  EXPECT_EQ(tb.dependent_count(), 0u)
      << "destroying the rig must release its token";
}

// ---------------------------------------------------------------------------
// Connection-churn soak (run under ASan by scripts/check.sh)
// ---------------------------------------------------------------------------

TEST(ChurnSoak, ThousandsOfOpenCloseCyclesLeakNoSocketsOrFilters) {
  Testbed::Config cfg;
  cfg.seed = 777;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.replicas = 2;
  so.webs = 1;
  so.tracking_filters = true;
  ServerRig server = build_neat_server(tb, so);

  struct ClientSide {
    TestbedDependent token;
    std::unique_ptr<NeatHost> host;
    std::unique_ptr<ChurnStorm> storm;
  } cs;
  cs.token = tb.depend();
  NeatHost::Config hc;
  // 6000 conns through a 16k ephemeral pool: TIME_WAIT reuse is load-
  // bearing here, exactly like the stock client rig (tcp_tw_reuse).
  hc.tcp.time_wait = 50 * sim::kMillisecond;
  cs.host = std::make_unique<NeatHost>(tb.sim, tb.client_machine,
                                       tb.client_nic, hc);
  cs.host->os_process().pin(tb.client_machine.thread(0));
  cs.host->syscall().pin(tb.client_machine.thread(1));
  cs.host->driver().pin(tb.client_machine.thread(2));
  cs.host->add_replica({&tb.client_machine.thread(3)});
  cs.host->add_replica({&tb.client_machine.thread(4)});

  ChurnStorm::Config cc;
  cc.server = net::SockAddr{kServerIp, kBasePort};
  cc.rate = 20000.0;
  cc.request_before_close = true;
  cs.storm = std::make_unique<ChurnStorm>(tb.sim, "churn", cc);
  cs.storm->pin(tb.client_machine.thread(5));
  cs.storm->attach_api(
      std::make_unique<socklib::SockLib>(*cs.storm, *cs.host));

  for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
    server.neat->replica(i).ip_layer_ref().arp().insert(
        kClientIp, net::MacAddr::local(2));
  }
  for (std::size_t i = 0; i < cs.host->replica_count(); ++i) {
    cs.host->replica(i).ip_layer_ref().arp().insert(kServerIp,
                                                    net::MacAddr::local(1));
  }

  cs.storm->start();
  tb.sim.run_for(300 * sim::kMillisecond);
  cs.storm->stop();
  EXPECT_GT(cs.storm->stats().opened, 3000u) << "storm too feeble to soak";

  // Drain: in-flight closes, TIME_WAIT (500ms server side), and the NIC
  // FIN-retirement linger (1s) must all run out, leaving *nothing*.
  tb.sim.run_for(1800 * sim::kMillisecond);
  EXPECT_EQ(cs.storm->in_flight(), 0u);
  auto& lib = static_cast<socklib::SockLib&>(cs.storm->api());
  EXPECT_EQ(lib.open_sockets(), 0u) << "leaked client sockets";
  for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
    EXPECT_EQ(server.neat->replica(i).tcp().active_connection_count(), 0u)
        << "server replica " << i << " leaked connections";
  }
  for (std::size_t i = 0; i < cs.host->replica_count(); ++i) {
    EXPECT_EQ(cs.host->replica(i).tcp().active_connection_count(), 0u)
        << "client replica " << i << " leaked connections";
  }
  EXPECT_EQ(tb.server_nic.flow_filter_count(), 0u)
      << "leaked NIC tracking filters";
  EXPECT_GT(tb.server_nic.stats().filters_retired, 1000u)
      << "retirement path barely exercised";
}

}  // namespace
}  // namespace neat::wl
