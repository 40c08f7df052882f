// Application- and harness-level tests: HttpServer behaviours (keep-alive
// limits, 404s, pipelining), the HTTP client engine (closed-loop controls,
// httperf accounting, open-loop think time and body checks), and the
// placement generators that encode the paper's Figures 6, 8 and 10.
#include <gtest/gtest.h>

#include <set>

#include "harness/testbed.hpp"

namespace neat::harness {
namespace {

struct AppsFixture : public ::testing::Test {
  void build(int webs = 1, std::function<void(NeatServerOptions&)> mod = {}) {
    open.reset();
    client.reset();  // rigs pin processes to the old testbed's hw threads
    server.reset();
    tb.reset();
    Testbed::Config cfg;
    cfg.seed = 13;
    tb = std::make_unique<Testbed>(cfg);
    NeatServerOptions so;
    so.replicas = 1;
    so.webs = webs;
    so.files = {{"/file20", 20}, {"/big", 4096}};
    if (mod) mod(so);
    server = std::make_unique<ServerRig>(build_neat_server(*tb, so));
  }

  /// An open-loop client for web 0 on a generator-less client rig.
  wl::OpenLoopClient& build_open(wl::OpenLoopClient::Config oc) {
    ClientOptions co;
    co.generators = 0;
    client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
    oc.server = net::SockAddr{kServerIp, kBasePort};
    open = std::make_unique<wl::OpenLoopClient>(tb->sim, "open", oc);
    open->pin(tb->client_machine.thread(3 + co.stack_replicas));
    open->attach_api(std::make_unique<socklib::SockLib>(*open, *client->host));
    prepopulate_arp(*server, *client);
    open->start();
    return *open;
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<ServerRig> server;
  std::unique_ptr<ClientRig> client;
  std::unique_ptr<wl::OpenLoopClient> open;
};

void expect_sessions_conserved(const wl::OpenLoopClient& c) {
  const auto& r = c.report();
  EXPECT_EQ(r.sessions_started, r.sessions_completed + r.sessions_failed +
                                    r.sessions_abandoned +
                                    c.in_flight_sessions());
}

TEST_F(AppsFixture, NotFoundReturns404WithoutKillingTheConnection) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.requests_per_conn = 10;
  co.path = "/missing";
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(200 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  EXPECT_GT(r.bad_status, 0u) << "404s must flow back as responses";
  EXPECT_GT(server->webs[0]->app_stats().not_found, 0u);
  EXPECT_GT(r.committed_requests, 10u)
      << "keep-alive continues across 404 responses";
}

TEST_F(AppsFixture, KeepAliveLimitClosesConnectionCleanly) {
  build(1, [](NeatServerOptions&) {});
  server->webs[0]->max_requests_per_conn = 5;  // tiny lighttpd limit
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.requests_per_conn = 100;  // client wants more than the server allows
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(300 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  // The server hangs up after 5 requests; httperf counts those
  // connections as errored (premature close), yet service continues.
  EXPECT_GT(server->webs[0]->app_stats().requests, 50u);
  EXPECT_GT(r.error_conns, 0u);
}

TEST_F(AppsFixture, MaxConnsStopsTheGenerator) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 4;
  co.requests_per_conn = 3;
  co.max_conns = 6;
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(400 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  EXPECT_EQ(r.sessions_completed + r.error_conns, 6u);
  EXPECT_EQ(r.committed_requests, 6u * 3u);
  EXPECT_EQ(client->gens[0]->in_flight_sessions(), 0u);
}

TEST_F(AppsFixture, ThinkTimeThrottlesOfferedLoad) {
  auto run_with_think = [&](sim::SimTime think) {
    build();
    ClientOptions co;
    co.generators = 1;
    co.concurrency_per_gen = 4;
    client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
    for (auto& g : client->gens) g->config().session.think_time = think;
    prepopulate_arp(*server, *client);
    tb->sim.run_for(100 * sim::kMillisecond);
    client->mark();
    tb->sim.run_for(200 * sim::kMillisecond);
    return client->gens[0]->report().committed_requests;
  };
  const auto fast = run_with_think(0);
  const auto slow = run_with_think(2 * sim::kMillisecond);
  // 4 connections at ~2ms/request => ~2k requests/s => ~400 in 200ms.
  EXPECT_LT(slow, fast / 4);
  EXPECT_NEAR(static_cast<double>(slow), 400.0, 200.0);
}

TEST_F(AppsFixture, LargerFilesYieldMultiSegmentResponses) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.path = "/big";
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(200 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  EXPECT_GT(r.committed_requests, 100u);
  EXPECT_GT(r.committed_bytes, r.committed_requests * 4000u);
  EXPECT_EQ(r.bad_status, 0u);
}

TEST_F(AppsFixture, ClosedLoopLatencyIsWireLatency) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 4;
  co.requests_per_conn = 10;
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(200 * sim::kMillisecond);
  // Closed users have no schedule: each request is intended when sent, so
  // connect time and think time stay out of the latency record.
  const auto& r = client->gens[0]->report();
  ASSERT_GT(r.latency.count(), 100u);
  EXPECT_EQ(r.latency.count(), r.raw_latency.count());
  EXPECT_EQ(r.latency.quantile(0.50), r.raw_latency.quantile(0.50));
  EXPECT_EQ(r.latency.quantile(0.99), r.raw_latency.quantile(0.99));
  expect_sessions_conserved(*client->gens[0]);
}

TEST_F(AppsFixture, FailedClosedSessionsUseHttperfAccounting) {
  build();
  server->webs[0]->max_requests_per_conn = 5;
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 2;
  co.requests_per_conn = 100;
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(300 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  ASSERT_GT(r.sessions_failed, 5u);
  EXPECT_EQ(r.error_conns, r.sessions_failed);
  // Every session is cut short, so only the live ones' requests remain
  // committed; the completed count keeps them all.
  EXPECT_GE(r.requests_completed, 5u * r.sessions_failed);
  EXPECT_LE(r.committed_requests, 5u * client->gens[0]->in_flight_sessions());
  // No lower-bound samples: one latency sample per completed request.
  EXPECT_EQ(r.latency.count(), r.requests_completed);
  expect_sessions_conserved(*client->gens[0]);
}

TEST_F(AppsFixture, ClosedSessionsKilledMidRequestRecordNoLowerBound) {
  build();
  ClientOptions co;
  co.generators = 1;
  co.concurrency_per_gen = 8;
  client = std::make_unique<ClientRig>(build_client(*tb, co, 1));
  prepopulate_arp(*server, *client);
  tb->sim.run_for(50 * sim::kMillisecond);
  // The recovered replica knows none of the old connections: requests in
  // flight at the crash end in resets.
  server->neat->inject_crash(server->neat->replica(0), Component::kWhole);
  tb->sim.run_for(400 * sim::kMillisecond);
  const auto& r = client->gens[0]->report();
  ASSERT_GT(r.sessions_failed, 0u);
  EXPECT_EQ(r.error_conns, r.sessions_failed);
  EXPECT_EQ(r.latency.count(), r.requests_completed);
  expect_sessions_conserved(*client->gens[0]);
}

TEST_F(AppsFixture, OpenLoopSessionsAreConserved) {
  build();
  server->webs[0]->max_requests_per_conn = 3;
  wl::OpenLoopClient::Config oc;
  oc.arrival = wl::ArrivalModel::poisson(4000.0);
  oc.session.requests_per_session = 4;  // beyond the server's limit
  oc.session.geometric = true;
  oc.session.abandon_after = 2 * sim::kMillisecond;
  wl::OpenLoopClient& c = build_open(oc);
  for (int i = 0; i < 20; ++i) {
    tb->sim.run_for(10 * sim::kMillisecond);
    expect_sessions_conserved(c);
  }
  const auto& r = c.report();
  EXPECT_GT(r.sessions_completed, 0u);
  EXPECT_GT(r.sessions_failed, 0u);
  EXPECT_EQ(r.error_conns, r.sessions_failed);
}

TEST_F(AppsFixture, OpenLoopThinkTimePrecedesTheFirstRequest) {
  build();
  wl::OpenLoopClient::Config oc;
  oc.arrival = wl::ArrivalModel::poisson(1000.0);
  oc.session.think_time = 50 * sim::kMillisecond;
  wl::OpenLoopClient& c = build_open(oc);
  tb->sim.run_for(40 * sim::kMillisecond);
  EXPECT_GT(c.report().sessions_started, 10u);
  EXPECT_EQ(c.report().requests_completed, 0u);
  tb->sim.run_for(60 * sim::kMillisecond);
  EXPECT_GT(c.report().requests_completed, 0u);
}

TEST_F(AppsFixture, OpenLoopChecksBodiesAgainstTheExpectedFile) {
  for (const bool tamper : {false, true}) {
    build();
    std::vector<std::uint8_t> want = *server->files->lookup("/file20");
    if (tamper) want[7] ^= 0xff;
    wl::OpenLoopClient::Config oc;
    oc.arrival = wl::ArrivalModel::poisson(2000.0);
    oc.expect_body = &want;
    wl::OpenLoopClient& c = build_open(oc);
    tb->sim.run_for(100 * sim::kMillisecond);
    ASSERT_GT(c.report().requests_completed, 50u);
    if (tamper) {
      EXPECT_GT(c.report().payload_mismatches, 0u);
    } else {
      EXPECT_EQ(c.report().payload_mismatches, 0u);
    }
    open.reset();  // `want` dies at the end of this iteration
  }
}

// ---------------------------------------------------------------------------
// Placement generators
// ---------------------------------------------------------------------------

using Slot = Placement::Slot;

std::set<std::pair<int, int>> all_slots(const Placement& p) {
  std::set<std::pair<int, int>> s;
  auto add = [&](const Slot& slot) {
    auto [it, inserted] = s.insert({slot.core, slot.thread});
    EXPECT_TRUE(inserted) << "slot (" << slot.core << "," << slot.thread
                          << ") assigned twice";
  };
  add(p.os);
  if (p.syscall.core != p.os.core || p.syscall.thread != p.os.thread) {
    add(p.syscall);
  }
  add(p.driver);
  for (const auto& r : p.replicas) {
    for (const auto& slot : r) add(slot);
  }
  for (const auto& w : p.webs) add(w);
  return s;
}

TEST(Placements, AmdFigure6LayoutsAreDisjointAndFit) {
  // Figure 6b: OS | SYSCALL | drv | NEaT 1-3 | Web 1-6 on 12 cores.
  const auto single = amd_placement(false, 3, 6);
  const auto slots = all_slots(single);
  EXPECT_EQ(slots.size(), 12u);
  for (const auto& [core, thread] : slots) {
    EXPECT_LT(core, 12);
    EXPECT_EQ(thread, 0);
  }
  // Figure 6a: OS | SYSCALL | drv | TCP1 IP1 TCP2 IP2 | Web 1-5.
  const auto multi = amd_placement(true, 2, 5);
  EXPECT_EQ(all_slots(multi).size(), 12u);
  EXPECT_EQ(multi.replicas[0].size(), 2u);  // TCP + IP pins
}

TEST(Placements, XeonFigure10PacksFourReplicasOnTwoCores) {
  // Figure 10: drv+SYSCALL share a core; 4 replicas on 2 cores (both
  // threads); 9 webs, the last on the OS core's sibling.
  const auto p = xeon_placement(false, 4, 9, /*ht=*/true);
  EXPECT_EQ(p.driver.core, p.syscall.core);
  EXPECT_NE(p.driver.thread, p.syscall.thread);
  std::set<int> replica_cores;
  for (const auto& r : p.replicas) replica_cores.insert(r[0].core);
  EXPECT_EQ(replica_cores.size(), 2u) << "4 replicas pack onto 2 cores";
  EXPECT_EQ(p.webs.size(), 9u);
  EXPECT_EQ(p.webs.back().core, p.os.core)
      << "the 9th lighttpd shares the OS core (Web 9 in Fig. 10)";
  all_slots(p);  // asserts disjointness
}

TEST(Placements, XeonMultiHtColocatesReplicaPairs) {
  // Figure 8c: TCP1+TCP2 on one core's threads, IP1+IP2 on another's.
  const auto p = xeon_placement(true, 2, 8, /*ht=*/true);
  EXPECT_EQ(p.replicas[0][0].core, p.replicas[1][0].core);  // TCPs pair
  EXPECT_EQ(p.replicas[0][1].core, p.replicas[1][1].core);  // IPs pair
  EXPECT_NE(p.replicas[0][0].core, p.replicas[0][1].core);
  all_slots(p);
}

TEST(Placements, XeonWebsFillWholeCoresBeforeSiblings) {
  const auto p = xeon_placement(false, 2, 6, /*ht=*/false);
  // First webs land on thread 0 of distinct free cores.
  std::set<int> first_cores;
  for (int i = 0; i < 4 && i < static_cast<int>(p.webs.size()); ++i) {
    EXPECT_EQ(p.webs[static_cast<std::size_t>(i)].thread, 0);
    first_cores.insert(p.webs[static_cast<std::size_t>(i)].core);
  }
  EXPECT_EQ(first_cores.size(), 4u);
  // Later webs fall back to sibling threads.
  EXPECT_EQ(p.webs[4].thread, 1);
}

}  // namespace
}  // namespace neat::harness
