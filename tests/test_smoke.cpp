// End-to-end smoke tests: a full testbed (two machines, NIC, link, NEaT
// stack, HTTP server, load generator) serving real HTTP over real TCP.
#include <gtest/gtest.h>

#include "harness/testbed.hpp"

namespace neat::harness {
namespace {

TEST(Smoke, NeatSingleReplicaServesRequests) {
  Testbed::Config cfg;
  cfg.seed = 42;
  Testbed tb(cfg);

  NeatServerOptions so;
  so.replicas = 1;
  so.webs = 1;
  ServerRig server = build_neat_server(tb, so);

  ClientOptions co;
  co.stack_replicas = 1;
  co.generators = 1;
  co.concurrency_per_gen = 4;
  co.requests_per_conn = 10;
  ClientRig client = build_client(tb, co, 1);
  prepopulate_arp(server, client);

  const ClientRig::Aggregate r = run_window(
      tb, client, 100 * sim::kMillisecond, 500 * sim::kMillisecond);
  EXPECT_GT(r.requests, 100u) << "server should sustain a request stream";
  EXPECT_EQ(r.error_conns, 0u);
  EXPECT_GT(server.total_requests(), 0u);
}

TEST(Smoke, NeatMultiComponentServesRequests) {
  Testbed::Config cfg;
  cfg.seed = 7;
  Testbed tb(cfg);

  NeatServerOptions so;
  so.multi_component = true;
  so.replicas = 1;
  so.webs = 1;
  ServerRig server = build_neat_server(tb, so);

  ClientOptions co;
  co.stack_replicas = 1;
  co.generators = 1;
  co.concurrency_per_gen = 4;
  co.requests_per_conn = 10;
  ClientRig client = build_client(tb, co, 1);
  prepopulate_arp(server, client);

  const ClientRig::Aggregate r = run_window(
      tb, client, 100 * sim::kMillisecond, 500 * sim::kMillisecond);
  EXPECT_GT(r.requests, 100u);
  EXPECT_EQ(r.error_conns, 0u);
}

TEST(Smoke, LinuxBaselineServesRequests) {
  Testbed::Config cfg;
  cfg.seed = 11;
  Testbed tb(cfg);

  LinuxServerOptions so;
  so.webs = 2;
  ServerRig server = build_linux_server(tb, so);

  ClientOptions co;
  co.stack_replicas = 1;
  co.generators = 2;
  co.concurrency_per_gen = 4;
  co.requests_per_conn = 10;
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);

  const ClientRig::Aggregate r = run_window(
      tb, client, 100 * sim::kMillisecond, 500 * sim::kMillisecond);
  EXPECT_GT(r.requests, 100u);
  EXPECT_GT(server.total_requests(), 0u);
}

TEST(Smoke, MultipleReplicasSpreadConnections) {
  Testbed::Config cfg;
  cfg.seed = 3;
  Testbed tb(cfg);

  NeatServerOptions so;
  so.replicas = 3;
  so.webs = 2;
  ServerRig server = build_neat_server(tb, so);

  ClientOptions co;
  co.stack_replicas = 2;
  co.generators = 2;
  co.concurrency_per_gen = 16;
  co.requests_per_conn = 5;  // high connection churn
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);

  run_window(tb, client, 100 * sim::kMillisecond, 300 * sim::kMillisecond);

  // RSS should have given every replica a share of the accepted conns.
  for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
    EXPECT_GT(server.neat->replica(i).tcp().stats().conns_accepted, 0u)
        << "replica " << i << " never saw a connection";
  }
}

}  // namespace
}  // namespace neat::harness
