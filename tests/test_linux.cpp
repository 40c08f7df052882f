// Linux-baseline tests: the monolithic shared stack, its syscall/softirq
// execution model, the Table-1 tuning knobs, and the kernel lock model.
#include <gtest/gtest.h>

#include "baseline/linux.hpp"
#include "harness/testbed.hpp"

namespace neat::harness {
namespace {

ClientRig::Aggregate run_linux_webs(baseline::LinuxTuning tuning,
                                    std::uint64_t seed) {
  Testbed::Config cfg;
  cfg.seed = seed;
  Testbed tb(cfg);
  LinuxServerOptions so;
  so.tuning = tuning;
  so.webs = 12;
  ServerRig server = build_linux_server(tb, so);
  ClientOptions co;
  co.generators = 12;
  co.concurrency_per_gen = 16;
  ClientRig client = build_client(tb, co, 12);
  prepopulate_arp(server, client);
  return run_window(tb, client, 150 * sim::kMillisecond,
                    200 * sim::kMillisecond);
}

TEST(LinuxBaseline, ServesTrafficAndSharesOneStack) {
  Testbed::Config cfg;
  cfg.seed = 5;
  Testbed tb(cfg);
  LinuxServerOptions so;
  so.webs = 4;
  ServerRig server = build_linux_server(tb, so);
  ClientOptions co;
  co.generators = 4;
  co.concurrency_per_gen = 8;
  ClientRig client = build_client(tb, co, 4);
  prepopulate_arp(server, client);
  const auto r = run_window(tb, client, 100 * sim::kMillisecond,
                            200 * sim::kMillisecond);
  EXPECT_GT(r.requests, 1000u);
  // Single shared connection table for the whole machine.
  EXPECT_GT(server.linux_host->tcp().connection_count(), 0u);
  EXPECT_EQ(server.linux_host->tcp().stats().conns_accepted,
            server.webs[0]->app_stats().conns_accepted +
                server.webs[1]->app_stats().conns_accepted +
                server.webs[2]->app_stats().conns_accepted +
                server.webs[3]->app_stats().conns_accepted);
}

TEST(LinuxBaseline, TuningImprovesThroughputInPaperOrder) {
  const auto defaults =
      run_linux_webs(baseline::LinuxTuning::defaults(), 21);
  const auto best = run_linux_webs(baseline::LinuxTuning::best(), 21);
  // Table 1: defaults ~184 kreq/s, fully tuned ~224 kreq/s (+20%).
  EXPECT_GT(best.krps, defaults.krps * 1.1);
}

TEST(LinuxBaseline, RfsBringsNoObservableBenefit) {
  auto tuned = baseline::LinuxTuning::best();
  const auto without = run_linux_webs(tuned, 22);
  tuned.rfs = true;
  const auto with = run_linux_webs(tuned, 22);
  EXPECT_NEAR(with.krps, without.krps, without.krps * 0.05);
}

TEST(LinuxBaseline, LocksRecordContention) {
  Testbed::Config cfg;
  cfg.seed = 6;
  Testbed tb(cfg);
  LinuxServerOptions so;
  so.webs = 8;
  ServerRig server = build_linux_server(tb, so);
  ClientOptions co;
  co.generators = 8;
  co.concurrency_per_gen = 16;
  ClientRig client = build_client(tb, co, 8);
  prepopulate_arp(server, client);
  run_window(tb, client, 100 * sim::kMillisecond, 200 * sim::kMillisecond);
  EXPECT_GT(server.linux_host->conn_lock().acquisitions(), 10000u);
  EXPECT_GT(server.linux_host->conn_lock().contended(), 0u)
      << "a loaded 12-core machine must contend on the shared state";
}

TEST(LinuxBaseline, KernelLockChargesWaitAndTransfer) {
  baseline::KernelLock lock;
  baseline::LinuxCosts costs;
  const sim::Frequency freq{1.0};
  // First acquisition: uncontended, no transfer.
  const auto c1 = lock.acquire(1000, 0, 100, freq, costs);
  EXPECT_EQ(c1, costs.lock_uncontended);
  // Same time, different core: queued behind holder + line transfer.
  const auto c2 = lock.acquire(1000, 1, 100, freq, costs);
  EXPECT_GE(c2, costs.lock_uncontended + 100 + costs.cacheline_transfer);
  EXPECT_EQ(lock.contended(), 1u);
  // Much later, same core: uncontended and cache-hot.
  const auto c3 = lock.acquire(1000000, 1, 100, freq, costs);
  EXPECT_EQ(c3, costs.lock_uncontended);
}

TEST(LinuxBaseline, UnpinnedserversMigrate) {
  Testbed::Config cfg;
  cfg.seed = 7;
  Testbed tb(cfg);
  LinuxServerOptions so;
  so.webs = 12;
  so.tuning = baseline::LinuxTuning::defaults();  // not pinned
  ServerRig server = build_linux_server(tb, so);
  ClientOptions co;
  co.generators = 12;
  co.concurrency_per_gen = 8;
  ClientRig client = build_client(tb, co, 12);
  prepopulate_arp(server, client);

  std::vector<int> before;
  for (auto& w : server.webs) before.push_back(w->thread()->core_id());
  tb.sim.run_for(500 * sim::kMillisecond);
  int moved = 0;
  for (std::size_t i = 0; i < server.webs.size(); ++i) {
    if (server.webs[i]->thread()->core_id() !=
        before[i]) {
      ++moved;
    }
  }
  // With 12 apps at ~120 migrations/s/app over 0.5s, several must have
  // moved at least once (exact count depends on balance opportunities).
  EXPECT_GT(moved, 0);
}

TEST(LinuxBaseline, SameAppCodeRunsOnBothStacks) {
  // The BSD-compliance claim: HttpServer binaries are identical; only the
  // attached SocketApi differs. Compare served requests on both stacks.
  Testbed::Config cfg;
  cfg.seed = 9;
  {
    Testbed tb(cfg);
    NeatServerOptions so;
    so.replicas = 2;
    so.webs = 2;
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 2;
    co.concurrency_per_gen = 8;
    ClientRig client = build_client(tb, co, 2);
    prepopulate_arp(server, client);
    const auto r = run_window(tb, client, 100 * sim::kMillisecond,
                              150 * sim::kMillisecond);
    EXPECT_GT(r.requests, 500u);
  }
  {
    Testbed tb(cfg);
    LinuxServerOptions so;
    so.webs = 2;
    ServerRig server = build_linux_server(tb, so);
    ClientOptions co;
    co.generators = 2;
    co.concurrency_per_gen = 8;
    ClientRig client = build_client(tb, co, 2);
    prepopulate_arp(server, client);
    const auto r = run_window(tb, client, 100 * sim::kMillisecond,
                              150 * sim::kMillisecond);
    EXPECT_GT(r.requests, 500u);
  }
}

}  // namespace
}  // namespace neat::harness
