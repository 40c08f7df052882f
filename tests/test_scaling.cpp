// Scaling tests (paper §3.4): spawning replicas under load, NIC steering
// updates, lazy termination (scale-down without breaking connections), and
// the AutoScaler control loop driven against a fake target.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "harness/testbed.hpp"
#include "neat/autoscaler.hpp"

namespace neat::harness {
namespace {

struct ScalingFixture : public ::testing::Test {
  void build(bool tracking_filters, int replicas = 1) {
    client.reset();  // rigs pin processes to the old testbed's hw threads
    server.reset();
    tb.reset();
    Testbed::Config cfg;
    cfg.seed = 555;
    cfg.server_nic.tracking_filters = tracking_filters;
    tb = std::make_unique<Testbed>(cfg);
    NeatServerOptions so;
    so.replicas = replicas;
    so.webs = 2;
    server = std::make_unique<ServerRig>(build_neat_server(*tb, so));
    ClientOptions co;
    co.generators = 2;
    co.concurrency_per_gen = 16;
    co.requests_per_conn = 50;
    client = std::make_unique<ClientRig>(build_client(*tb, co, 2));
    prepopulate_arp(*server, *client);
  }

  std::uint64_t client_errors() {
    std::uint64_t n = 0;
    for (auto& g : client->gens) n += g->report().error_conns;
    return n;
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<ServerRig> server;
  std::unique_ptr<ClientRig> client;
};

TEST_F(ScalingFixture, ScaleUpSpreadsNewConnections) {
  build(/*tracking_filters=*/true, /*replicas=*/1);
  tb->sim.run_for(100 * sim::kMillisecond);
  ASSERT_GT(server->neat->replica(0).tcp().stats().conns_accepted, 0u);

  // Overload detected: spawn a second replica on a free core.
  StackReplica& r2 =
      server->neat->add_replica({&tb->server_machine.thread(4)});
  EXPECT_EQ(server->neat->replica_count(), 2u);
  tb->sim.run_for(300 * sim::kMillisecond);

  // The new replica serves a share of the *new* connections (subsocket
  // replication put the listeners there automatically).
  EXPECT_GT(r2.tcp().stats().conns_accepted, 0u);
  EXPECT_EQ(client_errors(), 0u);
}

TEST_F(ScalingFixture, ExistingConnectionsStayPutAcrossScaleUp) {
  build(true, 1);
  tb->sim.run_for(100 * sim::kMillisecond);

  // Snapshot flows owned by replica 0.
  std::vector<net::FlowKey> flows;
  server->neat->replica(0).tcp().for_each_connection(
      [&](net::TcpSocket& s) {
        if (s.state() == net::TcpState::kEstablished) {
          flows.push_back(s.flow());
        }
      });
  ASSERT_GT(flows.size(), 0u);

  server->neat->add_replica({&tb->server_machine.thread(4)});
  tb->sim.run_for(200 * sim::kMillisecond);

  // Partitioning invariant: a connection lives in exactly one replica for
  // its whole life. None of replica 0's established flows may have moved.
  for (const auto& f : flows) {
    bool still_in_r0 = false;
    server->neat->replica(0).tcp().for_each_connection(
        [&](net::TcpSocket& s) {
          if (s.flow() == f) still_in_r0 = true;
        });
    bool leaked_to_r1 = false;
    server->neat->replica(1).tcp().for_each_connection(
        [&](net::TcpSocket& s) {
          if (s.flow() == f) leaked_to_r1 = true;
        });
    EXPECT_FALSE(leaked_to_r1) << f.str();
    (void)still_in_r0;  // it may have finished normally in the meantime
  }
}

TEST_F(ScalingFixture, LazyTerminationNeverBreaksConnections) {
  build(true, 2);
  tb->sim.run_for(150 * sim::kMillisecond);
  StackReplica& victim = server->neat->replica(1);
  ASSERT_GT(victim.tcp().active_connection_count(), 0u);

  const auto errors_before = client_errors();
  server->neat->begin_scale_down(victim);
  EXPECT_TRUE(victim.terminating);

  // Run until the replica drains and is collected.
  sim::SimTime waited = 0;
  while (!victim.terminated && waited < 5 * sim::kSecond) {
    tb->sim.run_for(50 * sim::kMillisecond);
    waited += 50 * sim::kMillisecond;
  }
  EXPECT_TRUE(victim.terminated)
      << "terminating replica must drain to zero and be collected";
  EXPECT_EQ(client_errors(), errors_before)
      << "lazy termination must not abort any connection";

  // All load now flows through the surviving replica.
  const auto acc_before = server->neat->replica(0).tcp().stats().conns_accepted;
  tb->sim.run_for(100 * sim::kMillisecond);
  EXPECT_GT(server->neat->replica(0).tcp().stats().conns_accepted,
            acc_before);
}

TEST_F(ScalingFixture, AbruptShutdownWithoutTrackingIsRefused) {
  // The ablation the paper argues for: without per-flow tracking filters,
  // re-steering moves live flows to the wrong replica and they die. That
  // foot-gun is no longer reachable — draining a replica that still holds
  // connections without tracking filters is a hard error, not silent
  // connection loss.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  build(/*tracking_filters=*/false, 2);
  tb->sim.run_for(150 * sim::kMillisecond);
  StackReplica& victim = server->neat->replica(1);
  ASSERT_GT(victim.tcp().active_connection_count(), 0u);

  EXPECT_DEATH(server->neat->begin_scale_down(victim),
               "lazy termination requires tracking filters");
}

TEST_F(ScalingFixture, SteeringUsesOnlyActiveReplicaQueues) {
  build(true, 2);
  tb->sim.run_for(50 * sim::kMillisecond);
  server->neat->begin_scale_down(server->neat->replica(0));
  tb->sim.run_for(10 * sim::kMillisecond);  // control op reaches the NIC
  for (int bucket : tb->server_nic.indirection()) {
    EXPECT_EQ(bucket, server->neat->replica(1).queue());
  }
}

// ---------------------------------------------------------------------------
// AutoScaler control loop against a fake target
// ---------------------------------------------------------------------------

class LoadProc : public sim::Process {
 public:
  using Process::Process;
};

/// A ScaleTarget whose units are bare processes, one per core, that the
/// test keeps busy by hand. Units [0, active) start in the active set; the
/// rest are spares grow() hands out in order.
class FakeTarget : public ScaleTarget {
 public:
  static constexpr sim::SimTime kPeriod = 10 * sim::kMillisecond;

  FakeTarget(std::size_t active, std::size_t spares) {
    sim::MachineParams mp;
    mp.cores = static_cast<int>(active + spares);
    mp.freq = sim::Frequency{1.0};  // 1 cycle == 1 ns
    sim::Machine& m = sim.add_machine(mp);
    for (std::size_t i = 0; i < active + spares; ++i) {
      procs_.push_back(
          std::make_unique<LoadProc>(sim, "unit" + std::to_string(i)));
      procs_.back()->pin(m.thread(static_cast<int>(i)));
    }
    for (std::size_t i = 0; i < active; ++i) active_.push_back(i);
    next_spare_ = active;
  }

  std::vector<Procs> units(Procs& all) override {
    for (const auto& p : procs_) all.push_back(p.get());
    std::vector<Procs> units;
    for (std::size_t i : active_) units.push_back({procs_[i].get()});
    return units;
  }
  void publish(std::size_t active, double /*mean*/) override {
    published = active;
  }
  bool grow() override {
    if (next_spare_ == procs_.size()) return false;
    active_.push_back(next_spare_++);
    return true;
  }
  bool shrink(std::size_t coldest, const std::vector<double>& /*util*/,
              sim::SmallFn done) override {
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(coldest));
    if (async_shrink) {
      pending_done = std::move(done);
    } else {
      done();
    }
    return true;
  }

  /// Keep every active unit `frac` busy, then run one control period.
  void window(double frac) {
    const auto cycles = static_cast<sim::Cycles>(
        frac * static_cast<double>(kPeriod));
    for (std::size_t i : active_) {
      if (cycles > 0) procs_[i]->post(cycles, [] {});
    }
    sim.run_for(kPeriod);
  }

  [[nodiscard]] std::size_t active() const { return active_.size(); }

  sim::Simulator sim;
  bool async_shrink{false};
  sim::SmallFn pending_done;
  std::size_t published{99};

 private:
  std::vector<std::unique_ptr<LoadProc>> procs_;
  std::vector<std::size_t> active_;
  std::size_t next_spare_{0};
};

AutoScaler::Policy loop_policy(double up, double down, sim::SimTime cooldown,
                               std::size_t min_units = 1) {
  AutoScaler::Policy p;
  p.scale_up_threshold = up;
  p.scale_down_threshold = down;
  p.min_units = min_units;
  p.period = FakeTarget::kPeriod;
  p.cooldown = cooldown;
  return p;
}

TEST(AutoScalerLoop, ActsOnlyOnceTheCooldownHasPassed) {
  FakeTarget t(1, 3);
  AutoScaler loop(t.sim, t, loop_policy(0.5, 0.0, 3 * FakeTarget::kPeriod));
  loop.start();
  // Hot in every window; ticks at 10, 20, 30, ... ms. The clock starts at
  // 0, so the first action is at 30 ms and each next one 30 ms later.
  std::vector<std::uint64_t> ups;
  for (int w = 0; w < 12; ++w) {
    t.window(0.9);
    ups.push_back(loop.scale_ups());
  }
  EXPECT_EQ(ups, (std::vector<std::uint64_t>{0, 0, 1, 1, 1, 2, 2, 2, 3, 3,
                                             3, 3}));
  EXPECT_EQ(t.active(), 4u) << "all three spares handed out, then no more";
  EXPECT_NEAR(loop.last_mean_utilization(), 0.9, 0.01);
}

TEST(AutoScalerLoop, NeverShrinksBelowMinUnits) {
  FakeTarget t(4, 0);
  AutoScaler loop(t.sim, t, loop_policy(0.9, 0.3, 0, /*min_units=*/2));
  loop.start();
  for (int w = 0; w < 10; ++w) t.window(0.0);
  EXPECT_EQ(loop.scale_downs(), 2u);
  EXPECT_EQ(t.active(), 2u);
}

TEST(AutoScalerLoop, ThresholdsAreStrict) {
  FakeTarget t(2, 1);
  AutoScaler loop(t.sim, t, loop_policy(0.5, 0.5, 0));
  loop.start();
  // Exactly at both thresholds: neither "above" nor "below".
  for (int w = 0; w < 5; ++w) t.window(0.5);
  EXPECT_DOUBLE_EQ(loop.last_mean_utilization(), 0.5);
  EXPECT_EQ(loop.scale_ups() + loop.scale_downs(), 0u);

  t.window(0.6);
  EXPECT_EQ(loop.scale_ups(), 1u);
  t.window(0.4);
  EXPECT_EQ(loop.scale_downs(), 1u);
}

TEST(AutoScalerLoop, DoesNothingWithoutActiveUnits) {
  FakeTarget t(0, 2);
  // Any utilization counts as hot, and growing would succeed.
  AutoScaler loop(t.sim, t, loop_policy(-1.0, -2.0, 0));
  loop.start();
  for (int w = 0; w < 5; ++w) t.window(0.0);
  EXPECT_EQ(loop.scale_ups(), 0u);
  EXPECT_EQ(t.active(), 0u);
  EXPECT_EQ(t.published, 0u) << "the loop still publishes its view";
  EXPECT_EQ(loop.last_mean_utilization(), 0.0);
}

TEST(AutoScalerLoop, InFlightShrinkHoldsTheLoopUntilDone) {
  FakeTarget t(4, 1);
  t.async_shrink = true;
  AutoScaler loop(t.sim, t, loop_policy(0.8, 0.3, 0));
  loop.start();
  t.window(0.0);
  ASSERT_EQ(loop.scale_downs(), 1u);
  ASSERT_TRUE(static_cast<bool>(t.pending_done));

  // Cold, then hot: either would act, but the shrink has not finished.
  for (int w = 0; w < 3; ++w) t.window(0.0);
  for (int w = 0; w < 3; ++w) t.window(0.9);
  EXPECT_EQ(loop.scale_downs(), 1u);
  EXPECT_EQ(loop.scale_ups(), 0u);

  t.pending_done();
  t.window(0.9);
  EXPECT_EQ(loop.scale_ups(), 1u) << "the callback releases the loop";
}

}  // namespace
}  // namespace neat::harness
