// Chaos-layer tests: link impairments, watchdog-driven crash detection,
// supervised restarts with exponential backoff, quarantine of crash-looping
// replicas, crash-during-lazy-termination, and the randomized fault
// campaign's end-of-run invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/chaos.hpp"
#include "harness/testbed.hpp"
#include "ipc/channel.hpp"

namespace neat::harness {
namespace {

struct ChaosFixture : public ::testing::Test {
  void build(bool multi, int replicas, nic::LinkImpairment imp = {},
             int webs = 2) {
    // Rebuilding mid-test: tear the previous rig down in reverse order —
    // processes unpin from their simulator's machines on destruction, so
    // the Testbed must outlive them.
    client.reset();
    server.reset();
    tb.reset();
    Testbed::Config cfg;
    cfg.seed = 777;
    cfg.link.impairment = imp;
    tb = std::make_unique<Testbed>(cfg);
    NeatServerOptions so;
    so.multi_component = multi;
    so.replicas = replicas;
    so.webs = webs;
    so.files = {{"/file512", 512}};
    // Per-flow tracking filters (§3.4): existing connections keep their
    // replica across re-steering, so lazy termination drains cleanly.
    so.tracking_filters = true;
    server = std::make_unique<ServerRig>(build_neat_server(*tb, so));
    ClientOptions co;
    co.generators = webs;
    co.concurrency_per_gen = 12;
    co.requests_per_conn = 20;  // recycle conns briskly: steady SYN flow
    co.path = "/file512";
    client = std::make_unique<ClientRig>(build_client(*tb, co, webs));
    prepopulate_arp(*server, *client);
    const auto* body = server->files->lookup("/file512");
    for (auto& g : client->gens) g->config().expect_body = body;
    tb->sim.run_for(80 * sim::kMillisecond);  // steady state
  }

  NeatHost& host() { return *server->neat; }

  std::uint64_t client_requests() {
    std::uint64_t n = 0;
    for (auto& g : client->gens) n += g->report().committed_requests;
    return n;
  }

  std::uint64_t payload_mismatches() {
    std::uint64_t n = 0;
    for (auto& g : client->gens) n += g->report().payload_mismatches;
    return n;
  }

  /// Step the sim in small increments until the component is back up
  /// (bounded); returns true on recovery.
  bool run_until_recovered(StackReplica& r, Component c,
                           sim::SimTime limit = 500 * sim::kMillisecond) {
    sim::Process* p = r.component(c);
    for (sim::SimTime t = 0; t < limit; t += sim::kMillisecond) {
      if (!p->crashed()) return true;
      tb->sim.run_for(sim::kMillisecond);
    }
    return !p->crashed();
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<ServerRig> server;
  std::unique_ptr<ClientRig> client;
};

TEST_F(ChaosFixture, ImpairedLinkExercisesTcpRobustnessWithoutCorruption) {
  nic::LinkImpairment imp;
  imp.drop_probability = 0.01;
  imp.corrupt_probability = 0.005;
  imp.duplicate_probability = 0.01;
  imp.reorder_probability = 0.05;
  imp.reorder_window = 150 * sim::kMicrosecond;
  imp.jitter = 10 * sim::kMicrosecond;
  build(/*multi=*/false, /*replicas=*/2, imp);
  tb->sim.run_for(400 * sim::kMillisecond);

  // The impairments actually fired...
  EXPECT_GT(tb->link.frames_dropped(), 0u);
  EXPECT_GT(tb->link.frames_corrupted(), 0u);
  EXPECT_GT(tb->link.frames_duplicated(), 0u);
  EXPECT_GT(tb->link.frames_reordered(), 0u);

  // ...TCP's machinery absorbed them...
  std::uint64_t retransmits = 0;
  std::uint64_t checksum_drops = 0;
  for (std::size_t i = 0; i < host().replica_count(); ++i) {
    retransmits += host().replica(i).tcp().stats().retransmits;
    checksum_drops += host().replica(i).tcp().stats().checksum_drops;
  }
  EXPECT_GT(retransmits, 0u) << "drops must trigger retransmission";
  EXPECT_GT(checksum_drops, 0u) << "corruption must be caught by checksums";
  // The detection is also visible on the obs hub, where chaos campaign
  // reports read it. The counter aggregates every stack sharing the sim's
  // registry (client side included), so it is at least the server-side sum.
  EXPECT_GE(tb->sim.metrics().counter("tcp.checksum_drops").value(),
            checksum_drops);

  // ...and not one corrupted byte reached an application.
  EXPECT_GT(client_requests(), 0u);
  EXPECT_EQ(payload_mismatches(), 0u);
}

TEST_F(ChaosFixture, WatchdogDetectsCrashWithinBoundAndRestarts) {
  build(false, 2);
  StackReplica& victim = host().replica(0);
  host().inject_crash(victim, Component::kWhole);
  EXPECT_TRUE(victim.tcp_process().crashed());

  ASSERT_TRUE(run_until_recovered(victim, Component::kWhole));
  ASSERT_EQ(host().recovery_log().size(), 1u);
  const auto& ev = host().recovery_log()[0];
  EXPECT_GT(ev.detected_at, ev.at) << "detection is observed, not assumed";
  EXPECT_LE(ev.detection_latency(),
            Supervisor::kWatchdogTimeout + 2 * Supervisor::kHeartbeatPeriod);
  EXPECT_GT(ev.recovered_at, ev.detected_at);
  EXPECT_EQ(ev.action, "restart");
  EXPECT_EQ(ev.backoff_level, 0);
  EXPECT_EQ(host().supervisor().stats().detections, 1u);
  EXPECT_EQ(host().supervisor().stats().restarts, 1u);

  // Restarted replica serves again.
  const auto accepted = victim.tcp().stats().conns_accepted;
  tb->sim.run_for(150 * sim::kMillisecond);
  EXPECT_GT(victim.tcp().stats().conns_accepted, accepted);
}

TEST_F(ChaosFixture, CrashWhileDownNeverDoubleSchedulesRestart) {
  build(false, 2);
  StackReplica& victim = host().replica(0);
  host().inject_crash(victim, Component::kWhole);
  // Immediately again, before detection...
  host().inject_crash(victim, Component::kWhole);
  EXPECT_EQ(host().recovery_log().size(), 1u);

  // ...and once more inside the explicit pending-restart window.
  tb->sim.run_for(25 * sim::kMillisecond);  // watchdog has fired by now
  EXPECT_TRUE(
      host().supervisor().restart_pending(victim, Component::kWhole));
  host().inject_crash(victim, Component::kWhole);
  EXPECT_EQ(host().recovery_log().size(), 1u);

  ASSERT_TRUE(run_until_recovered(victim, Component::kWhole));
  EXPECT_EQ(host().supervisor().stats().restarts, 1u)
      << "exactly one restart for any number of redundant injects";
  EXPECT_FALSE(
      host().supervisor().restart_pending(victim, Component::kWhole));

  // Same guard on the driver path.
  host().inject_driver_crash();
  host().inject_driver_crash();
  tb->sim.run_for(25 * sim::kMillisecond);
  EXPECT_TRUE(host().supervisor().driver_restart_pending());
  host().inject_driver_crash();
  tb->sim.run_for(100 * sim::kMillisecond);
  EXPECT_FALSE(host().driver().crashed());
  EXPECT_EQ(host().supervisor().stats().driver_restarts, 1u);
}

TEST_F(ChaosFixture, DriverCrashIsDetectedAndRestartedBySupervisor) {
  build(false, 2);
  host().inject_driver_crash();
  EXPECT_TRUE(host().driver().crashed());
  tb->sim.run_for(100 * sim::kMillisecond);
  EXPECT_FALSE(host().driver().crashed());
  EXPECT_EQ(host().driver().driver_stats().restarts, 1u);
  ASSERT_EQ(host().recovery_log().size(), 1u);
  const auto& ev = host().recovery_log()[0];
  EXPECT_EQ(ev.component, "nicdrv");
  EXPECT_GT(ev.detected_at, ev.at);
  EXPECT_GT(ev.recovered_at, 0u);

  const auto req = client_requests();
  tb->sim.run_for(100 * sim::kMillisecond);
  EXPECT_GT(client_requests(), req) << "traffic flows after driver restart";
}

TEST_F(ChaosFixture, ReplicaAnnounceLostToDriverCrashIsRepairedOnRecovery) {
  build(false, 2);
  StackReplica& victim = host().replica(0);
  const int q = victim.queue();

  // Replica dies; its endpoint goes dark until it re-announces.
  host().inject_crash(victim, Component::kWhole);
  EXPECT_FALSE(host().driver().endpoint_active(q));

  // The driver dies before the replica's recovery announce (a control op
  // posted on the driver process) can execute: the announce is lost,
  // because work posted to a crashed process is silently dropped.
  host().inject_driver_crash();
  host().recover_replica(victim, Component::kWhole);
  tb->sim.run_for(1 * sim::kMillisecond);
  EXPECT_FALSE(victim.tcp_process().crashed());
  EXPECT_FALSE(host().driver().endpoint_active(q))
      << "announce posted to a crashed driver must not take effect";

  // Driver recovery must repair the endpoint — otherwise a live steering
  // entry keeps pointing at a queue the driver silently drops, forever.
  host().recover_driver();
  tb->sim.run_for(1 * sim::kMillisecond);
  EXPECT_TRUE(host().driver().endpoint_active(q));
}

TEST_F(ChaosFixture, RapidCrashLoopEscalatesBackoff) {
  build(false, 2);
  StackReplica& victim = host().replica(0);
  for (int round = 0; round < 3; ++round) {
    host().inject_crash(victim, Component::kWhole);
    ASSERT_TRUE(run_until_recovered(victim, Component::kWhole))
        << "round " << round;
    // Re-crash immediately: uptime stays below the stability window.
  }
  ASSERT_EQ(host().recovery_log().size(), 3u);
  const auto& log = host().recovery_log();
  EXPECT_EQ(log[0].backoff_level, 0);
  EXPECT_EQ(log[1].backoff_level, 1);
  EXPECT_EQ(log[2].backoff_level, 2);
  // The applied delay (recovered - detected) must actually grow.
  const auto delay1 = log[1].recovered_at - log[1].detected_at;
  const auto delay2 = log[2].recovered_at - log[2].detected_at;
  EXPECT_GT(delay2, delay1);
  EXPECT_EQ(host().supervisor().stats().max_backoff_level, 2);

  // A stable stretch resets the loop counter.
  tb->sim.run_for(200 * sim::kMillisecond);  // > stability_window uptime
  host().inject_crash(victim, Component::kWhole);
  ASSERT_TRUE(run_until_recovered(victim, Component::kWhole));
  EXPECT_EQ(host().recovery_log().back().backoff_level, 0)
      << "stability window resets the consecutive-crash counter";
}

TEST_F(ChaosFixture, CrashLoopingReplicaIsQuarantinedAndReplaced) {
  build(false, 2);
  StackReplica& victim = host().replica(0);
  const auto replicas_before = host().replica_count();
  const int quarantine_after = Supervisor::kQuarantineAfter;

  for (int round = 0; round < quarantine_after; ++round) {
    ASSERT_FALSE(victim.quarantined) << "round " << round;
    host().inject_crash(victim, Component::kWhole);
    if (round + 1 < quarantine_after) {
      ASSERT_TRUE(run_until_recovered(victim, Component::kWhole))
          << "round " << round;
    }
  }
  // The final crash must be detected and answered with quarantine.
  tb->sim.run_for(50 * sim::kMillisecond);
  EXPECT_TRUE(victim.quarantined);
  EXPECT_TRUE(victim.terminated);
  for (auto* p : victim.processes()) EXPECT_TRUE(p->crashed());
  EXPECT_EQ(host().supervisor().stats().quarantines, 1u);

  // A replacement replica took its place on the same pins.
  ASSERT_EQ(host().replica_count(), replicas_before + 1);
  EXPECT_EQ(host().supervisor().stats().replacements, 1u);
  StackReplica& sub = host().replica(replicas_before);
  EXPECT_FALSE(sub.tcp_process().crashed());
  EXPECT_EQ(host().recovery_log().back().action, "replace");

  // Quarantined replica is out of every serving structure; the
  // replacement is steered to and serves.
  const auto serving = host().serving_replicas();
  EXPECT_EQ(std::count(serving.begin(), serving.end(), &victim), 0);
  const auto& ind = host().nic().indirection();
  EXPECT_EQ(std::count(ind.begin(), ind.end(), victim.queue()), 0)
      << "quarantined replica must leave the steering table";
  EXPECT_GT(std::count(ind.begin(), ind.end(), sub.queue()), 0);
  tb->sim.run_for(200 * sim::kMillisecond);
  EXPECT_GT(sub.tcp().stats().conns_accepted, 0u)
      << "replacement accepts connections (listeners replayed onto it)";
}

TEST_F(ChaosFixture, CrashDuringLazyTerminationNeverRejoinsSteering) {
  build(false, 2);
  StackReplica& victim = host().replica(0);
  host().begin_scale_down(victim);
  ASSERT_TRUE(victim.terminating);
  ASSERT_FALSE(victim.terminated);

  // Crash it immediately, mid-drain: TCP state is gone, so there is
  // nothing left to drain — the supervisor must collect it, not restart
  // it into service.
  host().inject_crash(victim, Component::kWhole);
  tb->sim.run_for(100 * sim::kMillisecond);
  const auto& ind = host().nic().indirection();
  EXPECT_TRUE(victim.terminated) << "collected, not restarted into service";
  EXPECT_EQ(host().recovery_log().back().action, "gc");
  EXPECT_GT(host().recovery_log().back().detected_at, 0u);
  EXPECT_EQ(host().supervisor().stats().scale_down_collects, 1u);
  EXPECT_EQ(std::count(ind.begin(), ind.end(), victim.queue()), 0)
      << "never re-enters active steering";

  // Service continues on the survivor.
  const auto req = client_requests();
  tb->sim.run_for(100 * sim::kMillisecond);
  EXPECT_GT(client_requests(), req);
}

TEST_F(ChaosFixture, NonTcpCrashDuringLazyTerminationRestartsToFinishDrain) {
  build(/*multi=*/true, 2);
  StackReplica& victim = host().replica(0);
  host().begin_scale_down(victim);
  // Long enough for the control op to reach the NIC, short enough to catch
  // the drain mid-flight: coalesced wakeups retire whole request cycles per
  // burst, so the tail of open connections empties within a few ms.
  tb->sim.run_for(sim::kMillisecond);
  ASSERT_FALSE(victim.terminated) << "still draining";
  ASSERT_GT(victim.tcp().connection_count(), 0u);

  // An IP crash loses no TCP state: the drainer is restarted so surviving
  // connections can finish, and the GC collects it once they do.
  host().inject_crash(victim, Component::kIp);
  ASSERT_TRUE(run_until_recovered(victim, Component::kIp));
  EXPECT_EQ(host().recovery_log().back().action, "restart");
  EXPECT_FALSE(host().recovery_log().back().tcp_state_lost);

  const auto& ind = host().nic().indirection();
  EXPECT_EQ(std::count(ind.begin(), ind.end(), victim.queue()), 0)
      << "restarted drainer stays out of steering";
  tb->sim.run_for(1500 * sim::kMillisecond);
  EXPECT_TRUE(victim.terminated) << "drained and collected by the GC";
}

TEST_F(ChaosFixture, DeterministicCampaignHoldsAllInvariants) {
  nic::LinkImpairment lossy;
  lossy.drop_probability = 0.01;  // the acceptance floor: >=1% loss
  lossy.reorder_probability = 0.02;
  lossy.reorder_window = 100 * sim::kMicrosecond;
  build(false, 3, lossy, /*webs=*/3);

  fault::ChaosConfig cc;
  cc.seed = 31337;
  cc.duration = 600 * sim::kMillisecond;
  cc.mean_fault_gap = 40 * sim::kMillisecond;
  fault::ChaosCampaign campaign(host(), tb->link, cc);
  campaign.start();
  tb->sim.run_for(campaign.span() + 50 * sim::kMillisecond);

  const auto& rep = campaign.audit();
  EXPECT_TRUE(rep.passed()) << [&] {
    std::string all;
    for (const auto& v : rep.violations) all += v + "\n";
    return all;
  }();
  EXPECT_GE(rep.faults_injected, 5u);
  // At least the three required fault families ran: replica crashes,
  // driver crashes, and the link stayed lossy throughout.
  EXPECT_GT(rep.replica_crashes + rep.crash_storms + rep.handshake_crashes,
            0u);
  EXPECT_GT(rep.driver_crashes + rep.concurrent_faults, 0u);
  EXPECT_GT(tb->link.frames_dropped(), 0u);

  // Workload survived with intact payloads.
  EXPECT_GT(client_requests(), 0u);
  EXPECT_EQ(payload_mismatches(), 0u);

  // Every recovery event carries full supervision forensics.
  for (const auto& ev : host().recovery_log()) {
    EXPECT_GT(ev.detected_at, 0u);
    EXPECT_GT(ev.recovered_at, 0u);
    EXPECT_GE(ev.backoff_level, 0);
  }
}

TEST_F(ChaosFixture, CampaignIsDeterministicPerSeed) {
  auto run_one = [](std::size_t& faults, std::size_t& log_size) {
    Testbed::Config cfg;
    cfg.seed = 99;
    cfg.link.impairment.drop_probability = 0.01;
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
    tb.sim.run_for(60 * sim::kMillisecond);
    fault::ChaosConfig cc;
    cc.seed = 7;
    cc.duration = 300 * sim::kMillisecond;
    cc.mean_fault_gap = 30 * sim::kMillisecond;
    fault::ChaosCampaign campaign(*server.neat, tb.link, cc);
    campaign.start();
    tb.sim.run_for(campaign.span());
    faults = campaign.report().faults_injected;
    log_size = server.neat->recovery_log().size();
  };
  std::size_t f1 = 0, l1 = 0, f2 = 0, l2 = 0;
  run_one(f1, l1);
  run_one(f2, l2);
  EXPECT_GT(f1, 0u);
  EXPECT_EQ(f1, f2) << "same seeds -> same fault schedule";
  EXPECT_EQ(l1, l2) << "same seeds -> same recovery history";
}

TEST_F(ChaosFixture, ChannelAccountingInvariantHoldsAcrossChaosSeeds) {
  // Every message a channel ever accepts must be classified as exactly one
  // of delivered / dropped_full / dropped_dead — crashes, restarts and
  // rebinds included. Sweep several campaign seeds; after each campaign,
  // stop the load and let in-flight traffic drain so the books can balance.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    nic::LinkImpairment lossy;
    lossy.drop_probability = 0.01;
    build(false, 3, lossy, /*webs=*/3);

    fault::ChaosConfig cc;
    cc.seed = seed;
    cc.duration = 400 * sim::kMillisecond;
    cc.mean_fault_gap = 35 * sim::kMillisecond;
    fault::ChaosCampaign campaign(host(), tb->link, cc);
    campaign.start();
    tb->sim.run_for(campaign.span() + 50 * sim::kMillisecond);

    // Quiesce: no new connections, existing ones finish and close, then
    // everything still in transfer latency lands and gets classified.
    for (auto& g : client->gens) g->config().max_conns = 1;
    tb->sim.run_for(1000 * sim::kMillisecond);

    std::uint64_t total_sent = 0;
    for (const ipc::ChannelBase* ch : ipc::channel_registry()) {
      const auto& s = ch->channel_stats();
      EXPECT_EQ(s.sent, s.delivered + s.dropped_full + s.dropped_dead)
          << "seed " << seed << ": " << ch->describe() << " leaked "
          << (s.sent - s.delivered - s.dropped_full - s.dropped_dead)
          << " messages";
      total_sent += s.sent;
    }
    EXPECT_GT(total_sent, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace neat::harness
