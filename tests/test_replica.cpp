// Replica data-path tests beyond TCP: ARP resolution over the wire, ICMP
// echo, UDP delivery and the packet filter in the inbound path (single- and
// multi-component), IP fragmentation through the full path, and the egress
// staging (TxStage) every stack process shares.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "harness/testbed.hpp"

namespace neat::harness {
namespace {

struct ReplicaFixture : public ::testing::Test {
  void build(bool multi) {
    client.reset();  // hosts pin processes to the old testbed's hw threads
    server.reset();
    tb.reset();
    Testbed::Config cfg;
    cfg.seed = 31337;
    tb = std::make_unique<Testbed>(cfg);

    NeatHost::Config hc;
    hc.kind = multi ? NeatHost::Config::Kind::kMulti
                    : NeatHost::Config::Kind::kSingle;
    server = std::make_unique<NeatHost>(tb->sim, tb->server_machine,
                                        tb->server_nic, hc);
    server->os_process().pin(tb->server_machine.thread(0));
    server->syscall().pin(tb->server_machine.thread(1));
    server->driver().pin(tb->server_machine.thread(2));
    if (multi) {
      server->add_replica({&tb->server_machine.thread(3),
                           &tb->server_machine.thread(4)});
    } else {
      server->add_replica({&tb->server_machine.thread(3)});
    }

    NeatHost::Config cc;
    client = std::make_unique<NeatHost>(tb->sim, tb->client_machine,
                                        tb->client_nic, cc);
    client->os_process().pin(tb->client_machine.thread(0));
    client->syscall().pin(tb->client_machine.thread(1));
    client->driver().pin(tb->client_machine.thread(2));
    client->add_replica({&tb->client_machine.thread(3)});
  }

  void run(sim::SimTime t = 50 * sim::kMillisecond) { tb->sim.run_for(t); }

  /// Send a UDP datagram from the client replica to the server.
  void send_udp(std::uint16_t sport, std::uint16_t dport,
                std::size_t payload_size) {
    auto& rep = client->replica(0);
    rep.tcp_process().post(2000, [&rep, sport, dport, payload_size] {
      auto pkt = net::Packet::make(payload_size);
      for (std::size_t i = 0; i < payload_size; ++i) {
        pkt->bytes()[i] = static_cast<std::uint8_t>(i);
      }
      net::UdpHeader uh;
      uh.src_port = sport;
      uh.dst_port = dport;
      uh.encode(*pkt, kClientIp, kServerIp);
      rep.ip_layer_ref().send(std::move(pkt), net::IpProto::kUdp, kClientIp,
                              kServerIp);
    });
  }

  void prepopulate() {
    for (std::size_t i = 0; i < server->replica_count(); ++i) {
      server->replica(i).ip_layer_ref().arp().insert(kClientIp,
                                                     net::MacAddr::local(2));
    }
    client->replica(0).ip_layer_ref().arp().insert(kServerIp,
                                                   net::MacAddr::local(1));
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<NeatHost> server;
  std::unique_ptr<NeatHost> client;
};

TEST_F(ReplicaFixture, ArpResolvesOverTheWire) {
  build(false);
  // No static entries: the first IP transmission must trigger real ARP.
  bool resolved = false;
  auto& rep = client->replica(0);
  rep.tcp_process().post(1000, [&] {
    rep.ip_layer_ref().arp().resolve(kServerIp, [&](net::MacAddr m) {
      resolved = true;
      EXPECT_EQ(m, net::MacAddr::local(1));
    });
  });
  run();
  EXPECT_TRUE(resolved);
  // The server side learned the client's mapping from the request.
  EXPECT_EQ(server->replica(0).ip_layer_ref().arp().lookup(kClientIp),
            net::MacAddr::local(2));
}

TEST_F(ReplicaFixture, UdpDatagramReachesBoundPort) {
  for (bool multi : {false, true}) {
    build(multi);
    prepopulate();
    std::size_t got = 0;
    net::SockAddr from{};
    server->replica(0).udp().bind(53, [&](net::UdpMux::Datagram d) {
      got = d.payload->size();
      from = d.from;
    });
    send_udp(9999, 53, 120);
    run();
    EXPECT_EQ(got, 120u) << (multi ? "multi" : "single");
    EXPECT_EQ(from.ip, kClientIp);
    EXPECT_EQ(from.port, 9999);
  }
}

TEST_F(ReplicaFixture, OversizeUdpFragmentsAndReassembles) {
  build(false);
  prepopulate();
  std::size_t got = 0;
  server->replica(0).udp().bind(53, [&](net::UdpMux::Datagram d) {
    got = d.payload->size();
    // Verify content survived fragmentation + reassembly.
    for (std::size_t i = 0; i < d.payload->size(); ++i) {
      ASSERT_EQ(d.payload->bytes()[i], static_cast<std::uint8_t>(i));
    }
  });
  send_udp(9999, 53, 5000);  // > MTU: 4 fragments on the wire
  run();
  EXPECT_EQ(got, 5000u);
  EXPECT_GE(tb->server_nic.stats().rx_frames, 4u);
}

TEST_F(ReplicaFixture, IcmpEchoIsAnswered) {
  for (bool multi : {false, true}) {
    build(multi);
    prepopulate();
    // Raw ICMP echo from the client replica.
    auto& rep = client->replica(0);
    rep.tcp_process().post(2000, [&rep] {
      auto pkt = net::Packet::make(32);
      net::IcmpMessage m;
      m.type = net::IcmpMessage::Type::kEchoRequest;
      m.ident = 1;
      m.seq = 1;
      m.encode(*pkt);
      rep.ip_layer_ref().send(std::move(pkt), net::IpProto::kIcmp, kClientIp,
                              kServerIp);
    });
    run();
    // The reply comes back to the client NIC (an extra RX frame beyond ARP).
    EXPECT_GE(tb->client_nic.stats().rx_frames, 1u)
        << (multi ? "multi" : "single");
    EXPECT_GE(tb->server_nic.stats().tx_frames, 1u);
  }
}

TEST_F(ReplicaFixture, PacketFilterDropsMatchingUdp) {
  for (bool multi : {false, true}) {
    build(multi);
    prepopulate();
    net::FilterRule drop;
    drop.action = net::FilterRule::Action::kDrop;
    drop.proto = net::IpProto::kUdp;
    drop.dst_port = 53;
    server->replica(0).filter().add_rule(drop);

    int got = 0;
    server->replica(0).udp().bind(53, [&](net::UdpMux::Datagram) { ++got; });
    server->replica(0).udp().bind(54, [&](net::UdpMux::Datagram) { ++got; });
    send_udp(9999, 53, 32);  // dropped
    send_udp(9999, 54, 32);  // passes (different port)
    run();
    EXPECT_EQ(got, 1) << (multi ? "multi" : "single");
    EXPECT_EQ(server->replica(0).filter().rules()[0].hits, 1u)
        << (multi ? "multi" : "single");
  }
}

// ---------------------------------------------------------------------------
// TxStage: one process staging a burst, as every stack process does.
// ---------------------------------------------------------------------------

/// A stack process in miniature: owns a stage, records what it emits, and
/// drops the stage when it crashes (as the replicas' on_crash does).
class StagingProc final : public sim::Process {
 public:
  explicit StagingProc(sim::Simulator& sim)
      : sim::Process(sim, "stager"),
        stage(*this, [this](StagedTx&& s) {
          emitted.push_back({this->sim().now(), std::move(s)});
        }) {}

  TxStage stage;
  std::vector<std::pair<sim::SimTime, StagedTx>> emitted;

 protected:
  void on_crash() override { stage.clear(); }
};

struct TxStageFixture : public ::testing::Test {
  TxStageFixture() {
    mp.cores = 1;
    mp.freq = sim::Frequency{1.0};  // 1 cycle == 1 ns
    proc.pin(sim.add_machine(mp).thread(0));
  }

  /// One job (`job_cost` cycles) that stages `sizes.size()` TCP segments,
  /// the i-th of `sizes[i]` bytes and costing 1000 + i cycles.
  void stage_burst(const std::vector<std::size_t>& sizes,
                   sim::Cycles job_cost = 100) {
    proc.post(job_cost, [this, sizes] {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        proc.stage.add({net::Packet::make(sizes[i]), kServerIp, kClientIp,
                        net::IpProto::kTcp, 0, 0},
                       1000 + i);
      }
    });
  }

  sim::MachineParams mp;
  sim::Simulator sim;
  StagingProc proc{sim};
};

TEST_F(TxStageFixture, BurstCostsTwoJobsAndLeavesAtOneInstantInOrder) {
  stage_burst({10, 20, 30, 40});
  sim.run();
  ASSERT_EQ(proc.emitted.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(proc.emitted[i].second.pkt->size(), 10 * (i + 1));  // order
    EXPECT_EQ(proc.emitted[i].first, proc.emitted[0].first);  // one instant
  }
  // The staging job, the flush (carrying the first packet's cost) and one
  // accounting job for the other three; the summed cycles are all charged.
  EXPECT_EQ(proc.stats().jobs, 1u + 2u);
  EXPECT_EQ(proc.stats().processing, 100u + 1000 + 1001 + 1002 + 1003);
}

TEST_F(TxStageFixture, SinglePacketCostsOneJob) {
  stage_burst({64});
  sim.run();
  ASSERT_EQ(proc.emitted.size(), 1u);
  EXPECT_EQ(proc.stats().jobs, 1u + 1u);
  EXPECT_EQ(proc.stats().processing, 100u + 1000);
}

TEST_F(TxStageFixture, UdpEntriesLeaveWithAValidHeader) {
  proc.post(100, [this] {
    proc.stage.add({net::Packet::make(48), kServerIp, kClientIp,
                    net::IpProto::kTcp, 0, 0},
                   1000);
    proc.stage.add({net::Packet::make(32), kServerIp, kClientIp,
                    net::IpProto::kUdp, 5353, 53},
                   1000);
  });
  sim.run();
  ASSERT_EQ(proc.emitted.size(), 2u);
  EXPECT_EQ(proc.emitted[0].second.pkt->size(), 48u);  // TCP: untouched
  auto& udp = proc.emitted[1].second;
  auto uh = net::UdpHeader::decode(*udp.pkt, kServerIp, kClientIp);
  ASSERT_TRUE(uh.has_value());  // checksum over the pseudo-header holds
  EXPECT_EQ(uh->src_port, 5353);
  EXPECT_EQ(uh->dst_port, 53);
  EXPECT_EQ(udp.pkt->size(), 32u);  // the payload behind the header
}

TEST_F(TxStageFixture, CrashBeforeTheFlushEmitsNothingAfterRestart) {
  stage_burst({10, 20, 30});
  // Crash halfway through the flush job (the staging job is done), then
  // restart and stage a new burst of one: only it leaves.
  sim.run_until(mp.wake_fast_latency + mp.resume_cycles + 100 + 500);
  ASSERT_TRUE(proc.emitted.empty());
  proc.crash();
  proc.restart();
  stage_burst({99});
  sim.run();
  ASSERT_EQ(proc.emitted.size(), 1u);
  EXPECT_EQ(proc.emitted[0].second.pkt->size(), 99u);
  // A crashed process stages nothing: after the restart, the next burst
  // leaves alone and on time.
  proc.crash();
  proc.stage.add({net::Packet::make(7), kServerIp, kClientIp,
                  net::IpProto::kTcp, 0, 0},
                 1000);
  proc.restart();
  stage_burst({5});
  sim.run();
  ASSERT_EQ(proc.emitted.size(), 2u);
  EXPECT_EQ(proc.emitted[1].second.pkt->size(), 5u);
}

}  // namespace
}  // namespace neat::harness
