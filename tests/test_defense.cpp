// Adversary-defense tests: SYN cookies (pure-function golden vectors and
// full-stack handshakes), deferred filter install, slowloris header
// deadlines, live connection migration, and the scale-down drain guard.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "harness/testbed.hpp"
#include "neat/host.hpp"
#include "net/tcp.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace neat {
namespace {

using net::FlowKey;
using net::Ipv4Addr;
using net::SockAddr;
using net::TcpConfig;
using net::TcpHeader;
using net::TcpStack;

const Ipv4Addr kClientIp = Ipv4Addr::of(10, 0, 0, 2);
const Ipv4Addr kServerIp = Ipv4Addr::of(10, 0, 0, 1);

FlowKey test_flow() {
  FlowKey f;
  f.local_ip = kServerIp;
  f.local_port = 80;
  f.remote_ip = kClientIp;
  f.remote_port = 40000;
  return f;
}

// ---------------------------------------------------------------------------
// SYN cookie pure functions
// ---------------------------------------------------------------------------

TEST(SynCookie, MssIndexRoundsDown) {
  EXPECT_EQ(net::syn_cookie_mss_index(536), 0u);
  EXPECT_EQ(net::syn_cookie_mss_index(100), 0u);  // below table: clamp
  EXPECT_EQ(net::syn_cookie_mss_index(1460), 3u);
  EXPECT_EQ(net::syn_cookie_mss_index(1500), 3u);
  EXPECT_EQ(net::syn_cookie_mss_index(9000), 7u);
  EXPECT_EQ(net::syn_cookie_mss_index(65535), 7u);
}

TEST(SynCookie, GoldenVectors) {
  // Pinned outputs: a change here is a wire-format break — every cookie
  // minted before an upgrade would be rejected after it.
  const FlowKey f = test_flow();
  EXPECT_EQ(net::syn_cookie_make(0x1122334455667788ULL, f, 0xdeadbeef, 7, 3),
            0xeee2880bu);
  EXPECT_EQ(net::syn_cookie_make(0x1122334455667788ULL, f, 0xdeadbeef, 8, 3),
            0x0da4cfb7u);
  EXPECT_EQ(net::syn_cookie_make(0, f, 0, 0, 0), 0x021f823cu);
}

TEST(SynCookie, RoundTripsThroughCheck) {
  const FlowKey f = test_flow();
  const std::uint64_t secret = 0xabcdef0123456789ULL;
  for (unsigned idx = 0; idx < net::kSynCookieMss.size(); ++idx) {
    const std::uint32_t c = net::syn_cookie_make(secret, f, 1234567, 41, idx);
    const auto mss = net::syn_cookie_check(secret, f, 1234567, c, 41);
    ASSERT_TRUE(mss.has_value()) << "idx " << idx;
    EXPECT_EQ(*mss, net::kSynCookieMss[idx]);
  }
}

TEST(SynCookie, PreviousRotationAcceptedOlderRejected) {
  const FlowKey f = test_flow();
  const std::uint64_t secret = 99;
  const std::uint32_t c = net::syn_cookie_make(secret, f, 55, 100, 2);
  EXPECT_TRUE(net::syn_cookie_check(secret, f, 55, c, 100).has_value());
  EXPECT_TRUE(net::syn_cookie_check(secret, f, 55, c, 101).has_value());
  EXPECT_FALSE(net::syn_cookie_check(secret, f, 55, c, 102).has_value());
  EXPECT_FALSE(net::syn_cookie_check(secret, f, 55, c, 99).has_value())
      << "a cookie from the future must not validate";
}

TEST(SynCookie, AnyCorruptionRejects) {
  const FlowKey f = test_flow();
  const std::uint64_t secret = 7;
  const std::uint32_t c = net::syn_cookie_make(secret, f, 42, 10, 3);
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_FALSE(
        net::syn_cookie_check(secret, f, 42, c ^ (1u << bit), 10).has_value())
        << "bit " << bit;
  }
  EXPECT_FALSE(net::syn_cookie_check(secret + 1, f, 42, c, 10).has_value());
  EXPECT_FALSE(net::syn_cookie_check(secret, f, 43, c, 10).has_value());
  FlowKey other = f;
  other.remote_port ^= 1;
  EXPECT_FALSE(net::syn_cookie_check(secret, other, 42, c, 10).has_value());
}

// ---------------------------------------------------------------------------
// SYN cookies at the stack level
// ---------------------------------------------------------------------------

/// Wire that can hold back or tamper with the client's final handshake ACK
/// (the segment carrying the echoed cookie).
class CookieWire final : public net::TcpEnv {
 public:
  CookieWire(sim::Simulator& sim, std::uint64_t seed)
      : sim_(sim), rng_(seed) {}

  void set_peer(TcpStack* peer) { peer_ = peer; }
  /// Deliver the first non-SYN segment this late (0 = no delay).
  void set_ack_delay(sim::SimTime d) { ack_delay_ = d; }
  /// Corrupt the ack field of the first non-SYN segment.
  void set_ack_corrupt(bool v) { ack_corrupt_ = v; }

  sim::SimTime now() override { return sim_.now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               std::function<void()> fn) override {
    return sim_.schedule(delay, std::move(fn));
  }
  std::uint32_t random_u32() override {
    return static_cast<std::uint32_t>(rng_());
  }

  void tx(net::PacketPtr segment, Ipv4Addr src, Ipv4Addr dst) override {
    sim::SimTime delay = 10 * sim::kMicrosecond;
    net::PacketPtr peek = segment->clone();
    const auto h = TcpHeader::decode(*peek, src, dst);
    if (h && !h->syn && (ack_delay_ > 0 || ack_corrupt_)) {
      if (ack_corrupt_) {
        ack_corrupt_ = false;
        TcpHeader bad = *h;
        bad.ack += 1000;  // a cookie the server never minted
        bad.encode(*peek, src, dst);  // re-prepend over the stripped header
        segment = std::move(peek);
      }
      delay += ack_delay_;
      ack_delay_ = 0;
    }
    sim_.schedule(delay, [this, segment, src, dst] {
      if (peer_ != nullptr) peer_->rx(src, dst, segment);
    });
  }

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  TcpStack* peer_{nullptr};
  sim::SimTime ack_delay_{0};
  bool ack_corrupt_{false};
};

struct CookiePair : public ::testing::Test {
  static TcpConfig cfg(bool cookies) {
    TcpConfig c;
    c.rto_min = 20 * sim::kMillisecond;
    c.rto_initial = 50 * sim::kMillisecond;
    c.delayed_ack = 0;
    c.tso = false;
    c.syn_cookies = cookies;
    return c;
  }

  CookiePair()
      : cwire(sim, 1),
        swire(sim, 2),
        client(cwire, kClientIp, cfg(false)),
        server(swire, kServerIp, cfg(true)) {
    cwire.set_peer(&server);
    swire.set_peer(&client);
  }

  sim::Simulator sim;
  CookieWire cwire;
  CookieWire swire;
  TcpStack client;
  TcpStack server;
};

TEST_F(CookiePair, HandshakeCompletesStatelesslyUntilAck) {
  net::TcpSocketPtr accepted;
  net::TcpListener* l = server.listen(80);
  l->set_accept_ready([&] { accepted = l->accept(); });
  auto sock = client.connect(SockAddr{kServerIp, 80});
  sim.run_for(100 * sim::kMillisecond);

  ASSERT_TRUE(accepted != nullptr);
  EXPECT_EQ(server.stats().syn_cookies_sent, 1u);
  EXPECT_EQ(server.stats().syn_cookies_accepted, 1u);
  EXPECT_EQ(server.stats().syn_cookies_rejected, 0u);

  // The connection is fully usable in both directions.
  const std::vector<std::uint8_t> msg{'h', 'i'};
  sock->send(msg);
  sim.run_for(50 * sim::kMillisecond);
  std::uint8_t buf[16];
  EXPECT_EQ(accepted->recv(buf), msg.size());
}

TEST_F(CookiePair, StaleCookieAckRejectedAfterRotations) {
  // Hold the client's final ACK beyond two secret rotations: the echoed
  // cookie has expired, so the server must refuse to resurrect it — no
  // TCB may be allocated from an unverifiable ACK.
  cwire.set_ack_delay(3 * server.config().syn_cookie_rotate);
  net::TcpSocketPtr accepted;
  net::TcpListener* l = server.listen(80);
  l->set_accept_ready([&] { accepted = l->accept(); });
  auto sock = client.connect(SockAddr{kServerIp, 80});
  sim.run_for(2 * sim::kSecond);

  EXPECT_TRUE(accepted == nullptr);
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_GE(server.stats().syn_cookies_rejected, 1u);
  EXPECT_EQ(server.stats().syn_cookies_accepted, 0u);
}

TEST_F(CookiePair, CorruptedCookieAckAllocatesNothing) {
  cwire.set_ack_corrupt(true);
  net::TcpSocketPtr accepted;
  net::TcpListener* l = server.listen(80);
  l->set_accept_ready([&] { accepted = l->accept(); });
  auto sock = client.connect(SockAddr{kServerIp, 80});
  sim.run_for(200 * sim::kMillisecond);

  EXPECT_TRUE(accepted == nullptr);
  EXPECT_EQ(server.connection_count(), 0u) << "forged ACK must not get a TCB";
  EXPECT_GE(server.stats().syn_cookies_rejected, 1u);
  EXPECT_EQ(server.stats().syn_cookies_accepted, 0u);
}

// ---------------------------------------------------------------------------
// Host-level defenses (testbed)
// ---------------------------------------------------------------------------

struct DefenseFixture : public ::testing::Test {
  void build(harness::NeatServerOptions so, int requests_per_conn = 1000) {
    client.reset();
    server.reset();
    tb.reset();
    harness::Testbed::Config cfg;
    cfg.seed = 606;
    tb = std::make_unique<harness::Testbed>(cfg);
    server = std::make_unique<harness::ServerRig>(
        harness::build_neat_server(*tb, so));
    harness::ClientOptions co;
    co.generators = so.webs;
    co.concurrency_per_gen = 16;
    co.requests_per_conn = requests_per_conn;
    client = std::make_unique<harness::ClientRig>(
        harness::build_client(*tb, co, so.webs));
    harness::prepopulate_arp(*server, *client);
    tb->sim.run_for(100 * sim::kMillisecond);
  }

  std::uint64_t client_errors() {
    std::uint64_t n = 0;
    for (auto& g : client->gens) n += g->report().error_conns;
    return n;
  }

  std::unique_ptr<harness::Testbed> tb;
  std::unique_ptr<harness::ServerRig> server;
  std::unique_ptr<harness::ClientRig> client;
};

TEST_F(DefenseFixture, ScaleDownWithoutTrackingFiltersDies) {
  // Lazy termination classifies straggler packets to the draining replica
  // by exact-match filter; without tracking filters those packets would
  // RSS-rehash mid-connection. This must be a hard error, not a silent
  // misconfiguration.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  harness::NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  so.tracking_filters = false;
  build(so);
  ASSERT_GT(server->neat->replica(1).tcp().active_connection_count(), 0u);
  EXPECT_DEATH(server->neat->begin_scale_down(server->neat->replica(1)),
               "lazy termination requires tracking filters");
}

TEST_F(DefenseFixture, MigrationMovesConnectionsWithoutClientErrors) {
  harness::NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  so.tracking_filters = true;
  build(so);

  auto& rep0 = server->neat->replica(0);
  auto& rep1 = server->neat->replica(1);
  const auto total_before = rep0.tcp().active_connection_count() +
                            rep1.tcp().active_connection_count();
  ASSERT_GT(total_before, 0u);
  const auto errors_before = client_errors();

  std::size_t moved = 0;
  server->neat->migrate_connections(rep0, rep1,
                                    [&moved](std::size_t n) { moved += n; });
  tb->sim.run_for(50 * sim::kMillisecond);
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(rep0.tcp().active_connection_count(), 0u);
  EXPECT_GE(rep1.tcp().active_connection_count(), total_before);

  // Traffic keeps flowing through the adopted connections.
  tb->sim.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(client_errors(), errors_before);
  const auto* h =
      tb->sim.metrics().find_histogram("neat.migration_blackout_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
}

TEST_F(DefenseFixture, MigrationChurnLeaksNoFiltersOrSockets) {
  // Ping-pong every connection between replicas, then let the workload
  // finish and drain: every tracking filter and TCB must be gone. Run
  // under ASan (scripts/check.sh) this also proves no socket objects leak.
  harness::NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  so.tracking_filters = true;
  build(so, /*requests_per_conn=*/40);
  // Deliberately BELOW TIME_WAIT (500ms): close-handshake stragglers then
  // arrive after the filter retired and used to re-fault a dead flow's
  // filter back in — a permanent leak. The NIC's dead-flow memory now
  // suppresses those refaults, so even a short linger must leak nothing.
  tb->server_nic.set_fin_retire_linger(150 * sim::kMillisecond);

  const auto errors_before = client_errors();
  for (int i = 0; i < 8; ++i) {
    server->neat->migrate_connections(
        server->neat->replica(static_cast<std::size_t>(i % 2)),
        server->neat->replica(static_cast<std::size_t>((i + 1) % 2)));
    tb->sim.run_for(30 * sim::kMillisecond);
  }
  EXPECT_EQ(client_errors(), errors_before) << "churn must be loss-free";

  // Stop opening new connections, let in-flight ones complete and retire.
  for (auto& g : client->gens) g->config().max_conns = 1;
  tb->sim.run_for(4 * sim::kSecond);

  EXPECT_EQ(server->neat->replica(0).tcp().active_connection_count(), 0u);
  EXPECT_EQ(server->neat->replica(1).tcp().active_connection_count(), 0u);
  EXPECT_EQ(tb->server_nic.flow_filter_count(), 0u)
      << "every tracking filter must be retired after the churn";
}

}  // namespace
}  // namespace neat
