// NIC model tests: Toeplitz RSS, indirection, flow-director filters with
// LRU eviction and tracking, classification, the 10G link model, TSO wire
// accounting.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "nic/nic.hpp"
#include "nic/toeplitz.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace neat::nic {
namespace {

const net::Ipv4Addr kSrvIp = net::Ipv4Addr::of(10, 0, 0, 1);
const net::Ipv4Addr kCliIp = net::Ipv4Addr::of(10, 0, 0, 2);

// ---------------------------------------------------------------------------
// Toeplitz
// ---------------------------------------------------------------------------

TEST(Toeplitz, MicrosoftVerificationVectors) {
  // The complete IPv4 table from the official RSS verification suite, for
  // the standard key: both the 4-tuple (with TCP ports) hash and the
  // IP-pair-only hash. Input tuples are (src, dst, srcport, dstport) hashed
  // as src ip, dst ip, src port, dst port.
  struct Vector {
    std::uint8_t s0, s1, s2, s3;  // source address octets
    std::uint8_t d0, d1, d2, d3;  // destination address octets
    std::uint16_t sport, dport;
    std::uint32_t with_ports;  // 4-tuple hash
    std::uint32_t ip_only;     // 2-tuple hash
  };
  constexpr Vector kVectors[] = {
      {66, 9, 149, 187, 161, 142, 100, 80, 2794, 1766, 0x51ccc178u,
       0x323e8fc2u},
      {199, 92, 111, 2, 65, 69, 140, 83, 14230, 4739, 0xc626b0eau,
       0xd718262au},
      {24, 19, 198, 95, 12, 22, 207, 184, 12898, 38024, 0x5c2b394au,
       0xd2d0a5deu},
      {38, 27, 205, 30, 209, 142, 163, 6, 48228, 2217, 0xafc7327fu,
       0x82989176u},
      {153, 39, 163, 191, 202, 188, 127, 2, 44251, 1303, 0x10e828a2u,
       0x5d1809c5u},
  };
  ToeplitzHasher h;
  for (const auto& v : kVectors) {
    const auto src = net::Ipv4Addr::of(v.s0, v.s1, v.s2, v.s3);
    const auto dst = net::Ipv4Addr::of(v.d0, v.d1, v.d2, v.d3);
    EXPECT_EQ(h.hash_tuple(src, dst, v.sport, v.dport), v.with_ports)
        << "4-tuple hash for " << int{v.s0} << "." << int{v.s1};
    EXPECT_EQ(h.hash_ip_pair(src, dst), v.ip_only)
        << "2-tuple hash for " << int{v.s0} << "." << int{v.s1};
  }
}

/// The Toeplitz hash as the RSS specification states it, one input bit at
/// a time: a 32-bit window slides over the (cyclic, zero-padded) key and
/// is XORed in for every set input bit. The reference the table-driven
/// ToeplitzHasher must match.
std::uint32_t reference_toeplitz(std::span<const std::uint8_t> key_in,
                                 std::span<const std::uint8_t> input) {
  std::array<std::uint8_t, ToeplitzHasher::kKeyBytes> key{};
  for (std::size_t i = 0; i < key.size() && i < key_in.size(); ++i) {
    key[i] = key_in[i];
  }
  std::uint32_t result = 0;
  std::uint32_t window = static_cast<std::uint32_t>(key[0]) << 24 |
                         static_cast<std::uint32_t>(key[1]) << 16 |
                         static_cast<std::uint32_t>(key[2]) << 8 |
                         static_cast<std::uint32_t>(key[3]);
  std::size_t next_byte = 4;
  for (const std::uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if (byte >> bit & 1) result ^= window;
      window <<= 1;
      const std::size_t bit_index =
          next_byte * 8 + static_cast<std::size_t>(7 - bit);
      const std::size_t key_bit = bit_index % (key.size() * 8);
      if (key[key_bit / 8] >> (7 - key_bit % 8) & 1) window |= 1;
    }
    ++next_byte;
  }
  return result;
}

TEST(Toeplitz, TablesMatchTheBitwiseReference) {
  // Random keys (short ones are zero-padded) and inputs up to 100 B: past
  // 36 B the window wraps around the end of the key, past 40 B the tables
  // are reused from the first.
  sim::Rng rng(20261018);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> key(round == 0 ? 40 : 1 + rng.below(48));
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
    const ToeplitzHasher h(key);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint8_t> in(rng.below(101));
      for (auto& b : in) b = static_cast<std::uint8_t>(rng.below(256));
      ASSERT_EQ(h.hash(in), reference_toeplitz(key, in))
          << "key " << key.size() << " B, input " << in.size() << " B";
    }
  }
  // The default key, at every length across the wrap.
  const ToeplitzHasher h;
  std::vector<std::uint8_t> in;
  for (int n = 0; n <= 90; ++n) {
    ASSERT_EQ(h.hash(in), reference_toeplitz(kDefaultRssKey, in)) << n;
    in.push_back(static_cast<std::uint8_t>(0x9e * n + 1));
  }
}

TEST(Toeplitz, DeterministicAndPortSensitive) {
  ToeplitzHasher h;
  const auto a = h.hash_tuple(kCliIp, kSrvIp, 5000, 80);
  EXPECT_EQ(a, h.hash_tuple(kCliIp, kSrvIp, 5000, 80));
  EXPECT_NE(a, h.hash_tuple(kCliIp, kSrvIp, 5001, 80));
}

TEST(Toeplitz, SpreadsFlowsRoughlyUniformly) {
  ToeplitzHasher h;
  constexpr int kQueues = 4;
  std::map<int, int> counts;
  for (std::uint16_t port = 40000; port < 44000; ++port) {
    counts[static_cast<int>(h.hash_tuple(kCliIp, kSrvIp, port, 80) %
                            kQueues)]++;
  }
  for (int q = 0; q < kQueues; ++q) {
    EXPECT_NEAR(counts[q], 1000, 150) << "queue " << q;
  }
}

// ---------------------------------------------------------------------------
// NIC fixture
// ---------------------------------------------------------------------------

struct NicFixture : public ::testing::Test {
  NicFixture()
      : nic(sim, net::MacAddr::local(1), kSrvIp, params()) {}

  static NicParams params() {
    NicParams p;
    p.num_queues = 4;
    p.flow_table_capacity = 8;
    return p;
  }

  /// Build a minimal TCP/IP/Ethernet frame addressed to the NIC.
  net::PacketPtr make_frame(std::uint16_t src_port, std::uint16_t dst_port,
                            bool syn = false, bool rst = false) {
    auto pkt = net::Packet::make(0);
    net::TcpHeader th;
    th.src_port = src_port;
    th.dst_port = dst_port;
    th.syn = syn;
    th.rst = rst;
    th.ack_flag = !syn;
    th.encode(*pkt, kCliIp, kSrvIp);
    net::Ipv4Header ih;
    ih.src = kCliIp;
    ih.dst = kSrvIp;
    ih.proto = net::IpProto::kTcp;
    ih.encode(*pkt);
    net::EthernetHeader eh;
    eh.src = net::MacAddr::local(2);
    eh.dst = net::MacAddr::local(1);
    eh.type = net::EtherType::kIpv4;
    eh.encode(*pkt);
    return pkt;
  }

  sim::Simulator sim;
  Nic nic;
};

TEST_F(NicFixture, ClassifiesByRssIndirection) {
  nic.set_active_queues({2});
  EXPECT_EQ(nic.classify(*make_frame(5000, 80)), 2);
  nic.set_active_queues({0, 1, 2, 3});
  std::map<int, int> hits;
  for (std::uint16_t p = 50000; p < 50200; ++p) {
    hits[nic.classify(*make_frame(p, 80))]++;
  }
  EXPECT_EQ(hits.size(), 4u) << "flows must spread over all active queues";
}

TEST_F(NicFixture, ExactFilterOverridesRss) {
  nic.set_active_queues({0});
  const net::FlowKey key{kSrvIp, 80, kCliIp, 5000};
  nic.add_flow_filter(key, 3);
  EXPECT_EQ(nic.classify(*make_frame(5000, 80)), 3);
  EXPECT_EQ(nic.classify(*make_frame(5001, 80)), 0);
  nic.remove_flow_filter(key);
  EXPECT_EQ(nic.classify(*make_frame(5000, 80)), 0);
}

TEST_F(NicFixture, FlowTableEvictsLru) {
  for (std::uint16_t p = 0; p < 10; ++p) {
    nic.add_flow_filter(net::FlowKey{kSrvIp, 80, kCliIp, p}, 1);
  }
  EXPECT_EQ(nic.flow_filter_count(), 8u);  // capacity
  EXPECT_EQ(nic.stats().filters_evicted, 2u);
  // Oldest two (ports 0, 1) were evicted.
  EXPECT_FALSE(nic.flow_filter(net::FlowKey{kSrvIp, 80, kCliIp, 0}));
  EXPECT_TRUE(nic.flow_filter(net::FlowKey{kSrvIp, 80, kCliIp, 9}));
}

TEST_F(NicFixture, RxEnqueueAndNotify) {
  nic.set_active_queues({1});
  int notified_queue = -1;
  nic.set_rx_notify([&](int q) { notified_queue = q; });
  nic.receive(make_frame(5000, 80));
  EXPECT_EQ(notified_queue, 1);
  EXPECT_EQ(nic.rx_depth(1), 1u);
  auto p = nic.poll_rx(1);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->rx_queue, 1);
  EXPECT_FALSE(nic.poll_rx(1));
}

TEST_F(NicFixture, RxCoalesceSharesOneDoorbellPerBurst) {
  nic.set_active_queues({1});
  nic.set_rx_coalesce(8 * sim::kMicrosecond);
  int notifies = 0;
  nic.set_rx_notify([&](int q) {
    EXPECT_EQ(q, 1);
    ++notifies;
  });
  // A back-to-back burst arrives well inside the moderation window: one
  // doorbell, fired a window after the first frame, with the whole burst
  // already sitting in the ring.
  for (int i = 0; i < 5; ++i) nic.receive(make_frame(5000, 80));
  EXPECT_EQ(notifies, 0) << "doorbell must be deferred, not immediate";
  sim.run_for(8 * sim::kMicrosecond);
  EXPECT_EQ(notifies, 1);
  EXPECT_EQ(nic.rx_depth(1), 5u);
  while (nic.poll_rx(1)) {
  }
  // An idle window later, the next frame re-arms a fresh doorbell.
  sim.run_for(100 * sim::kMicrosecond);
  nic.receive(make_frame(5000, 80));
  sim.run_for(8 * sim::kMicrosecond);
  EXPECT_EQ(notifies, 2);
  // With moderation off the doorbell is synchronous again.
  nic.set_rx_coalesce(0);
  while (nic.poll_rx(1)) {
  }
  nic.receive(make_frame(5000, 80));
  EXPECT_EQ(notifies, 3);
}

TEST_F(NicFixture, RxCoalesceSkipsDoorbellForDrainedQueue) {
  nic.set_active_queues({1});
  nic.set_rx_coalesce(8 * sim::kMicrosecond);
  int notifies = 0;
  nic.set_rx_notify([&](int) { ++notifies; });
  nic.receive(make_frame(5000, 80));
  // The driver polls the queue empty (e.g. an unrelated kick) before the
  // moderated doorbell fires: the doorbell finds nothing and stays silent.
  ASSERT_TRUE(nic.poll_rx(1));
  sim.run_for(8 * sim::kMicrosecond);
  EXPECT_EQ(notifies, 0);
}

TEST_F(NicFixture, WrongMacIsDropped) {
  auto pkt = make_frame(5000, 80);
  // Rewrite the destination MAC.
  auto b = pkt->bytes();
  b[0] = 0x02;
  b[5] = 0x77;
  nic.receive(pkt);
  EXPECT_EQ(nic.stats().rx_dropped_no_match, 1u);
  EXPECT_EQ(nic.rx_depth(0) + nic.rx_depth(1) + nic.rx_depth(2) +
                nic.rx_depth(3),
            0u);
}

TEST_F(NicFixture, QueueOverflowDrops) {
  NicParams p = params();
  p.queue_depth = 4;
  Nic small(sim, net::MacAddr::local(1), kSrvIp, p);
  small.set_active_queues({0});
  for (int i = 0; i < 10; ++i) small.receive(make_frame(5000, 80));
  EXPECT_EQ(small.rx_depth(0), 4u);
  EXPECT_EQ(small.stats().rx_dropped_queue_full, 6u);
}

TEST_F(NicFixture, TrackingFiltersPinFlowsAcrossReconfiguration) {
  NicParams p = params();
  p.tracking_filters = true;
  Nic track(sim, net::MacAddr::local(1), kSrvIp, p);
  track.set_active_queues({0, 1});

  // A SYN establishes the flow on its RSS queue and installs a filter.
  auto syn = make_frame(6000, 80, /*syn=*/true);
  const int q0 = track.classify(*syn);
  track.receive(syn);
  EXPECT_EQ(track.flow_filter_count(), 1u);

  // Reconfigure steering away from this queue; the established flow still
  // lands where its SYN went (lazy termination depends on this).
  track.set_active_queues({q0 == 0 ? 1 : 0});
  auto data = make_frame(6000, 80);
  EXPECT_EQ(track.classify(*data), q0);

  // RST tears the filter down.
  track.receive(make_frame(6000, 80, false, /*rst=*/true));
  EXPECT_EQ(track.flow_filter_count(), 0u);
}

TEST_F(NicFixture, PeekFlowParsesTcpFlags) {
  auto syn = make_frame(7000, 80, true);
  auto flow = Nic::peek_flow(*syn, kSrvIp);
  ASSERT_TRUE(flow);
  EXPECT_TRUE(flow->is_tcp);
  EXPECT_TRUE(flow->syn);
  EXPECT_EQ(flow->key.remote_port, 7000);
  EXPECT_EQ(flow->key.local_port, 80);
  EXPECT_EQ(flow->key.remote_ip, kCliIp);
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

struct LinkFixture : public ::testing::Test {
  LinkFixture()
      : a(sim, net::MacAddr::local(1), kSrvIp, NicParams{}),
        b(sim, net::MacAddr::local(2), kCliIp, NicParams{}),
        link(sim, a, b, link_params()) {}

  static nic::Link::Params link_params() {
    nic::Link::Params p;
    p.bandwidth_gbps = 10.0;
    p.propagation = 500;
    return p;
  }

  net::PacketPtr frame_to_b(std::size_t payload) {
    auto pkt = net::Packet::make(payload);
    net::EthernetHeader eh;
    eh.src = net::MacAddr::local(1);
    eh.dst = net::MacAddr::local(2);
    eh.encode(*pkt);
    return pkt;
  }

  sim::Simulator sim;
  Nic a, b;
  Link link;
};

TEST_F(LinkFixture, DeliversAfterSerializationAndPropagation) {
  sim::SimTime arrival = 0;
  b.set_rx_notify([&](int) { arrival = sim.now(); });
  a.transmit(frame_to_b(1000));
  sim.run();
  // (1014 bytes + 38B overhead) * 8 / 10 = ~842 ns + 500 ns propagation.
  EXPECT_NEAR(static_cast<double>(arrival), 842 + 500, 30);
  EXPECT_EQ(link.frames_delivered(), 1u);
}

TEST_F(LinkFixture, FifoSerializationQueues) {
  std::vector<sim::SimTime> arrivals;
  b.set_rx_notify([&](int) { arrivals.push_back(sim.now()); });
  a.transmit(frame_to_b(1000));
  a.transmit(frame_to_b(1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second frame waits for the first to serialize (~842 ns spacing).
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), 842, 30);
}

TEST_F(LinkFixture, TsoSuperSegmentBillsPerFrameOverhead) {
  std::vector<sim::SimTime> arrivals;
  b.set_rx_notify([&](int) { arrivals.push_back(sim.now()); });

  const sim::SimTime t0 = sim.now();
  a.transmit(frame_to_b(64000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  const sim::SimTime plain = arrivals[0] - t0;

  const sim::SimTime t1 = sim.now();
  auto big = frame_to_b(64000);
  big->tso = true;
  a.transmit(big);
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const sim::SimTime tso = arrivals[1] - t1;

  // TSO pays Ethernet overhead per MTU-sized frame: ~43 frames * 38 B at
  // 10G is ~1.3 us of extra wire time over the single giant frame.
  EXPECT_GT(tso, plain + sim::kMicrosecond);
}

TEST_F(LinkFixture, DropAndCorruptInjection) {
  link.set_drop_probability(1.0);
  a.transmit(frame_to_b(100));
  sim.run();
  EXPECT_EQ(link.frames_dropped(), 1u);
  EXPECT_EQ(link.frames_delivered(), 0u);

  link.set_drop_probability(0.0);
  link.set_corrupt_probability(1.0);
  a.transmit(frame_to_b(100));
  sim.run();
  EXPECT_EQ(link.frames_corrupted(), 1u);
  EXPECT_EQ(link.frames_delivered(), 1u);  // corrupted but delivered
}

TEST_F(LinkFixture, FullDuplexDirectionsIndependent) {
  std::vector<sim::SimTime> a_rx, b_rx;
  a.set_rx_notify([&](int) { a_rx.push_back(sim.now()); });
  b.set_rx_notify([&](int) { b_rx.push_back(sim.now()); });
  a.transmit(frame_to_b(1000));
  auto back = net::Packet::make(1000);
  net::EthernetHeader eh;
  eh.src = net::MacAddr::local(2);
  eh.dst = net::MacAddr::local(1);
  eh.encode(*back);
  b.transmit(back);
  sim.run();
  ASSERT_EQ(a_rx.size(), 1u);
  ASSERT_EQ(b_rx.size(), 1u);
  // Neither waited on the other: both arrive at the single-frame latency.
  EXPECT_NEAR(static_cast<double>(a_rx[0]), 842 + 500, 30);
  EXPECT_NEAR(static_cast<double>(b_rx[0]), 842 + 500, 30);
}

}  // namespace
}  // namespace neat::nic
