// TCP state-machine tests: two TcpStacks wired back-to-back over an
// impairable virtual wire (loss, reordering, duplication, corruption).
#include <gtest/gtest.h>

#include <deque>
#include <numeric>
#include <vector>

#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace neat::net {
namespace {

const Ipv4Addr kClientIp = Ipv4Addr::of(10, 0, 0, 2);
const Ipv4Addr kServerIp = Ipv4Addr::of(10, 0, 0, 1);

struct Impairments {
  double loss{0.0};
  double dup{0.0};
  double corrupt{0.0};
  sim::SimTime jitter{0};  ///< uniform extra delay -> reordering
};

/// TcpEnv over the bare event queue: segments are delivered to the peer
/// stack after a small latency, possibly impaired.
class WireEnv final : public TcpEnv {
 public:
  WireEnv(sim::Simulator& sim, std::uint64_t seed)
      : sim_(sim), rng_(seed) {}

  void set_peer(TcpStack* peer) { peer_ = peer; }
  void set_impairments(Impairments i) { imp_ = i; }
  void set_iss(std::uint32_t iss) { forced_iss_ = iss; }
  /// Lose the next `n` segments this side sends.
  void drop_next(int n) { drop_next_ = n; }
  /// Fire timers the way a stack process does (sim::Process::after): the
  /// timer event only queues the job, which runs `d` later. In between,
  /// cancelling the timer no longer stops the job.
  void set_timer_job_delay(sim::SimTime d) { timer_job_delay_ = d; }

  sim::SimTime now() override { return sim_.now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               std::function<void()> fn) override {
    if (timer_job_delay_ == 0) return sim_.schedule(delay, std::move(fn));
    return sim_.schedule(delay, [this, fn = std::move(fn)]() mutable {
      sim_.post(timer_job_delay_, std::move(fn));
    });
  }
  std::uint32_t random_u32() override {
    if (forced_iss_) return *forced_iss_;
    return static_cast<std::uint32_t>(rng_());
  }

  void tx(PacketPtr segment, Ipv4Addr src, Ipv4Addr dst) override {
    ++segments_sent_;
    seg_sizes_.push_back(segment->size());
    const auto b = segment->bytes();
    if (segment->size() > static_cast<std::size_t>(b[12] >> 4) * 4) {
      data_seqs_.push_back(get_u32(b, 4));
    }
    if (drop_next_ > 0) {
      --drop_next_;
      return;
    }
    if (rng_.chance(imp_.loss)) return;
    const int copies = rng_.chance(imp_.dup) ? 2 : 1;
    for (int i = 0; i < copies; ++i) {
      PacketPtr pkt = copies == 2 ? segment->clone() : segment;
      if (rng_.chance(imp_.corrupt) && pkt->size() > 0) {
        pkt = pkt->clone();
        pkt->bytes()[rng_.below(pkt->size())] ^= 0xff;
      }
      const sim::SimTime delay =
          10 * sim::kMicrosecond +
          (imp_.jitter ? rng_.below(imp_.jitter) : 0);
      sim_.schedule(delay, [this, pkt, src, dst] {
        if (peer_ != nullptr) peer_->rx(src, dst, pkt);
      });
    }
  }

  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_; }
  [[nodiscard]] const std::vector<std::size_t>& seg_sizes() const {
    return seg_sizes_;
  }
  /// Sequence numbers of the data-bearing segments, in send order.
  [[nodiscard]] const std::vector<std::uint32_t>& data_seqs() const {
    return data_seqs_;
  }

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  TcpStack* peer_{nullptr};
  Impairments imp_;
  std::optional<std::uint32_t> forced_iss_;
  int drop_next_{0};
  sim::SimTime timer_job_delay_{0};
  std::uint64_t segments_sent_{0};
  std::vector<std::size_t> seg_sizes_;
  std::vector<std::uint32_t> data_seqs_;
};

struct TcpPair : public ::testing::Test {
  TcpPair()
      : client_env(sim, 1),
        server_env(sim, 2),
        client(client_env, kClientIp, cfg()),
        server(server_env, kServerIp, cfg()) {
    client_env.set_peer(&server);
    server_env.set_peer(&client);
  }

  static TcpConfig cfg() {
    TcpConfig c;
    c.rto_min = 20 * sim::kMillisecond;
    c.rto_initial = 50 * sim::kMillisecond;
    c.time_wait = 50 * sim::kMillisecond;
    c.delayed_ack = 0;  // deterministic acking unless a test overrides
    c.tso = false;       // per-MSS segments: more interesting protocol
                         // behaviour (TSO has its own test)
    return c;
  }

  /// Run until quiescent or the deadline.
  void run(sim::SimTime t = sim::kSecond) { sim.run_until(sim.now() + t); }

  TcpSocketPtr connect_and_accept(TcpListener** listener_out = nullptr,
                                  std::uint16_t port = 80) {
    TcpListener* l = server.listener(port);
    if (l == nullptr) l = server.listen(port);
    if (listener_out != nullptr) *listener_out = l;
    auto c = client.connect(SockAddr{kServerIp, port});
    run(200 * sim::kMillisecond);
    return c;
  }

  sim::Simulator sim;
  WireEnv client_env;
  WireEnv server_env;
  TcpStack client;
  TcpStack server;
};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 7 + (i >> 8));
  }
  return v;
}

/// Pump `data` through `src` -> `dst`, reading into `sink`, until all
/// bytes arrive or the deadline passes.
void transfer_on(sim::Simulator& sim, const TcpSocketPtr& src,
                 const TcpSocketPtr& dst,
                 const std::vector<std::uint8_t>& data,
                 std::vector<std::uint8_t>& sink,
                 sim::SimTime deadline = 30 * sim::kSecond) {
  std::size_t off = 0;
  const sim::SimTime end = sim.now() + deadline;
  while (sink.size() < data.size() && sim.now() < end) {
    off += src->send(std::span<const std::uint8_t>(data).subspan(off));
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = dst->recv(buf)) > 0) {
      sink.insert(sink.end(), buf, buf + n);
    }
    sim.run_until(sim.now() + sim::kMillisecond);
  }
}

void transfer(TcpPair& t, const TcpSocketPtr& src, const TcpSocketPtr& dst,
              const std::vector<std::uint8_t>& data,
              std::vector<std::uint8_t>& sink,
              sim::SimTime deadline = 30 * sim::kSecond) {
  transfer_on(t.sim, src, dst, data, sink, deadline);
}

// ---------------------------------------------------------------------------
// Sequence arithmetic
// ---------------------------------------------------------------------------

TEST(SeqArith, WrapsCorrectly) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));  // wrapped compare
  EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_le(5u, 5u));
  EXPECT_TRUE(seq_ge(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

// ---------------------------------------------------------------------------
// Handshake & basics
// ---------------------------------------------------------------------------

TEST_F(TcpPair, ThreeWayHandshakeEstablishes) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->state(), TcpState::kEstablished);
  ASSERT_EQ(l->pending(), 1u);
  auto s = l->accept();
  ASSERT_TRUE(s);
  EXPECT_EQ(s->state(), TcpState::kEstablished);
  EXPECT_EQ(server.stats().conns_accepted, 1u);
  EXPECT_EQ(client.stats().conns_initiated, 1u);
}

TEST_F(TcpPair, EstablishedCallbackFires) {
  server.listen(80);
  auto c = client.connect(SockAddr{kServerIp, 80});
  bool established = false;
  TcpSocket::Callbacks cb;
  cb.on_established = [&] { established = true; };
  c->set_callbacks(std::move(cb));
  run(100 * sim::kMillisecond);
  EXPECT_TRUE(established);
}

TEST_F(TcpPair, ConnectToClosedPortIsRefused) {
  auto c = client.connect(SockAddr{kServerIp, 81});
  TcpCloseReason reason{};
  bool closed = false;
  TcpSocket::Callbacks cb;
  cb.on_closed = [&](TcpCloseReason r) {
    closed = true;
    reason = r;
  };
  c->set_callbacks(std::move(cb));
  run(200 * sim::kMillisecond);
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, TcpCloseReason::kRefused);
  EXPECT_GT(server.stats().rsts_out, 0u);
}

TEST_F(TcpPair, SynRetransmitsUntilGivingUp) {
  // No peer wired at all: every SYN vanishes.
  client_env.set_peer(nullptr);
  auto c = client.connect(SockAddr{kServerIp, 80});
  TcpCloseReason reason{};
  TcpSocket::Callbacks cb;
  cb.on_closed = [&](TcpCloseReason r) { reason = r; };
  c->set_callbacks(std::move(cb));
  run(30 * sim::kSecond);
  EXPECT_EQ(c->state(), TcpState::kClosed);
  EXPECT_EQ(reason, TcpCloseReason::kTimeout);
  EXPECT_GE(client_env.segments_sent(), 3u);  // SYN + retries
}

TEST_F(TcpPair, MssIsNegotiatedToTheMinimum) {
  TcpConfig small = cfg();
  small.mss = 500;
  TcpStack tiny_server(server_env, kServerIp, small);
  client_env.set_peer(&tiny_server);
  server_env.set_peer(&client);
  tiny_server.listen(80);
  auto c = client.connect(SockAddr{kServerIp, 80});
  run(100 * sim::kMillisecond);
  ASSERT_EQ(c->state(), TcpState::kEstablished);

  // Client -> server data segments must respect the server's 500-byte MSS.
  c->send(pattern(5000));
  run(200 * sim::kMillisecond);
  bool any_data = false;
  for (std::size_t sz : client_env.seg_sizes()) {
    if (sz > TcpHeader::kMinSize + 4) {
      any_data = true;
      EXPECT_LE(sz, 500u + TcpHeader::kMinSize + 4);
    }
  }
  EXPECT_TRUE(any_data);
}

TEST_F(TcpPair, TsoEmitsSuperSegments) {
  TcpConfig tso_cfg = cfg();
  tso_cfg.tso = true;
  sim::Simulator sim2;
  WireEnv ce(sim2, 1), se(sim2, 2);
  TcpStack c_stack(ce, kClientIp, tso_cfg);
  TcpStack s_stack(se, kServerIp, cfg());
  ce.set_peer(&s_stack);
  se.set_peer(&c_stack);
  s_stack.listen(80);
  auto c = c_stack.connect(SockAddr{kServerIp, 80});
  sim2.run_until(100 * sim::kMillisecond);
  ASSERT_EQ(c->state(), TcpState::kEstablished);
  auto s = s_stack.listener(80)->accept();
  const auto data = pattern(60000, 7);
  std::vector<std::uint8_t> sink;
  transfer_on(sim2, c, s, data, sink);
  ASSERT_EQ(sink, data);
  // The sender must have used far fewer (larger) segments than 60000/1460.
  std::size_t biggest = 0;
  for (std::size_t sz : ce.seg_sizes()) biggest = std::max(biggest, sz);
  EXPECT_GT(biggest, 2 * 1460u);
}

TEST_F(TcpPair, BacklogOverflowDropsSyn) {
  server.listen(80, /*backlog=*/2);
  std::vector<TcpSocketPtr> conns;
  for (int i = 0; i < 5; ++i) {
    conns.push_back(client.connect(SockAddr{kServerIp, 80}));
  }
  run(300 * sim::kMillisecond);
  EXPECT_GT(server.stats().syns_dropped_backlog, 0u);
  EXPECT_LE(server.listener(80)->pending(), 2u);
}

TEST_F(TcpPair, EphemeralPortsAreUnique) {
  server.listen(80);
  std::vector<TcpSocketPtr> conns;
  for (int i = 0; i < 50; ++i) {
    auto c = client.connect(SockAddr{kServerIp, 80});
    ASSERT_TRUE(c);
    conns.push_back(c);
  }
  std::set<std::uint16_t> ports;
  for (const auto& c : conns) ports.insert(c->flow().local_port);
  EXPECT_EQ(ports.size(), conns.size());
}

// ---------------------------------------------------------------------------
// Data transfer
// ---------------------------------------------------------------------------

TEST_F(TcpPair, SmallRequestResponse) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  ASSERT_TRUE(s);

  const auto req = pattern(64, 1);
  EXPECT_EQ(c->send(req), req.size());
  run(100 * sim::kMillisecond);
  std::vector<std::uint8_t> got(64);
  ASSERT_EQ(s->recv(got), req.size());
  EXPECT_EQ(got, req);

  const auto resp = pattern(128, 2);
  EXPECT_EQ(s->send(resp), resp.size());
  run(100 * sim::kMillisecond);
  std::vector<std::uint8_t> got2(128);
  ASSERT_EQ(c->recv(got2), resp.size());
  EXPECT_EQ(got2, resp);
}

TEST_F(TcpPair, ReadableCallbackOnDataAndEof) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  int readable = 0;
  TcpSocket::Callbacks cb;
  cb.on_readable = [&] { ++readable; };
  s->set_callbacks(std::move(cb));
  c->send(pattern(10));
  run(100 * sim::kMillisecond);
  EXPECT_GE(readable, 1);
  const int before = readable;
  c->close();
  run(100 * sim::kMillisecond);
  EXPECT_GT(readable, before) << "EOF is signalled via on_readable";
  std::uint8_t buf[32];
  s->recv(buf);
  EXPECT_TRUE(s->eof());
}

class TcpTransferSize : public TcpPair,
                        public ::testing::WithParamInterface<std::size_t> {};

TEST_P(TcpTransferSize, BulkTransferIsExact) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  ASSERT_TRUE(s);
  const auto data = pattern(GetParam(), 3);
  std::vector<std::uint8_t> sink;
  transfer(*this, c, s, data, sink);
  ASSERT_EQ(sink.size(), data.size());
  EXPECT_EQ(sink, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpTransferSize,
                         ::testing::Values(1, 100, 1460, 1461, 65536,
                                           200000, 1048576));

TEST_F(TcpPair, FlowControlStallsAndResumesOnRead) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  ASSERT_TRUE(s);

  // Server app never reads: the client can push at most roughly the
  // server's receive buffer plus its own send buffer.
  const auto data = pattern(1 << 20);
  std::size_t accepted = 0;
  for (int i = 0; i < 50; ++i) {
    accepted += c->send(std::span<const std::uint8_t>(data).subspan(
        accepted, std::min<std::size_t>(8192, data.size() - accepted)));
    run(20 * sim::kMillisecond);
  }
  EXPECT_LE(accepted, cfg().send_buf + cfg().recv_buf + 1);
  EXPECT_GE(s->readable(), cfg().recv_buf - 1460);

  // Now drain the server side; the rest of the stream must complete.
  std::vector<std::uint8_t> sink;
  std::size_t off = accepted;
  const sim::SimTime end = sim.now() + 60 * sim::kSecond;
  while (sink.size() < data.size() && sim.now() < end) {
    off += c->send(std::span<const std::uint8_t>(data).subspan(off));
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = s->recv(buf)) > 0) sink.insert(sink.end(), buf, buf + n);
    run(sim::kMillisecond);
  }
  EXPECT_EQ(sink, data);
}

/// A writer that, like an event-driven app, writes only when told there
/// is room: once the reader's window closes, nothing but TCP itself can
/// restart the stream.
struct WriteOnWritable {
  WriteOnWritable(TcpSocketPtr sock, std::vector<std::uint8_t> bytes)
      : s(std::move(sock)), data(std::move(bytes)) {
    TcpSocket::Callbacks cb;
    cb.on_writable = [this] { write_more(); };
    s->set_callbacks(std::move(cb));
    write_more();
  }
  void write_more() {
    off += s->send(std::span<const std::uint8_t>(data).subspan(off));
  }
  TcpSocketPtr s;
  std::vector<std::uint8_t> data;
  std::size_t off{0};
};

/// Read everything `s` has every millisecond until `want` bytes arrived or
/// `deadline` passed.
std::vector<std::uint8_t> drain_polling(TcpPair& t, TcpSocket& s,
                                        std::size_t want,
                                        sim::SimTime deadline) {
  std::vector<std::uint8_t> sink;
  const sim::SimTime end = t.sim.now() + deadline;
  while (sink.size() < want && t.sim.now() < end) {
    std::uint8_t buf[4096];
    while (const std::size_t n = s.recv(buf)) sink.insert(sink.end(), buf, buf + n);
    t.run(sim::kMillisecond);
  }
  return sink;
}

TEST_F(TcpPair, DrainAfterWindowCloseDeliversEveryByte) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  ASSERT_TRUE(s);

  // The reader sleeps until its window has closed with the writer's
  // buffers full, but not long enough for a zero-window probe.
  WriteOnWritable w(c, pattern(256 * 1024));
  run(5 * sim::kMillisecond);
  ASSERT_EQ(s->readable(), cfg().recv_buf);
  ASSERT_LT(w.off, w.data.size());
  ASSERT_EQ(c->retransmits(), 0u);

  // Then it drains. The window update its first read sends must restart
  // the stream by itself: no probe, no retransmission.
  const auto sink = drain_polling(*this, *s, w.data.size(), 5 * sim::kSecond);
  EXPECT_EQ(sink, w.data);
  EXPECT_EQ(c->retransmits(), 0u);
  EXPECT_EQ(c->state(), TcpState::kEstablished);
}

TEST_F(TcpPair, ZeroWindowProbeAloneRestartsTheStream) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  ASSERT_TRUE(s);

  WriteOnWritable w(c, pattern(256 * 1024));
  run(50 * sim::kMillisecond);
  ASSERT_EQ(s->readable(), cfg().recv_buf);

  // The window update the first read sends is lost: the writer learns the
  // window reopened only from the ACK of its next zero-window probe, whose
  // bytes the reader now accepts.
  server_env.drop_next(1);
  const std::uint64_t probes = c->retransmits();
  const auto sink = drain_polling(*this, *s, w.data.size(), 5 * sim::kSecond);
  EXPECT_EQ(sink, w.data);
  EXPECT_GT(c->retransmits(), probes);
}

TEST_F(TcpPair, ZeroWindowProbesNeverTimeOutAnAnsweringReceiver) {
  // Default RTO bounds: the probe backoff reaches rto_max (8 s) after a
  // few probes, and data_retries (8) probes take about 21 s. A receiver
  // that answers every probe with a zero window is alive, however long
  // its application sleeps.
  sim::Simulator sim2;
  WireEnv ce(sim2, 1), se(sim2, 2);
  const TcpConfig zcfg;
  TcpStack client2(ce, kClientIp, zcfg);
  TcpStack server2(se, kServerIp, zcfg);
  ce.set_peer(&server2);
  se.set_peer(&client2);
  server2.listen(80);
  auto c2 = client2.connect(SockAddr{kServerIp, 80});
  sim2.run_for(200 * sim::kMillisecond);
  auto s2 = server2.listener(80)->accept();
  ASSERT_TRUE(s2);

  WriteOnWritable w(c2, pattern(512 * 1024));
  sim2.run_for(60 * sim::kSecond);  // the reader's application sleeps
  ASSERT_EQ(s2->readable(), zcfg.recv_buf);
  EXPECT_EQ(c2->state(), TcpState::kEstablished);
  EXPECT_GT(c2->retransmits(), static_cast<std::uint64_t>(zcfg.data_retries))
      << "the sender must have kept probing";

  std::vector<std::uint8_t> sink;
  const sim::SimTime end = sim2.now() + 30 * sim::kSecond;
  while (sink.size() < w.data.size() && sim2.now() < end) {
    std::uint8_t buf[4096];
    while (const std::size_t n = s2->recv(buf)) {
      sink.insert(sink.end(), buf, buf + n);
    }
    sim2.run_for(sim::kMillisecond);
  }
  EXPECT_EQ(sink, w.data);
  EXPECT_EQ(c2->state(), TcpState::kEstablished);
}

TEST_F(TcpPair, DelayedAckJobQueuedWhenItsTcbDiesDoesNothing) {
  // A timer job holds a bare TCB pointer and a liveness token. Its timer
  // is cancelled when the TCB dies, but a job the timer has already
  // queued is not: it must find the TCB dead and do nothing (ASan, in
  // scripts/check.sh, reports any access to the freed TCB).
  sim::Simulator sim2;
  WireEnv ce(sim2, 1), se(sim2, 2);
  TcpConfig dcfg = cfg();
  dcfg.delayed_ack = 40 * sim::kMillisecond;
  TcpStack client2(ce, kClientIp, cfg());
  TcpStack server2(se, kServerIp, dcfg);
  ce.set_peer(&server2);
  se.set_peer(&client2);
  se.set_timer_job_delay(sim::kMillisecond);
  server2.listen(80);
  auto c2 = client2.connect(SockAddr{kServerIp, 80});
  sim2.run_for(200 * sim::kMillisecond);
  auto s2 = server2.listener(80)->accept();
  ASSERT_TRUE(s2);
  const auto data = pattern(100);

  // Control: the delayed ACK's job runs 1 ms after its timer and sends.
  ASSERT_EQ(c2->send(data), data.size());
  sim2.run_for(40 * sim::kMillisecond + sim::kMillisecond / 2);
  std::uint64_t sent = se.segments_sent();
  sim2.run_for(sim::kMillisecond);
  EXPECT_EQ(se.segments_sent(), sent + 1);

  // The same, but the TCB dies (a crash, and the app's reference) while
  // the job is queued.
  ASSERT_EQ(c2->send(data), data.size());
  sim2.run_for(40 * sim::kMillisecond + sim::kMillisecond / 2);
  sent = se.segments_sent();
  const std::weak_ptr<TcpSocket> watch = s2;
  server2.destroy_all_state();
  s2.reset();
  ASSERT_TRUE(watch.expired());
  sim2.run_for(sim::kMillisecond);
  EXPECT_EQ(se.segments_sent(), sent);
}

// Every connection end carries one TCB, and TIME_WAIT keeps it after the
// socket above it is gone: DESIGN.md §5n's byte budget puts it at 320 B
// (one owner pointer, no closures, 32-B rings, 16-B timer handles, the
// configuration read through the stack, reassembly state out of line).
TEST(TcpSocketFootprint, StaysWithinTheByteBudget) {
  EXPECT_LE(sizeof(TcpSocket), 320u);
}

TEST_F(TcpPair, BidirectionalSimultaneousTransfer) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  const auto up = pattern(100000, 5);
  const auto down = pattern(120000, 6);
  std::vector<std::uint8_t> up_sink, down_sink;
  std::size_t uo = 0, doo = 0;
  for (int iter = 0; iter < 4000 &&
                     (up_sink.size() < up.size() ||
                      down_sink.size() < down.size());
       ++iter) {
    uo += c->send(std::span<const std::uint8_t>(up).subspan(uo));
    doo += s->send(std::span<const std::uint8_t>(down).subspan(doo));
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = s->recv(buf)) > 0) up_sink.insert(up_sink.end(), buf, buf + n);
    while ((n = c->recv(buf)) > 0) {
      down_sink.insert(down_sink.end(), buf, buf + n);
    }
    sim.run_until(sim.now() + sim::kMillisecond);
  }
  EXPECT_EQ(up_sink, up);
  EXPECT_EQ(down_sink, down);
}

// ---------------------------------------------------------------------------
// Impairments: loss, reorder, duplication, corruption
// ---------------------------------------------------------------------------

struct Impair {
  double loss, dup, corrupt;
  sim::SimTime jitter;
};

class TcpImpaired : public TcpPair,
                    public ::testing::WithParamInterface<Impair> {};

TEST_P(TcpImpaired, StreamSurvivesExactlyOnceInOrder) {
  const auto imp = GetParam();
  client_env.set_impairments({imp.loss, imp.dup, imp.corrupt, imp.jitter});
  server_env.set_impairments({imp.loss, imp.dup, imp.corrupt, imp.jitter});

  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  ASSERT_TRUE(c);
  run(sim::kSecond);  // handshake may need retries under loss
  ASSERT_EQ(c->state(), TcpState::kEstablished);
  auto s = l->accept();
  ASSERT_TRUE(s);

  const auto data = pattern(400000, 9);
  std::vector<std::uint8_t> sink;
  transfer(*this, c, s, data, sink, 240 * sim::kSecond);
  ASSERT_EQ(sink.size(), data.size());
  EXPECT_EQ(sink, data);
  if (imp.loss > 0.0) {
    EXPECT_GT(client.stats().retransmits, 0u);
  }
  if (imp.corrupt > 0.0) {
    EXPECT_GT(server.stats().checksum_drops + client.stats().checksum_drops,
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, TcpImpaired,
    ::testing::Values(Impair{0.01, 0, 0, 0},          // light loss
                      Impair{0.05, 0, 0, 0},          // heavy loss
                      Impair{0, 0, 0, sim::kMillisecond},  // reordering
                      Impair{0, 0.1, 0, 0},           // duplication
                      Impair{0, 0, 0.02, 0},          // corruption
                      Impair{0.02, 0.05, 0.01, 200 * sim::kMicrosecond}));

TEST_F(TcpPair, FastRetransmitRecoversWithoutRtoStall) {
  // Drop exactly one data segment, then deliver everything else: the
  // 3-dupACK path must resend it well before the RTO.
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  client_env.set_impairments({0.08, 0, 0, 0});
  const auto data = pattern(300000, 4);
  std::vector<std::uint8_t> sink;
  const sim::SimTime start = sim.now();
  transfer(*this, c, s, data, sink, 120 * sim::kSecond);
  ASSERT_EQ(sink, data);
  EXPECT_GT(client.stats().retransmits, 0u);
  // With fast retransmit, a 300KB transfer under 8% loss completes in far
  // fewer RTO periods than the number of losses.
  EXPECT_LT(sim.now() - start, 20 * sim::kSecond);
}

// ---------------------------------------------------------------------------
// Close behaviour
// ---------------------------------------------------------------------------

TEST_F(TcpPair, OrderlyCloseBothDirections) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();

  c->close();
  run(100 * sim::kMillisecond);
  EXPECT_EQ(s->state(), TcpState::kCloseWait);
  EXPECT_EQ(c->state(), TcpState::kFinWait2);
  EXPECT_TRUE(s->eof());

  s->close();
  run(10 * sim::kMillisecond);  // < the 50 ms TIME_WAIT hold
  EXPECT_EQ(s->state(), TcpState::kClosed);
  EXPECT_EQ(c->state(), TcpState::kTimeWait);
  run(200 * sim::kMillisecond);  // TIME_WAIT expires
  EXPECT_EQ(c->state(), TcpState::kClosed);
  EXPECT_EQ(client.connection_count(), 0u);
  EXPECT_EQ(server.connection_count(), 0u);
}

TEST_F(TcpPair, CloseFlushesPendingData) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  const auto data = pattern(50000, 8);
  std::size_t off = c->send(data);
  c->close();  // FIN must wait for the remaining bytes
  std::vector<std::uint8_t> sink;
  for (int i = 0; i < 2000 && sink.size() < data.size(); ++i) {
    off += c->send(std::span<const std::uint8_t>(data).subspan(off));
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = s->recv(buf)) > 0) sink.insert(sink.end(), buf, buf + n);
    run(sim::kMillisecond);
  }
  // close() forbids further sends, so only the first chunk arrives — but
  // everything accepted before close must arrive, in order, before EOF.
  EXPECT_GE(sink.size(), std::min<std::size_t>(data.size(), cfg().send_buf));
  EXPECT_TRUE(std::equal(sink.begin(), sink.end(), data.begin()));
  run(sim::kSecond);
  EXPECT_TRUE(s->eof());
}

TEST_F(TcpPair, SimultaneousCloseReachesClosed) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  c->close();
  s->close();  // both FINs cross on the wire
  run(sim::kSecond);
  EXPECT_EQ(c->state(), TcpState::kClosed);
  EXPECT_EQ(s->state(), TcpState::kClosed);
}

TEST_F(TcpPair, AbortSendsRstPeerSeesReset) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  TcpCloseReason reason{};
  TcpSocket::Callbacks cb;
  cb.on_closed = [&](TcpCloseReason r) { reason = r; };
  s->set_callbacks(std::move(cb));
  c->abort();
  run(100 * sim::kMillisecond);
  EXPECT_EQ(s->state(), TcpState::kClosed);
  EXPECT_EQ(reason, TcpCloseReason::kReset);
}

TEST_F(TcpPair, CrashedStackAnswersStragglersWithRst) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  ASSERT_EQ(s->state(), TcpState::kEstablished);

  server.destroy_all_state();  // the crash: silent
  EXPECT_EQ(server.connection_count(), 0u);

  TcpCloseReason reason{};
  TcpSocket::Callbacks cb;
  cb.on_closed = [&](TcpCloseReason r) { reason = r; };
  c->set_callbacks(std::move(cb));
  c->send(pattern(100));
  run(sim::kSecond);
  EXPECT_EQ(c->state(), TcpState::kClosed);
  EXPECT_EQ(reason, TcpCloseReason::kReset);
}

TEST_F(TcpPair, TimeWaitReleasesBufferMemory) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  c->send(pattern(1000));
  run(100 * sim::kMillisecond);
  std::uint8_t buf[2048];
  s->recv(buf);
  c->close();
  run(50 * sim::kMillisecond);
  s->close();
  run(20 * sim::kMillisecond);
  ASSERT_EQ(c->state(), TcpState::kTimeWait);
  // No data may be buffered in TIME_WAIT.
  EXPECT_EQ(c->readable(), 0u);
  EXPECT_EQ(c->inflight(), 0u);
}

// ---------------------------------------------------------------------------
// Sequence-number wraparound
// ---------------------------------------------------------------------------

TEST_F(TcpPair, TransferAcrossSeqWrap) {
  client_env.set_iss(0xffffff00u);  // ISS 256 bytes before the wrap
  server_env.set_iss(0xfffffe00u);
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  ASSERT_TRUE(c);
  ASSERT_EQ(c->state(), TcpState::kEstablished);
  auto s = l->accept();
  const auto data = pattern(10000, 11);
  std::vector<std::uint8_t> sink;
  transfer(*this, c, s, data, sink);
  EXPECT_EQ(sink, data);
}

// ---------------------------------------------------------------------------
// Delayed ACK
// ---------------------------------------------------------------------------

TEST_F(TcpPair, DelayedAckReducesPureAcks) {
  // Immediate-ack config (fixture default) vs delayed-ack config.
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  const auto data = pattern(100000, 1);
  std::vector<std::uint8_t> sink;
  transfer(*this, c, s, data, sink);
  const std::uint64_t immediate_acks = server.stats().pure_acks_out;

  // Fresh wiring with delayed acks.
  sim::Simulator sim2;
  WireEnv ce(sim2, 1), se(sim2, 2);
  TcpConfig dcfg = cfg();
  dcfg.delayed_ack = 40 * sim::kMillisecond;
  TcpStack client2(ce, kClientIp, cfg());
  TcpStack dserver(se, kServerIp, dcfg);
  ce.set_peer(&dserver);
  se.set_peer(&client2);
  dserver.listen(80);
  auto c2 = client2.connect(SockAddr{kServerIp, 80});
  sim2.run_until(200 * sim::kMillisecond);
  auto s2 = dserver.listener(80)->accept();
  ASSERT_TRUE(s2);
  std::vector<std::uint8_t> sink2;
  transfer_on(sim2, c2, s2, data, sink2);
  ASSERT_EQ(sink2, data);
  EXPECT_LT(dserver.stats().pure_acks_out, immediate_acks)
      << "acking every 2nd segment must emit fewer pure ACKs";
}

// ---------------------------------------------------------------------------
// RTT estimation
// ---------------------------------------------------------------------------

TEST_F(TcpPair, SrttTracksWireLatency) {
  TcpListener* l = nullptr;
  auto c = connect_and_accept(&l);
  auto s = l->accept();
  const auto data = pattern(200000, 2);
  std::vector<std::uint8_t> sink;
  transfer(*this, c, s, data, sink);
  // One-way latency is 10us -> RTT 20us (plus ack scheduling).
  EXPECT_GT(c->srtt(), 15 * sim::kMicrosecond);
  EXPECT_LT(c->srtt(), 2 * sim::kMillisecond);
}


// ---------------------------------------------------------------------------
// Connection images: checkpoint restore and live migration
// ---------------------------------------------------------------------------

/// A connection caught mid-flight on the server side: the first of two
/// request segments lost, so the second waits out of order with the
/// client's FIN beyond the hole, and a response larger than the initial
/// window, so part of it is unacked and the rest unsent.
struct MidFlight {
  TcpSocketPtr client_sock;
  std::vector<std::uint8_t> request = pattern(TcpPair::cfg().mss + 500, 1);
  std::vector<std::uint8_t> response =
      pattern(3 * TcpPair::cfg().initial_cwnd_segments * TcpPair::cfg().mss,
              2);
};

MidFlight catch_mid_flight(TcpPair& t) {
  MidFlight m;
  TcpListener* l = nullptr;
  m.client_sock = t.connect_and_accept(&l);
  TcpSocketPtr server_sock = l->accept();
  t.client_env.drop_next(1);
  EXPECT_EQ(m.client_sock->send(m.request), m.request.size());
  m.client_sock->close();
  t.run(sim::kMillisecond);  // well inside the client's RTO
  EXPECT_EQ(server_sock->send(m.response), m.response.size());
  return m;
}

/// Run until the server socket has read the whole request and its EOF and
/// the client the whole response, then check both byte for byte.
void finish_exchange(TcpPair& t, const MidFlight& m,
                     const TcpSocketPtr& server_sock) {
  std::vector<std::uint8_t> req;
  std::vector<std::uint8_t> resp;
  std::uint8_t buf[4096];
  const sim::SimTime end = t.sim.now() + 10 * sim::kSecond;
  while ((!server_sock->eof() || resp.size() < m.response.size()) &&
         t.sim.now() < end) {
    for (std::size_t n; (n = server_sock->recv(buf)) > 0;) {
      req.insert(req.end(), buf, buf + n);
    }
    for (std::size_t n; (n = m.client_sock->recv(buf)) > 0;) {
      resp.insert(resp.end(), buf, buf + n);
    }
    t.run(sim::kMillisecond);
  }
  EXPECT_TRUE(server_sock->eof());
  EXPECT_TRUE(req == m.request) << "request corrupted";
  EXPECT_TRUE(resp == m.response) << "response corrupted";
}

TEST_F(TcpPair, MigrationImageRebuildsEveryFieldAndTheStream) {
  const MidFlight m = catch_mid_flight(*this);
  const TcpCheckpoint cp = server.extract_for_migration();
  ASSERT_EQ(cp.conns.size(), 1u);
  const TcpConnSnapshot& img = cp.conns[0];
  ASSERT_EQ(img.ooo.size(), 1u);
  ASSERT_TRUE(img.fin_seen);
  ASSERT_TRUE(seq_lt(img.snd_una, img.snd_nxt)) << "no unacked bytes";
  ASSERT_GT(img.send_buf.size(), img.snd_nxt - img.snd_una)
      << "no unsent bytes";

  // Adopt into a second stack and extract again at once: the image must
  // come back field for field.
  WireEnv other_env(sim, 3);
  TcpStack other(other_env, kServerIp, cfg());
  other_env.set_peer(&client);
  ASSERT_EQ(other.adopt(cp).size(), 1u);
  const TcpCheckpoint again = other.extract_for_migration();
  ASSERT_EQ(again.conns.size(), 1u);
  const TcpConnSnapshot& a = again.conns[0];
  EXPECT_EQ(a.flow, img.flow);
  EXPECT_EQ(a.iss, img.iss);
  EXPECT_EQ(a.irs, img.irs);
  EXPECT_EQ(a.snd_una, img.snd_una);
  EXPECT_EQ(a.snd_nxt, img.snd_nxt);
  EXPECT_EQ(a.rcv_nxt, img.rcv_nxt);
  EXPECT_EQ(a.snd_wnd, img.snd_wnd);
  EXPECT_EQ(a.peer_mss, img.peer_mss);
  EXPECT_TRUE(a.send_buf == img.send_buf);
  EXPECT_TRUE(a.recv_buf == img.recv_buf);
  ASSERT_EQ(a.ooo.size(), img.ooo.size());
  EXPECT_EQ(a.ooo[0].seq, img.ooo[0].seq);
  EXPECT_TRUE(a.ooo[0].bytes == img.ooo[0].bytes);
  EXPECT_EQ(a.fin_seen, img.fin_seen);
  EXPECT_EQ(a.fin_rcv_seq, img.fin_rcv_seq);
  EXPECT_EQ(a.unaccepted, img.unaccepted);

  // Home again (the client still talks to `server`): the client's RTO
  // fills the hole and both directions complete byte-exactly.
  auto back = server.adopt(again);
  ASSERT_EQ(back.size(), 1u);
  finish_exchange(*this, m, back[0]);
}

TEST_F(TcpPair, CheckpointRestoreResumesAtSndUnaWithoutReassemblyState) {
  const MidFlight m = catch_mid_flight(*this);
  const TcpCheckpoint cp = server.snapshot();
  ASSERT_EQ(cp.conns.size(), 1u);
  const TcpConnSnapshot& img = cp.conns[0];
  ASSERT_TRUE(seq_lt(img.snd_una, img.snd_nxt)) << "no unacked bytes";

  server.destroy_all_state();
  const std::size_t sent_before = server_env.data_seqs().size();
  auto restored = server.restore(cp);
  ASSERT_EQ(restored.size(), 1u);
  // Everything unacked at the checkpoint counts as lost: output starts
  // over at snd_una.
  ASSERT_GT(server_env.data_seqs().size(), sent_before);
  EXPECT_EQ(server_env.data_seqs()[sent_before], img.snd_una);
  // The held segment and the FIN beyond the hole are not restored.
  const TcpCheckpoint now = server.extract_for_migration();
  ASSERT_EQ(now.conns.size(), 1u);
  EXPECT_TRUE(now.conns[0].ooo.empty());
  EXPECT_FALSE(now.conns[0].fin_seen);

  auto back = server.adopt(now);
  ASSERT_EQ(back.size(), 1u);
  finish_exchange(*this, m, back[0]);
}

}  // namespace
}  // namespace neat::net
