// Socket-library tests: the BSD-style SocketApi over the full NEaT path —
// subsocket replication, accept spreading, connect steering, data
// integrity, close semantics, and failure notification.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/testbed.hpp"
#include "ipc/doorbell.hpp"
#include "socklib/neat_socket.hpp"
#include "socklib/socklib.hpp"

namespace neat::harness {
namespace {

using socklib::CloseReason;
using socklib::ConnCallbacks;
using socklib::Fd;
using socklib::kBadFd;

/// A small scriptable application process for driving the API by hand.
class ScriptApp : public sim::Process {
 public:
  ScriptApp(sim::Simulator& sim, std::string name)
      : sim::Process(sim, std::move(name)) {}
  std::unique_ptr<socklib::SockLib> lib;
};

struct SockLibFixture : public ::testing::Test {
  SockLibFixture() {
    Testbed::Config cfg;
    cfg.seed = 99;
    tb = std::make_unique<Testbed>(cfg);

    // Server side: NEaT host with 2 replicas plus a scripted server app.
    NeatHost::Config hc;
    server_host = std::make_unique<NeatHost>(tb->sim, tb->server_machine,
                                             tb->server_nic, hc);
    server_host->os_process().pin(tb->server_machine.thread(0));
    server_host->syscall().pin(tb->server_machine.thread(1));
    server_host->driver().pin(tb->server_machine.thread(2));
    server_host->add_replica({&tb->server_machine.thread(3)});
    server_host->add_replica({&tb->server_machine.thread(4)});
    server_app = std::make_unique<ScriptApp>(tb->sim, "srvapp");
    server_app->pin(tb->server_machine.thread(5));
    server_app->lib =
        std::make_unique<socklib::SockLib>(*server_app, *server_host);

    // Client side: NEaT host with 1 replica plus a scripted client app.
    NeatHost::Config cc;
    client_host = std::make_unique<NeatHost>(tb->sim, tb->client_machine,
                                             tb->client_nic, cc);
    client_host->os_process().pin(tb->client_machine.thread(0));
    client_host->syscall().pin(tb->client_machine.thread(1));
    client_host->driver().pin(tb->client_machine.thread(2));
    client_host->add_replica({&tb->client_machine.thread(3)});
    client_app = std::make_unique<ScriptApp>(tb->sim, "cliapp");
    client_app->pin(tb->client_machine.thread(4));
    client_app->lib =
        std::make_unique<socklib::SockLib>(*client_app, *client_host);

    // Static neighbors.
    for (std::size_t i = 0; i < server_host->replica_count(); ++i) {
      server_host->replica(i).ip_layer_ref().arp().insert(
          kClientIp, net::MacAddr::local(2));
    }
    client_host->replica(0).ip_layer_ref().arp().insert(
        kServerIp, net::MacAddr::local(1));
  }

  ~SockLibFixture() override {
    // Apps (and their SockLibs) must unregister before the hosts die.
    server_app.reset();
    client_app.reset();
  }

  void run(sim::SimTime t = 100 * sim::kMillisecond) { tb->sim.run_for(t); }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<NeatHost> server_host;
  std::unique_ptr<NeatHost> client_host;
  std::unique_ptr<ScriptApp> server_app;
  std::unique_ptr<ScriptApp> client_app;
};

TEST_F(SockLibFixture, ListenReplicatesSubsocketsOntoEveryReplica) {
  server_app->lib->listen(8080, 64, [] {});
  run();
  // Hidden subsockets exist in every replica (paper §3.3).
  EXPECT_NE(server_host->replica(0).tcp().listener(8080), nullptr);
  EXPECT_NE(server_host->replica(1).tcp().listener(8080), nullptr);
}

TEST_F(SockLibFixture, ConnectAcceptEchoRoundtrip) {
  int acceptable = 0;
  const Fd lfd = server_app->lib->listen(8080, 64,
                                         [&] { ++acceptable; });
  run();

  bool connected = false;
  std::string received_by_client;
  ConnCallbacks ccb;
  ccb.on_connected = [&](Fd) { connected = true; };
  ccb.on_readable = [&](Fd fd) {
    std::uint8_t buf[256];
    std::size_t n;
    while ((n = client_app->lib->recv(fd, buf)) > 0) {
      received_by_client.append(reinterpret_cast<char*>(buf), n);
    }
  };
  const Fd cfd =
      client_app->lib->connect(net::SockAddr{kServerIp, 8080}, &ccb);
  ASSERT_NE(cfd, kBadFd);
  run();
  EXPECT_TRUE(connected);
  ASSERT_GT(acceptable, 0);

  // Server accepts and echoes everything it reads.
  Fd sfd = kBadFd;
  ConnCallbacks scb;
  scb.on_readable = [&](Fd fd) {
    std::uint8_t buf[256];
    std::size_t n;
    while ((n = server_app->lib->recv(fd, buf)) > 0) {
      server_app->lib->send(fd, {buf, n});
    }
  };
  sfd = server_app->lib->accept(lfd, &scb);
  ASSERT_NE(sfd, kBadFd);

  const std::string msg = "hello through the replicated stack";
  client_app->lib->send(
      cfd, {reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  run();
  EXPECT_EQ(received_by_client, msg);
}

TEST_F(SockLibFixture, ManyConnectionsSpreadOverReplicas) {
  const Fd lfd = server_app->lib->listen(8080, 256, [] {});
  run();
  std::vector<Fd> fds;
  for (int i = 0; i < 40; ++i) {
    fds.push_back(
        client_app->lib->connect(net::SockAddr{kServerIp, 8080}, nullptr));
  }
  run(300 * sim::kMillisecond);
  EXPECT_GT(server_host->replica(0).tcp().stats().conns_accepted, 5u);
  EXPECT_GT(server_host->replica(1).tcp().stats().conns_accepted, 5u);

  // Accept drains connections from every replica's subsocket.
  int accepted = 0;
  while (server_app->lib->accept(lfd, nullptr) != kBadFd) ++accepted;
  EXPECT_EQ(accepted, 40);
}

TEST_F(SockLibFixture, CloseDeliversEofAndNormalCloseToPeer) {
  const Fd lfd = server_app->lib->listen(8080, 64, [] {});
  run();
  CloseReason client_reason{};
  bool client_closed = false;
  ConnCallbacks ccb;
  ccb.on_closed = [&](Fd, CloseReason r) {
    client_closed = true;
    client_reason = r;
  };
  const Fd cfd =
      client_app->lib->connect(net::SockAddr{kServerIp, 8080}, &ccb);
  run();
  Fd sfd = server_app->lib->accept(lfd, nullptr);
  ASSERT_NE(sfd, kBadFd);

  server_app->lib->close(sfd);  // server closes first
  run();
  // Client sees EOF; a follow-up close completes the handshake.
  EXPECT_TRUE(client_app->lib->eof(cfd));
  client_app->lib->close(cfd);
  run(600 * sim::kMillisecond);  // covers the server's TIME_WAIT hold
  EXPECT_EQ(server_host->replica(0).tcp().connection_count() +
                server_host->replica(1).tcp().connection_count(),
            0u);
  (void)client_closed;
  (void)client_reason;
}

TEST_F(SockLibFixture, ReplicaCrashFailsOnlyItsSockets) {
  const Fd lfd = server_app->lib->listen(8080, 256, [] {});
  run();
  std::map<Fd, CloseReason> closed;
  ConnCallbacks ccb;
  ccb.on_closed = [&](Fd fd, CloseReason r) { closed[fd] = r; };
  std::vector<Fd> fds;
  for (int i = 0; i < 20; ++i) {
    fds.push_back(
        client_app->lib->connect(net::SockAddr{kServerIp, 8080}, &ccb));
  }
  run(200 * sim::kMillisecond);
  while (server_app->lib->accept(lfd, nullptr) != kBadFd) {
  }
  ASSERT_TRUE(closed.empty());

  // Crash server replica 0. The *client's* sockets living on server
  // replica 0 die via RST when they next talk; client replica sockets are
  // a different matter — here we crash a CLIENT replica to test the
  // library's kStackFailure path directly.
  client_host->inject_crash(client_host->replica(0), Component::kWhole);
  run(200 * sim::kMillisecond);
  EXPECT_EQ(closed.size(), fds.size());
  for (const auto& [fd, reason] : closed) {
    EXPECT_EQ(reason, CloseReason::kStackFailure);
  }
}

TEST_F(SockLibFixture, RssPortSelectionSteersRepliesToOwningReplica) {
  // With two client replicas, every connect must pick a source port whose
  // RSS hash returns to the replica owning the socket.
  client_host->add_replica({&tb->client_machine.thread(5)});
  server_app->lib->listen(8080, 256, [] {});
  run();
  for (int i = 0; i < 10; ++i) {
    client_app->lib->connect(net::SockAddr{kServerIp, 8080}, nullptr);
  }
  run(200 * sim::kMillisecond);
  std::size_t established = 0;
  for (std::size_t r = 0; r < client_host->replica_count(); ++r) {
    client_host->replica(r).tcp().for_each_connection(
        [&](net::TcpSocket& s) {
          if (s.state() == net::TcpState::kEstablished) {
            ++established;
            // The reply path must match the owning replica's queue.
            EXPECT_EQ(tb->client_nic.rss_queue(
                          s.flow().remote_ip, s.flow().remote_port,
                          s.flow().local_ip, s.flow().local_port),
                      client_host->replica(r).queue());
          }
        });
  }
  EXPECT_EQ(established, 10u);
}

TEST_F(SockLibFixture, ConnectToDeadPortReportsRefused) {
  CloseReason reason{};
  bool closed = false;
  ConnCallbacks ccb;
  ccb.on_closed = [&](Fd, CloseReason r) {
    closed = true;
    reason = r;
  };
  client_app->lib->connect(net::SockAddr{kServerIp, 9999}, &ccb);
  run(300 * sim::kMillisecond);
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, CloseReason::kRefused);
}

// ---------------------------------------------------------------------------
// Callback delivery: every socket points at the app's one callback table and
// passes its own fd to each call.
// ---------------------------------------------------------------------------

TEST_F(SockLibFixture, EachCallbackReceivesItsOwnFd) {
  const Fd lfd = server_app->lib->listen(8080, 64, [] {});
  run();

  // Every connection shares one table whose callbacks record the fd they
  // are called with: a socket passing a wrong fd shows up as a missing or
  // extra key below.
  std::map<Fd, int> connected, readable, writable;
  std::map<Fd, CloseReason> closed;
  ConnCallbacks ccb;
  ccb.on_connected = [&](Fd fd) { ++connected[fd]; };
  ccb.on_readable = [&](Fd fd) {
    ++readable[fd];
    std::uint8_t buf[256];
    while (client_app->lib->recv(fd, buf) > 0) {
    }
  };
  ccb.on_writable = [&](Fd fd) { ++writable[fd]; };
  ccb.on_closed = [&](Fd fd, CloseReason r) { closed[fd] = r; };
  std::set<Fd> cfds;
  for (int i = 0; i < 3; ++i) {
    cfds.insert(
        client_app->lib->connect(net::SockAddr{kServerIp, 8080}, &ccb));
  }
  ASSERT_EQ(cfds.size(), 3u);
  run();

  // The server greets every connection and drains whatever it receives.
  std::set<Fd> sfds;
  std::map<Fd, std::size_t> server_got;
  ConnCallbacks scb;
  scb.on_readable = [&](Fd fd) {
    std::uint8_t buf[4096];
    while (const std::size_t n = server_app->lib->recv(fd, buf)) {
      server_got[fd] += n;
    }
  };
  for (;;) {
    const Fd sfd = server_app->lib->accept(lfd, &scb);
    if (sfd == kBadFd) break;
    sfds.insert(sfd);
    const std::uint8_t hi[] = {'h', 'i'};
    server_app->lib->send(sfd, hi);
  }
  ASSERT_EQ(sfds.size(), 3u);

  // One client overfills its tx ring: a short write, then on_writable once
  // the stack has drained the ring.
  const Fd bulk = *cfds.begin();
  const std::vector<std::uint8_t> big(256 * 1024, 'x');
  const std::size_t took = client_app->lib->send(bulk, big);
  EXPECT_LT(took, big.size());
  run();

  const auto keys = [](const auto& m) {
    std::set<Fd> out;
    for (const auto& kv : m) out.insert(kv.first);
    return out;
  };
  EXPECT_EQ(keys(connected), cfds);
  for (const auto& [fd, n] : connected) EXPECT_EQ(n, 1) << "fd " << fd;
  EXPECT_EQ(keys(readable), cfds);
  EXPECT_EQ(keys(writable), std::set<Fd>{bulk});
  ASSERT_EQ(server_got.size(), 1u);
  EXPECT_TRUE(sfds.contains(server_got.begin()->first));
  EXPECT_EQ(server_got.begin()->second, took);
  EXPECT_TRUE(closed.empty());

  // A stack failure closes every client socket, each with its own fd.
  client_host->inject_crash(client_host->replica(0), Component::kWhole);
  run(200 * sim::kMillisecond);
  EXPECT_EQ(keys(closed), cfds);
}

TEST_F(SockLibFixture, AcceptedFdNeverSeesOnConnected) {
  int acceptable = 0;
  const Fd lfd = server_app->lib->listen(8080, 64, [&] { ++acceptable; });
  run();
  const Fd cfd =
      client_app->lib->connect(net::SockAddr{kServerIp, 8080}, nullptr);
  run();
  ASSERT_GT(acceptable, 0);

  // The server passes an on_connected too (one table for both
  // directions): an accepted connection was never "connected" by this
  // side, so it must not fire — while on_readable still does.
  int server_connected = 0;
  int server_readable = 0;
  ConnCallbacks scb;
  scb.on_connected = [&](Fd) { ++server_connected; };
  scb.on_readable = [&](Fd) { ++server_readable; };
  const Fd sfd = server_app->lib->accept(lfd, &scb);
  ASSERT_NE(sfd, kBadFd);
  const std::uint8_t ping[] = {'p'};
  client_app->lib->send(cfd, ping);
  run();
  EXPECT_EQ(server_connected, 0);
  EXPECT_GT(server_readable, 0);
}

TEST_F(SockLibFixture, CloseInsideCallbackIsNotUndone) {
  const Fd lfd = server_app->lib->listen(8080, 64, [] {});
  run();
  const Fd cfd =
      client_app->lib->connect(net::SockAddr{kServerIp, 8080}, nullptr);
  run();

  // The server streams to a client that does not read until every buffer
  // on the path is full, then closes its fd from inside on_readable. The
  // socket outlives the close, draining its tx ring like a kernel drains a
  // closed socket, so later events still reach it: the table it called
  // must stay cleared when the callback returns.
  const std::vector<std::uint8_t> chunk(4096, 'r');
  int server_readable = 0;
  int server_closed = 0;
  ConnCallbacks scb;
  scb.on_writable = [&](Fd fd) {
    while (server_app->lib->send(fd, chunk) == chunk.size()) {
    }
  };
  scb.on_readable = [&](Fd fd) {
    ++server_readable;
    server_app->lib->close(fd);
  };
  scb.on_closed = [&](Fd, CloseReason) { ++server_closed; };
  const Fd sfd = server_app->lib->accept(lfd, &scb);
  ASSERT_NE(sfd, kBadFd);
  while (server_app->lib->send(sfd, chunk) == chunk.size()) {
  }
  run();

  const std::uint8_t a[] = {'a'};
  client_app->lib->send(cfd, a);
  run();
  EXPECT_EQ(server_readable, 1);
  EXPECT_EQ(server_app->lib->open_sockets(), 0u);

  // The closed socket still receives data: no callback may fire for it.
  client_app->lib->send(cfd, a);
  run();
  EXPECT_EQ(server_readable, 1);

  // Kill the client's stack: the server's TCP socket then dies (RST or
  // timeout) with bytes still queued, which must release the draining
  // socket (ASan's leak check sees it otherwise) without any callback.
  client_host->inject_crash(client_host->replica(0), Component::kWhole);
  run(120 * sim::kSecond);
  client_app->lib->close(cfd);
  EXPECT_EQ(server_host->replica(0).tcp().connection_count() +
                server_host->replica(1).tcp().connection_count(),
            0u);
  EXPECT_EQ(server_readable, 1);
  EXPECT_EQ(server_closed, 0);
}

/// An object that owns a doorbell, as NeatSocket does, and supplies the
/// consumer, cost and handler when it rings.
struct BellOwner : std::enable_shared_from_this<BellOwner> {
  BellOwner(sim::Process& consumer, int& handled)
      : consumer(consumer), handled(handled) {}
  void ring() { bell.ring(consumer, 10, *this, [this] { ++handled; }); }
  sim::Process& consumer;
  int& handled;
  ipc::Doorbell bell;
};

TEST_F(SockLibFixture, DoorbellRungAfterOwnerDiedIsNoop) {
  int handled = 0;
  auto owner = std::make_shared<BellOwner>(*server_app, handled);
  owner->ring();
  run();
  EXPECT_EQ(handled, 1);  // control: a live owner's ring is delivered

  owner->ring();
  EXPECT_TRUE(owner->bell.pending());
  owner.reset();  // the owner (and its doorbell) die with the ring in flight
  run();
  EXPECT_EQ(handled, 1);
}

TEST_F(SockLibFixture, StackDoorbellInFlightWhenItsSocketDiesIsNoop) {
  // A NeatSocket's write rings the replica's doorbell on the socket's
  // behalf; the socket dies before the replica takes the ring. The ring
  // must do nothing: the socket's drain (pump) would read freed memory
  // (ASan, in scripts/check.sh, reports it) and push its bytes into the
  // TCB.
  server_app->lib->listen(8080, 64, [] {});
  run();
  StackReplica& rep = client_host->replica(0);
  net::TcpSocketPtr tcb = rep.tcp().connect(net::SockAddr{kServerIp, 8080});
  auto sock = std::make_shared<socklib::NeatSocket>(
      *client_app, rep, client_host->costs(), tcb, /*fd=*/42,
      /*notify_connect=*/false);
  run();
  ASSERT_EQ(tcb->state(), net::TcpState::kEstablished);
  const std::vector<std::uint8_t> bytes(100, 'x');

  // Control: a live socket's ring drains its bytes into the TCB.
  std::uint64_t out = rep.tcp().stats().bytes_out;
  ASSERT_EQ(sock->write(bytes), bytes.size());
  run();
  EXPECT_EQ(rep.tcp().stats().bytes_out, out + bytes.size());

  out = rep.tcp().stats().bytes_out;
  ASSERT_EQ(sock->write(bytes), bytes.size());
  const std::weak_ptr<socklib::NeatSocket> watch = sock;
  sock.reset();  // dies with the ring in flight
  ASSERT_TRUE(watch.expired());
  run();
  EXPECT_EQ(rep.tcp().stats().bytes_out, out);
  EXPECT_EQ(tcb->owner(), nullptr);
}

TEST_F(SockLibFixture, TableSwappedOrClearedInsideACallbackStopsTheRest) {
  // The delivery path of both socket libraries, driven directly: three
  // bits pending, and the first callback re-points the events at another
  // table. The rest of the bits run from the new table, none from the old.
  struct EventsOwner : std::enable_shared_from_this<EventsOwner> {
    explicit EventsOwner(sim::Process& app)
        : events(app, /*fd=*/7, /*notify_connect=*/true) {}
    void raise(std::uint8_t bits) {
      events.raise(bits, 10, *this, [this] {
        if (events.run_pending()) events.deliver_close();
      });
    }
    socklib::ConnEvents events;
  };
  auto owner = std::make_shared<EventsOwner>(*server_app);
  std::vector<std::string> calls;
  const auto record = [&calls](const char* what) {
    return [&calls, what](Fd fd) {
      calls.push_back(what + std::string(" ") + std::to_string(fd));
    };
  };

  ConnCallbacks second;
  second.on_readable = record("second.readable");
  second.on_writable = record("second.writable");
  ConnCallbacks first;
  first.on_connected = [&](Fd fd) {
    calls.push_back("first.connected " + std::to_string(fd));
    owner->events.set_callbacks(&second);
  };
  first.on_readable = record("first.readable");
  first.on_writable = record("first.writable");
  owner->events.set_callbacks(&first);
  owner->raise(socklib::ConnEvents::kConnected |
               socklib::ConnEvents::kReadable |
               socklib::ConnEvents::kWritable);
  run();
  EXPECT_EQ(calls, (std::vector<std::string>{
                       "first.connected 7", "second.readable 7",
                       "second.writable 7"}));

  // Cleared from inside a callback (what SockLib::close() does): nothing
  // else runs, not even the close that is pending with it.
  calls.clear();
  int closes = 0;
  ConnCallbacks clearing;
  clearing.on_readable = [&](Fd fd) {
    calls.push_back("clearing.readable " + std::to_string(fd));
    owner->events.set_callbacks(nullptr);
  };
  clearing.on_writable = record("clearing.writable");
  clearing.on_closed = [&](Fd, CloseReason) { ++closes; };
  owner->events.set_callbacks(&clearing);
  owner->raise(socklib::ConnEvents::kReadable |
               socklib::ConnEvents::kWritable);
  owner->events.set_close_reason(CloseReason::kReset);
  owner->raise(socklib::ConnEvents::kClosed);
  run();
  EXPECT_EQ(calls, std::vector<std::string>{"clearing.readable 7"});
  EXPECT_EQ(closes, 0);
  EXPECT_TRUE(owner->events.closed_delivered());
}

TEST_F(SockLibFixture, DrainingSocketDroppedInsideItsOwnTcpEventIsSafe) {
  // A socket the app closed with unsent bytes lives on its own keepalive
  // while it drains. If the peer then resets in the same receive burst as
  // an ACK that frees send space, the deferred writable event runs after
  // the TCB has closed, inside the reset's close path: the socket's pump
  // drops the keepalive (its last reference) from within that event. The
  // socket must survive to the end of the event and detach from its TCB
  // when it dies; ASan (check.sh) reports any access after it is freed.
  const Fd lfd = server_app->lib->listen(8080, 64, [] {});
  run();
  client_app->lib->connect(net::SockAddr{kServerIp, 8080}, nullptr);
  run();

  // The client never reads: the server's buffers fill, then it closes.
  const std::vector<std::uint8_t> chunk(4096, 'z');
  ConnCallbacks scb;
  scb.on_writable = [&](Fd fd) {
    while (server_app->lib->send(fd, chunk) == chunk.size()) {
    }
  };
  const Fd sfd = server_app->lib->accept(lfd, &scb);
  ASSERT_NE(sfd, kBadFd);
  while (server_app->lib->send(sfd, chunk) == chunk.size()) {
  }
  run(200 * sim::kMillisecond);
  server_app->lib->close(sfd);
  // Long enough for a zero-window probe: then bytes are in flight.
  run(300 * sim::kMillisecond);

  StackReplica* rep = nullptr;
  net::TcpSocketPtr tcb;
  for (std::size_t r = 0; r < server_host->replica_count(); ++r) {
    server_host->replica(r).tcp().for_each_connection([&](net::TcpSocket& t) {
      rep = &server_host->replica(r);
      tcb = t.shared_from_this();
    });
  }
  ASSERT_TRUE(tcb);
  ASSERT_EQ(tcb->state(), net::TcpState::kEstablished);
  ASSERT_GT(tcb->inflight(), 0u);
  ASSERT_NE(tcb->owner(), nullptr);  // the draining socket is alive
  net::TcpConnSnapshot seq;
  for (const auto& c : rep->tcp().snapshot().conns) {
    if (c.flow == tcb->flow()) seq = c;
  }
  ASSERT_EQ(seq.flow, tcb->flow());

  // One burst from the client: an ACK of everything in flight opening
  // the window, then a RST.
  const net::FlowKey f = tcb->flow();
  const auto segment = [&](bool rst) {
    net::TcpHeader h;
    h.src_port = f.remote_port;
    h.dst_port = f.local_port;
    h.seq = seq.rcv_nxt;
    h.ack = seq.snd_nxt;
    h.ack_flag = true;
    h.rst = rst;
    h.window = 65535;
    auto pkt = net::Packet::make(0);
    h.encode(*pkt, f.remote_ip, f.local_ip);
    return net::TcpStack::SegmentArrival{f.remote_ip, f.local_ip,
                                         std::move(pkt)};
  };
  rep->tcp_process().post(0, [rep, ack = segment(false),
                              rst = segment(true)]() mutable {
    std::vector<net::TcpStack::SegmentArrival> burst;
    burst.push_back(std::move(ack));
    burst.push_back(std::move(rst));
    rep->tcp().rx_batch(std::move(burst));
  });
  run();
  EXPECT_EQ(tcb->state(), net::TcpState::kClosed);
  EXPECT_EQ(tcb->owner(), nullptr);  // the socket died and detached
  EXPECT_EQ(rep->tcp().connection_count(), 0u);
}

// Every connection end on a NEaT host carries one NeatSocket: DESIGN.md
// §5n's byte budget puts it at 176 B (its two doorbells are one flag each).
// A new field, or padding from a reordered or embedded member, is
// per-connection memory at fleet scale.
TEST(NeatSocketFootprint, StaysWithinTheByteBudget) {
  EXPECT_LE(sizeof(socklib::NeatSocket), 176u);
}

}  // namespace
}  // namespace neat::harness
