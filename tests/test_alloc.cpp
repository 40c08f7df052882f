// Allocation audit of the steady-state keep-alive request path. In the
// paper a request on an established connection costs a ring write and a
// doorbell; here it must not cost heap traffic either (DESIGN.md §5o).
//
// This binary replaces the global operator new to count every allocation
// the process makes, and the heap bytes (malloc_usable_size) of the blocks
// still live. The measured window opens once every connection is
// established and every buffer and table has reached its working size,
// and the test checks that no connection was set up inside it. The
// per-connection heap test below holds what one NEaT connection pair
// costs to the byte budget of DESIGN.md §5n.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>

#include "harness/testbed.hpp"
#include "neat/host.hpp"
#include "socklib/socklib.hpp"

namespace {
// The simulator is single-threaded.
std::uint64_t g_allocations = 0;
std::int64_t g_live_bytes = 0;

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  ++g_allocations;
  g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}
void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

// The default array and nothrow forms forward to these two. Out of line,
// so that no caller sees which allocator pairs with which deallocator.
[[gnu::noinline]] void* operator new(std::size_t n) {
  return counted(std::malloc(n == 0 ? 1 : n));
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) / a * a));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  release(p);
}

namespace neat::harness {
namespace {

class KeepAliveAllocations : public ::testing::TestWithParam<bool> {};

TEST_P(KeepAliveAllocations, WindowWithoutSetupAllocatesNothingPerRequest) {
  Testbed::Config cfg;
  cfg.seed = 21;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.multi_component = GetParam();
  ServerRig server = build_neat_server(tb, so);
  // No connection closes for the whole run: the server's keep-alive limit
  // and the sessions' request counts are out of reach.
  for (auto& w : server.webs) w->max_requests_per_conn = 1 << 30;
  ClientOptions co;
  co.stack_replicas = 2;
  co.generators = 2;
  co.concurrency_per_gen = 8;
  co.requests_per_conn = 1 << 30;
  ClientRig client = build_client(tb, co, 1);
  prepopulate_arp(server, client);

  tb.sim.run_for(50 * sim::kMillisecond);  // warm-up
  const std::uint64_t accepted0 = server.webs[0]->app_stats().conns_accepted;
  const std::uint64_t served0 = server.total_requests();
  const std::uint64_t allocations0 = g_allocations;
  tb.sim.run_for(200 * sim::kMillisecond);
  const std::uint64_t allocations = g_allocations - allocations0;
  const std::uint64_t served = server.total_requests() - served0;

  ASSERT_EQ(accepted0, 16u);
  ASSERT_EQ(server.webs[0]->app_stats().conns_accepted, accepted0)
      << "the window must hold no connection setup";
  ASSERT_GT(served, 5000u);
  EXPECT_LE(static_cast<double>(allocations) / static_cast<double>(served),
            0.05)
      << allocations << " allocations for " << served << " requests";
}

INSTANTIATE_TEST_SUITE_P(Compositions, KeepAliveAllocations, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "MultiComponent"
                                          : "SingleComponent";
                         });

/// A scripted application process with its socket library.
struct PairApp : sim::Process {
  PairApp(sim::Simulator& sim, std::string name)
      : sim::Process(sim, std::move(name)) {}
  std::unique_ptr<socklib::SockLib> lib;
};

/// Two single-replica NEaT hosts: a server that echoes what it reads, and
/// a client that opens connections and, with `rounds` > 0, sends a 16-B
/// message and waits for its echo that many times.
struct ConnectionPairs {
  explicit ConnectionPairs(int rounds) : rounds(rounds) {
    Testbed::Config cfg;
    cfg.seed = 33;
    tb = std::make_unique<Testbed>(cfg);
    server = make_host(tb->server_machine, tb->server_nic);
    client = make_host(tb->client_machine, tb->client_nic);
    server_app = make_app(*server, tb->server_machine, "srv");
    client_app = make_app(*client, tb->client_machine, "cli");
    server->replica(0).ip_layer_ref().arp().insert(kClientIp,
                                                   net::MacAddr::local(2));
    client->replica(0).ip_layer_ref().arp().insert(kServerIp,
                                                   net::MacAddr::local(1));

    echo.on_readable = [this](socklib::Fd fd) {
      std::uint8_t buf[64];
      while (const std::size_t n = server_app->lib->recv(fd, buf)) {
        server_app->lib->send(fd, std::span{buf, n});
      }
    };
    pinger.on_connected = [this](socklib::Fd fd) { ping(fd); };
    pinger.on_readable = [this](socklib::Fd fd) {
      std::uint8_t buf[64];
      while (client_app->lib->recv(fd, buf) > 0) {
        ++echoes;
        if (echoes % this->rounds != 0) ping(fd);
      }
    };
    lfd = server_app->lib->listen(80, 64, [this] {
      while (server_app->lib->accept(lfd, &echo) != socklib::kBadFd) {
      }
    });
    tb->sim.run_for(10 * sim::kMillisecond);
  }

  ~ConnectionPairs() {
    // The apps (and their libraries) unregister before the hosts die.
    server_app.reset();
    client_app.reset();
  }

  std::unique_ptr<NeatHost> make_host(sim::Machine& m, nic::Nic& nic) {
    auto h = std::make_unique<NeatHost>(tb->sim, m, nic, NeatHost::Config{});
    h->os_process().pin(m.thread(0));
    h->syscall().pin(m.thread(1));
    h->driver().pin(m.thread(2));
    h->add_replica({&m.thread(3)});
    return h;
  }
  std::unique_ptr<PairApp> make_app(NeatHost& host, sim::Machine& m,
                                    const char* name) {
    auto app = std::make_unique<PairApp>(tb->sim, name);
    app->pin(m.thread(4));
    app->lib = std::make_unique<socklib::SockLib>(*app, host);
    return app;
  }

  void ping(socklib::Fd fd) {
    if (rounds == 0) return;
    const std::uint8_t msg[16] = {'p', 'i', 'n', 'g'};
    client_app->lib->send(fd, msg);
  }

  /// Open one more pair and let it settle: established, its messages
  /// exchanged, every delayed ACK sent.
  void open_pair() {
    ASSERT_NE(client_app->lib->connect(net::SockAddr{kServerIp, 80}, &pinger),
              socklib::kBadFd);
    tb->sim.run_for(200 * sim::kMillisecond);
  }

  /// Heap bytes one more pair adds: the smallest of `n` single-pair
  /// increments, so a shared table that doubles inside one increment (the
  /// demux tables, the event slots) is not billed to a connection.
  std::int64_t bytes_per_pair(int n) {
    for (int i = 0; i < 4; ++i) open_pair();  // tables past their first size
    std::int64_t least = INT64_MAX;
    for (int i = 0; i < n; ++i) {
      const std::int64_t before = g_live_bytes;
      open_pair();
      least = std::min(least, g_live_bytes - before);
    }
    return least;
  }

  int rounds;
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<NeatHost> server;
  std::unique_ptr<NeatHost> client;
  std::unique_ptr<PairApp> server_app;
  std::unique_ptr<PairApp> client_app;
  socklib::ConnCallbacks echo;
  socklib::ConnCallbacks pinger;
  socklib::Fd lfd{socklib::kBadFd};
  std::uint64_t echoes{0};
};

// DESIGN.md §5n: an idle established connection end is its TCB (312 B,
// one make_shared block) plus its NeatSocket (144 B, one make_shared
// block), and no ring bytes. Both ends: under 1 KiB per pair.
TEST(ConnectionHeapBytes, IdleEstablishedPairStaysWithinTheBudget) {
  ConnectionPairs pairs(/*rounds=*/0);
  const std::int64_t bytes = pairs.bytes_per_pair(8);
  EXPECT_EQ(pairs.server->replica(0).tcp().connection_count(), 12u);
  EXPECT_GT(bytes, 0);
  EXPECT_LE(bytes, 1024) << bytes << " heap bytes per idle pair";
}

// Exchanging 16-B messages allocates the six rings a pair writes (each
// end's socket tx ring, TCB send ring and TCB receive ring) at the ring
// floor, 64 B each, not at a fixed 2 KiB first allocation.
TEST(ConnectionHeapBytes, PairExchangingSixteenByteMessagesStaysWithinTheBudget) {
  ConnectionPairs pairs(/*rounds=*/4);
  const std::int64_t bytes = pairs.bytes_per_pair(8);
  EXPECT_EQ(pairs.server->replica(0).tcp().connection_count(), 12u);
  EXPECT_EQ(pairs.echoes, 12u * 4);
  EXPECT_LE(bytes, 1536) << bytes << " heap bytes per messaging pair";
}

}  // namespace
}  // namespace neat::harness
