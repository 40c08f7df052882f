// Quickstart: the smallest complete NEaT system.
//
// Builds the two-machine testbed, brings up a NEaT host with two stack
// replicas, runs an echo service over the BSD-style socket API, and prints
// what happened — including which replica each connection landed on
// (the partitioning in action).
//
//   $ ./examples/quickstart
#include <cstdio>
#include <map>
#include <string>

#include "harness/testbed.hpp"
#include "socklib/socklib.hpp"

using namespace neat;
using namespace neat::harness;
using socklib::ConnCallbacks;
using socklib::Fd;
using socklib::kBadFd;

namespace {

/// Applications are ordinary event-driven processes holding a SockLib and
/// one callback table that all their connections share (declared first, so
/// it outlives the sockets).
class App : public sim::Process {
 public:
  App(sim::Simulator& sim, std::string name)
      : sim::Process(sim, std::move(name)) {}
  ConnCallbacks cb;
  std::unique_ptr<socklib::SockLib> lib;
};

}  // namespace

int main() {
  // --- 1. The testbed: two machines, two NICs, one 10G cable. -------------
  Testbed tb(Testbed::Config{});

  // --- 2. The server host: driver + SYSCALL server + 2 replicas. ----------
  NeatHost::Config cfg;  // single-component replicas by default
  NeatHost server(tb.sim, tb.server_machine, tb.server_nic, cfg);
  server.os_process().pin(tb.server_machine.thread(0));
  server.syscall().pin(tb.server_machine.thread(1));
  server.driver().pin(tb.server_machine.thread(2));
  server.add_replica({&tb.server_machine.thread(3)});
  server.add_replica({&tb.server_machine.thread(4)});

  App server_app(tb.sim, "echo-server");
  server_app.pin(tb.server_machine.thread(5));
  server_app.lib = std::make_unique<socklib::SockLib>(server_app, server);

  // --- 3. The client host (the other machine). -----------------------------
  NeatHost client(tb.sim, tb.client_machine, tb.client_nic, cfg);
  client.os_process().pin(tb.client_machine.thread(0));
  client.syscall().pin(tb.client_machine.thread(1));
  client.driver().pin(tb.client_machine.thread(2));
  client.add_replica({&tb.client_machine.thread(3)});

  App client_app(tb.sim, "client");
  client_app.pin(tb.client_machine.thread(4));
  client_app.lib = std::make_unique<socklib::SockLib>(client_app, client);

  // --- 4. An echo server: listen, accept, echo back whatever arrives. -----
  Fd listen_fd = kBadFd;
  // Every call names its fd, so one table serves every connection.
  server_app.cb.on_readable = [&](Fd fd) {
    std::uint8_t buf[512];
    std::size_t n;
    while ((n = server_app.lib->recv(fd, buf)) > 0) {
      server_app.lib->send(fd, {buf, n});
    }
    if (server_app.lib->eof(fd)) server_app.lib->close(fd);
  };
  listen_fd = server_app.lib->listen(7777, 64, [&] {
    while (server_app.lib->accept(listen_fd, &server_app.cb) != kBadFd) {
    }
  });

  // --- 5. Four clients, each sending one message. ---------------------------
  // Per-connection state lives in the app, keyed by fd.
  struct Echo {
    int id;
    std::string msg;
    std::string reply;
  };
  std::map<Fd, Echo> echoes;
  int done = 0;
  client_app.cb.on_connected = [&](Fd fd) {
    const Echo& e = echoes.at(fd);
    std::printf("[%6.2f ms] client %d connected\n",
                sim::to_millis(tb.sim.now()), e.id);
    client_app.lib->send(
        fd, {reinterpret_cast<const std::uint8_t*>(e.msg.data()),
             e.msg.size()});
  };
  client_app.cb.on_readable = [&](Fd fd) {
    Echo& e = echoes.at(fd);
    std::uint8_t buf[512];
    std::size_t n;
    while ((n = client_app.lib->recv(fd, buf)) > 0) {
      e.reply.append(reinterpret_cast<char*>(buf), n);
    }
    if (e.reply == e.msg) {
      std::printf("[%6.2f ms] client %d got its echo back: \"%s\"\n",
                  sim::to_millis(tb.sim.now()), e.id, e.reply.c_str());
      client_app.lib->close(fd);
      ++done;
    }
  };
  for (int i = 0; i < 4; ++i) {
    const Fd fd = client_app.lib->connect(net::SockAddr{kServerIp, 7777},
                                          &client_app.cb);
    echoes[fd] = Echo{i, "hello #" + std::to_string(i), {}};
  }

  // --- 6. Run the world. ----------------------------------------------------
  tb.sim.run_for(200 * sim::kMillisecond);

  std::printf("\n%d/4 echoes completed\n", done);
  std::printf("connection placement across replicas "
              "(partitioning + load balancing):\n");
  for (std::size_t r = 0; r < server.replica_count(); ++r) {
    std::printf("  replica %zu accepted %llu connections\n", r,
                (unsigned long long)
                    server.replica(r).tcp().stats().conns_accepted);
  }
  return done == 4 ? 0 : 1;
}
