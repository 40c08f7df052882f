#include "socklib/socklib.hpp"

#include <algorithm>

namespace neat::socklib {

SockLib::SockLib(sim::Process& app, NeatHost& host)
    : app_(app), host_(host), rng_(app.sim().rng().split(0x50c7)) {
  host_.add_failure_listener(this);
}

SockLib::~SockLib() { host_.remove_failure_listener(this); }

Fd SockLib::listen(std::uint16_t port, std::size_t backlog,
                   std::function<void()> on_acceptable) {
  const Fd fd = next_fd_++;
  ListenEntry entry;
  entry.port = port;
  entry.accept_bell = std::make_shared<ipc::Doorbell>(
      app_, host_.costs().app_notify, std::move(on_acceptable));
  auto bell = entry.accept_bell;
  listeners_.try_emplace(fd, std::move(entry));

  // listen() is a (rare) control-plane call: route via the SYSCALL server,
  // which records it durably and replicates the listening socket onto
  // every replica (§3.3 — listening sockets are the only replicated kind).
  NeatHost* host = &host_;
  const StackCosts costs = host_.costs();
  host_.syscall().submit([host, port, backlog, bell, costs] {
    ListenRecord rec;
    rec.port = port;
    rec.backlog = backlog;
    rec.wire = [bell](StackReplica&, net::TcpListener& l) {
      l.set_accept_ready([bell] { bell->ring(); });
    };
    for (auto* r : host->serving_replicas()) {
      StackReplica* rep = r;
      rep->tcp_process().post(costs.replica_control, [rep, rec] {
        net::TcpListener* l = rep->tcp().listen(rec.port, rec.backlog);
        if (l == nullptr) l = rep->tcp().listener(rec.port);
        if (l != nullptr) rec.wire(*rep, *l);
      });
    }
    host->record_listen(std::move(rec));
  });
  return fd;
}

Fd SockLib::accept(Fd listen_fd, ConnCallbacks cb) {
  auto it = listeners_.find(listen_fd);
  if (it == listeners_.end()) return kBadFd;
  ListenEntry& entry = it->second;

  // Scan subsockets round-robin, starting after the last successful
  // replica, so accept load spreads even when all queues are hot.
  auto replicas = host_.serving_replicas();
  if (replicas.empty()) return kBadFd;
  const std::size_t n = replicas.size();
  for (std::size_t i = 0; i < n; ++i) {
    StackReplica& rep = *replicas[(entry.rr_next + i) % n];
    net::TcpListener* l = rep.tcp().listener(entry.port);
    if (l == nullptr) continue;
    if (net::TcpSocketPtr tcp = l->accept()) {
      entry.rr_next = (entry.rr_next + i + 1) % n;
      const Fd fd = next_fd_++;
      host_.note_first_service(rep);
      wire_connection(fd, rep, std::move(tcp), std::move(cb),
                      /*notify_connect=*/false);
      return fd;
    }
  }
  return kBadFd;
}

Fd SockLib::connect(net::SockAddr remote, ConnCallbacks cb) {
  const Fd fd = next_fd_++;
  NeatHost* host = &host_;
  sim::Process* app = &app_;
  SockLib* self = this;
  const StackCosts costs = host_.costs();
  const auto steering = host_.config().steering;
  const std::uint64_t seed = rng_();

  host_.syscall().submit([host, app, self, fd, remote, cb = std::move(cb),
                          costs, steering, seed]() mutable {
    StackReplica* rep = host->pick_replica();
    if (rep == nullptr) {
      app->post(costs.app_notify, [cb = std::move(cb), fd]() mutable {
        if (cb.on_closed) cb.on_closed(fd, CloseReason::kStackFailure);
      });
      return;
    }
    rep->tcp_process().post(costs.replica_control, [host, self, fd, remote,
                                                    cb = std::move(cb), costs,
                                                    steering, seed,
                                                    rep]() mutable {
      // Pick the local port. Under RSS steering the library chooses a port
      // whose Toeplitz hash lands on this replica's queue, so the SYN|ACK
      // comes straight back to us with zero NIC reconfiguration. Ports
      // still occupied (e.g. a previous connection in TIME_WAIT) make
      // connect() fail — retry with another candidate.
      sim::Rng prng(seed);
      const bool defer =
          steering == NeatHost::Config::Steering::kExactFilter;
      net::TcpSocketPtr tcp;
      if (steering == NeatHost::Config::Steering::kRssPortSelection) {
        for (int tries = 0; tries < 8192 && !tcp; ++tries) {
          const auto cand =
              static_cast<std::uint16_t>(49152 + prng.below(16384));
          if (host->nic().rss_queue(remote.ip, remote.port, host->ip(),
                                    cand) != rep->queue()) {
            continue;
          }
          tcp = rep->tcp().connect(remote, cand, defer);
        }
      } else {
        tcp = rep->tcp().connect(remote, 0, defer);
      }
      if (!tcp) {
        self->app_.post(costs.app_notify, [cb = std::move(cb), fd]() mutable {
          if (cb.on_closed) cb.on_closed(fd, CloseReason::kRefused);
        });
        return;
      }
      self->wire_connection(fd, *rep, tcp, std::move(cb),
                            /*notify_connect=*/true);
      if (defer) {
        // Install the exact-match filter first so the reply cannot race to
        // the wrong replica, then fire the SYN from the replica's context.
        const net::FlowKey key = tcp->flow();
        host->driver().control([host, key, rep, tcp, costs] {
          host->nic().add_flow_filter(key, rep->queue());
          rep->tcp_process().post(costs.replica_control, [rep, tcp] {
            rep->tcp().begin_handshake(*tcp);
          });
        });
      }
    });
  });
  return fd;
}

void SockLib::wire_connection(Fd fd, StackReplica& replica,
                              net::TcpSocketPtr tcp, ConnCallbacks cb,
                              bool notify_connect) {
  auto sock =
      std::make_shared<NeatSocket>(app_, replica, host_.costs(), std::move(tcp));
  sock->init();
  // Each callback moves into its own adapter — the ConnCallbacks fields are
  // move-only, and splitting them means an unused field costs nothing.
  NeatSocket::Events ev;
  if (notify_connect && cb.on_connected) {
    ev.on_connected = [f = std::move(cb.on_connected), fd]() mutable {
      f(fd);
    };
  }
  if (cb.on_readable) {
    ev.on_readable = [f = std::move(cb.on_readable), fd]() mutable { f(fd); };
  }
  if (cb.on_writable) {
    ev.on_writable = [f = std::move(cb.on_writable), fd]() mutable { f(fd); };
  }
  if (cb.on_closed) {
    ev.on_closed = [f = std::move(cb.on_closed), fd](CloseReason r) mutable {
      f(fd, r);
    };
  }
  conns_.try_emplace(fd, sock);
  sock->set_events(std::move(ev));
}

std::size_t SockLib::send(Fd fd, std::span<const std::uint8_t> data) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? 0 : it->second->write(data);
}

std::size_t SockLib::recv(Fd fd, std::span<std::uint8_t> dst) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? 0 : it->second->read(dst);
}

std::size_t SockLib::readable(Fd fd) const {
  auto it = conns_.find(fd);
  return it == conns_.end() ? 0 : it->second->readable();
}

bool SockLib::eof(Fd fd) const {
  auto it = conns_.find(fd);
  return it == conns_.end() ? true : it->second->eof();
}

void SockLib::close(Fd fd) {
  // Copy each entry out and erase it before acting on it: nothing may hold
  // a slot reference across a call that could re-enter the library.
  if (auto it = conns_.find(fd); it != conns_.end()) {
    const NeatSocketPtr sock = it->second;
    conns_.erase(it);
    sock->set_events({});  // no callbacks after close()
    sock->close();
    return;
  }
  if (auto it = udp_socks_.find(fd); it != udp_socks_.end()) {
    const std::uint16_t port = it->second.port;
    udp_socks_.erase(it);
    host_.remove_udp_bind(port);
    return;
  }
  if (auto it = listeners_.find(fd); it != listeners_.end()) {
    const std::uint16_t port = it->second.port;
    listeners_.erase(it);
    host_.remove_listen(port);
  }
}

Fd SockLib::udp_open(std::uint16_t port, DatagramRx rx) {
  const Fd fd = next_fd_++;
  udp_socks_.try_emplace(fd, UdpEntry{port});

  // Like listen(), a bind is a rare control-plane call: route it through
  // the SYSCALL server, which records it durably and installs the binding
  // on every serving replica (any replica can process any datagram).
  sim::Process* app = &app_;
  const StackCosts costs = host_.costs();
  auto rx_shared = std::make_shared<DatagramRx>(std::move(rx));
  UdpBindRecord rec;
  rec.port = port;
  rec.wire = [app, costs, port, rx_shared](StackReplica&,
                                           net::UdpMux& mux) {
    mux.bind(port, [app, costs, rx_shared](net::UdpMux::Datagram d) {
      const net::SockAddr from = d.from;
      // Hoist the cost: the lambda's init-capture moves d.payload, and
      // argument evaluation order is unspecified.
      const sim::Cycles cost =
          costs.app_notify + costs.bytes_cost(d.payload->size());
      app->post(cost, [rx_shared, from, payload = std::move(d.payload)] {
        (*rx_shared)(from, payload->bytes());
      });
    });
  };
  NeatHost* host = &host_;
  host_.syscall().submit([host, rec] { host->record_udp_bind(rec); });
  return fd;
}

std::size_t SockLib::udp_send(Fd fd, net::SockAddr to,
                              std::span<const std::uint8_t> payload) {
  auto it = udp_socks_.find(fd);
  if (it == udp_socks_.end()) return 0;
  // UDP is stateless: any active replica can carry the datagram out.
  StackReplica* rep = host_.pick_replica();
  if (rep == nullptr) return 0;
  rep->udp_tx(net::Packet::of(payload), it->second.port, to);
  return payload.size();
}

void SockLib::on_replica_tcp_recovery(
    StackReplica& replica, const std::vector<net::TcpSocketPtr>& restored) {
  // Connections the checkpoint brought back are transparently re-attached
  // to their fds; the rest of this replica's sockets are gone. Every other
  // replica is untouched (the whole point of state partitioning).
  for (const auto& sock : sockets_on(replica)) {
    const net::FlowKey flow = sock->tcp().flow();
    net::TcpSocketPtr replacement;
    for (const auto& r : restored) {
      if (r->flow() == flow) {
        replacement = r;
        break;
      }
    }
    if (replacement) {
      sock->reattach(std::move(replacement));
    } else {
      sock->fail();
    }
  }
}

void SockLib::on_connections_migrated(
    StackReplica& from, StackReplica& to,
    const std::vector<net::TcpSocketPtr>& adopted) {
  // Unlike a crash, migration moves every fd-attached connection intact:
  // match by flow and re-home. A socket of `from`'s that is NOT in the
  // adopted set was already closing (extract only moves ESTABLISHED) — it
  // keeps its old attachment and finishes dying where it is.
  for (const auto& sock : sockets_on(from)) {
    const net::FlowKey flow = sock->tcp().flow();
    for (const auto& a : adopted) {
      if (a->flow() == flow) {
        sock->rehome(to, a);
        break;
      }
    }
  }
}

void SockLib::on_connections_departed(
    StackReplica& from, const std::vector<net::FlowKey>& flows) {
  // Cross-host drain: the listed flows now live on another machine. The
  // local sockets are husks — deliver kMigratedAway so the app closes the
  // fds; no FIN/RST goes out (the connection is alive, elsewhere).
  for (const auto& sock : sockets_on(from)) {
    const net::FlowKey flow = sock->tcp().flow();
    for (const auto& f : flows) {
      if (f == flow) {
        sock->migrated_away();
        break;
      }
    }
  }
}

std::vector<NeatSocketPtr> SockLib::sockets_on(
    const StackReplica& replica) const {
  std::vector<NeatSocketPtr> out;
  for (const auto* e : conns_.sorted_if([&](const auto& kv) {
         return &kv.second->replica() == &replica;
       })) {
    out.push_back(e->second);
  }
  return out;
}

Fd SockLib::adopt_socket(StackReplica& replica, net::TcpSocketPtr tcp,
                         ConnCallbacks cb) {
  if (!tcp) return kBadFd;
  const Fd fd = next_fd_++;
  host_.note_first_service(replica);
  wire_connection(fd, replica, std::move(tcp), std::move(cb),
                  /*notify_connect=*/false);
  return fd;
}

}  // namespace neat::socklib
