// SockLib: the NEaT user-space POSIX library (one instance per application
// process).
//
// It hides replication completely: a listening fd is transparently backed
// by one hidden "subsocket" per replica (created at listen() time, §3.3); a
// connected fd maps to the single replica that owns the connection; data
// moves over shared rings without touching the SYSCALL server.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ipc/doorbell.hpp"
#include "neat/host.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "socklib/neat_socket.hpp"
#include "socklib/socket_api.hpp"

namespace neat::socklib {

class SockLib final : public SocketApi, public ReplicaFailureListener {
 public:
  SockLib(sim::Process& app, NeatHost& host);
  ~SockLib() override;

  SockLib(const SockLib&) = delete;
  SockLib& operator=(const SockLib&) = delete;

  // SocketApi
  Fd listen(std::uint16_t port, std::size_t backlog,
            std::function<void()> on_acceptable) override;
  Fd accept(Fd listen_fd, const ConnCallbacks* cb) override;
  Fd connect(net::SockAddr remote, const ConnCallbacks* cb) override;
  std::size_t send(Fd fd, std::span<const std::uint8_t> data) override;
  std::size_t recv(Fd fd, std::span<std::uint8_t> dst) override;
  [[nodiscard]] std::size_t readable(Fd fd) const override;
  [[nodiscard]] bool eof(Fd fd) const override;
  void close(Fd fd) override;
  Fd udp_open(std::uint16_t port, DatagramRx rx) override;
  std::size_t udp_send(Fd fd, net::SockAddr to,
                       std::span<const std::uint8_t> payload) override;

  // ReplicaFailureListener
  void on_replica_tcp_recovery(
      StackReplica& replica,
      const std::vector<net::TcpSocketPtr>& restored) override;
  void on_connections_migrated(
      StackReplica& from, StackReplica& to,
      const std::vector<net::TcpSocketPtr>& adopted) override;
  void on_connections_departed(
      StackReplica& from, const std::vector<net::FlowKey>& flows) override;

  /// Fleet-layer adoption: wrap a TCP socket that `replica` just adopted
  /// from another HOST in a fresh fd. The counterpart of
  /// on_connections_departed on the receiving machine — data already
  /// buffered in the adopted socket is delivered via cb->on_readable.
  Fd adopt_socket(StackReplica& replica, net::TcpSocketPtr tcp,
                  const ConnCallbacks* cb);

  [[nodiscard]] NeatHost& host() { return host_; }
  [[nodiscard]] std::size_t open_sockets() const { return conns_.size(); }
  [[nodiscard]] std::size_t open_udp_sockets() const {
    return udp_socks_.size();
  }

 private:
  struct ListenEntry {
    std::uint16_t port{0};
    std::shared_ptr<ipc::BoundDoorbell> accept_bell;
    std::size_t rr_next{0};  // round-robin start over replicas
  };

  void wire_connection(Fd fd, StackReplica& replica, net::TcpSocketPtr tcp,
                       const ConnCallbacks* cb, bool notify_connect);

  struct UdpEntry {
    std::uint16_t port{0};
  };

  sim::Process& app_;
  NeatHost& host_;
  sim::Rng rng_;
  Fd next_fd_{3};
  // Per-fd tables, flat (sim/flat_map.hpp): no reference stability across
  // inserts/erases. Fds are handed out in increasing order, so the sorted
  // (key-order) iteration the recovery hooks use is creation order.
  sim::FlatMap<Fd, ListenEntry, sim::IntHash> listeners_;
  sim::FlatMap<Fd, NeatSocketPtr, sim::IntHash> conns_;
  sim::FlatMap<Fd, UdpEntry, sim::IntHash> udp_socks_;

  /// Sockets attached to `replica`, in fd order, copied out of conns_ so
  /// the caller may let them call back into the library.
  [[nodiscard]] std::vector<NeatSocketPtr> sockets_on(
      const StackReplica& replica) const;
};

}  // namespace neat::socklib
