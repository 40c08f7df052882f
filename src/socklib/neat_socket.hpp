// The per-socket shared-memory data path between an application and its
// stack replica (the design of [35], "On sockets and system calls").
//
// An app-side write goes into the tx ring and — at most once per batch —
// rings a doorbell at the replica; the replica drains the ring into its TCP
// send buffer in its own context, charged its own cycles. Receives read the
// TCP receive ring directly (it is the shared buffer). Neither direction
// involves the SYSCALL server: this is the syscall-less fast path that
// makes the whole design "agnostic to the number of network stack
// replicas".
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "ipc/byte_ring.hpp"
#include "ipc/doorbell.hpp"
#include "neat/costs.hpp"
#include "neat/replica.hpp"
#include "net/tcp.hpp"
#include "socklib/conn_events.hpp"
#include "socklib/socket_api.hpp"

namespace neat::socklib {

/// The socket is its TCB's owner (net::TcpSocket::Owner): the TCB holds a
/// bare pointer to it, which the destructor and every TCB swap detach.
class NeatSocket final : public std::enable_shared_from_this<NeatSocket>,
                         private net::TcpSocket::Owner {
 public:
  /// `costs` is the host's own (NeatHost::costs()) and must outlive the
  /// socket; `fd` is the number the application knows the socket by and
  /// is passed to every ConnCallbacks call. `notify_connect` is false for
  /// accepted and adopted connections, which never report on_connected.
  NeatSocket(sim::Process& app, StackReplica& replica, const StackCosts& costs,
             net::TcpSocketPtr tcp, Fd fd, bool notify_connect);
  ~NeatSocket();

  NeatSocket(const NeatSocket&) = delete;
  NeatSocket& operator=(const NeatSocket&) = delete;

  // --- app side --------------------------------------------------------------
  std::size_t write(std::span<const std::uint8_t> data);
  std::size_t read(std::span<std::uint8_t> dst);
  [[nodiscard]] std::size_t readable() const { return tcp_->readable(); }
  [[nodiscard]] bool eof() const { return tcp_->eof(); }
  [[nodiscard]] bool alive() const {
    return !failed_ && !events_.closed_delivered();
  }
  void close();

  /// Point at the application's callback table (nullptr stops all further
  /// calls; see ConnCallbacks for its lifetime). Events that raced ahead
  /// of the install are delivered.
  void set_callbacks(const ConnCallbacks* cb);

  /// Replica died with this socket's state: deliver kStackFailure upward.
  void fail();

  /// The connection was extracted and now lives on a DIFFERENT host: the
  /// local fd has nothing behind it any more. Delivers kMigratedAway so the
  /// application drops its bookkeeping; no FIN/RST is sent (the connection
  /// itself is alive — elsewhere).
  void migrated_away();

  /// Stateful recovery: swap in the restored TCP socket (same flow) and
  /// own it instead — the application never notices the crash.
  void reattach(net::TcpSocketPtr tcp);

  /// Live migration: this connection now lives on `replica` as `tcp`.
  /// Re-targets the stack-side doorbell and owns the new TCB; pending
  /// tx-ring bytes drain into the new replica's send buffer.
  void rehome(StackReplica& replica, net::TcpSocketPtr tcp);

  [[nodiscard]] StackReplica& replica() const { return *replica_; }
  [[nodiscard]] net::TcpSocket& tcp() const { return *tcp_; }

 private:
  /// Replica context: the TCB's events.
  void on_tcp_event(net::TcpEvent ev, net::TcpCloseReason reason) override;
  void pump();      // replica context
  void dispatch();  // app context
  // Any context. The doorbells' handlers may capture a bare `this`: a
  // ring's delivery holds this socket (its owner) for the handler's
  // duration.
  void raise(std::uint8_t bits) {
    events_.raise(bits, costs_.app_notify, *this, [this] { dispatch(); });
  }
  void raise_closed(CloseReason r) {
    events_.set_close_reason(r);
    raise(ConnEvents::kClosed);
  }
  void ring_stack() {
    to_stack_.ring(replica_->tcp_process(), costs_.doorbell_take, *this,
                   [this] { pump(); });
  }

  StackReplica* replica_;  // pointer: migration re-homes the socket
  const StackCosts& costs_;
  net::TcpSocketPtr tcp_;
  ipc::ByteRing tx_ring_;
  ConnEvents events_;  // → app
  ipc::Doorbell to_stack_;
  bool pump_scheduled_{false};
  bool close_requested_{false};
  bool want_write_{false};
  bool failed_{false};
  // Set while draining remaining data after an app close() whose owner
  // already dropped its reference.
  std::shared_ptr<NeatSocket> self_keepalive_;
};

using NeatSocketPtr = std::shared_ptr<NeatSocket>;

}  // namespace neat::socklib
