#include "socklib/neat_socket.hpp"

#include <algorithm>
#include <vector>

namespace neat::socklib {

const char* to_string(CloseReason r) {
  switch (r) {
    case CloseReason::kNormal: return "normal";
    case CloseReason::kReset: return "reset";
    case CloseReason::kTimeout: return "timeout";
    case CloseReason::kRefused: return "refused";
    case CloseReason::kStackFailure: return "stack-failure";
    case CloseReason::kMigratedAway: return "migrated-away";
  }
  return "?";
}

NeatSocket::NeatSocket(sim::Process& app, StackReplica& replica,
                       const StackCosts& costs, net::TcpSocketPtr tcp, Fd fd,
                       bool notify_connect)
    : replica_(&replica),
      costs_(costs),
      tcp_(std::move(tcp)),
      tx_ring_(std::min<std::size_t>(
          32768, tcp_->send_space() > 0 ? tcp_->send_space() : 32768)),
      events_(app, fd, notify_connect) {
  tcp_->set_owner(this);
}

// The TCB may outlive this socket (TIME_WAIT, a closing socket the stack
// still drains): it must not keep pointing here.
NeatSocket::~NeatSocket() { tcp_->set_owner(nullptr); }

void NeatSocket::on_tcp_event(net::TcpEvent ev, net::TcpCloseReason reason) {
  switch (ev) {
    case net::TcpEvent::kEstablished:
      raise(ConnEvents::kConnected);
      return;
    case net::TcpEvent::kReadable:
      raise(ConnEvents::kReadable);
      return;
    case net::TcpEvent::kWritable: {
      // More TCP send space: keep draining the ring. A socket the app has
      // closed may live on self_keepalive_ alone, which pump() can drop:
      // hold it to the end of this call.
      const auto keep = self_keepalive_;
      pump();
      if (want_write_ && tx_ring_.writable() > 0) {
        want_write_ = false;
        raise(ConnEvents::kWritable);
      }
      return;
    }
    case net::TcpEvent::kClosed:
      raise_closed(to_close_reason(reason));
      return;
  }
}

std::size_t NeatSocket::write(std::span<const std::uint8_t> data) {
  if (failed_ || close_requested_) return 0;
  const std::size_t n = tx_ring_.write(data);
  if (n < data.size()) want_write_ = true;
  if (n > 0) ring_stack();
  return n;
}

std::size_t NeatSocket::read(std::span<std::uint8_t> dst) {
  if (failed_) return 0;
  return tcp_->recv(dst);
}

void NeatSocket::close() {
  if (failed_ || close_requested_) return;
  close_requested_ = true;
  // The owner (SockLib) may drop its reference right after close(); the
  // teardown job keeps the socket alive until the FIN has been issued, so
  // capture a strong reference rather than going through the weak-handler
  // doorbell.
  auto self = shared_from_this();
  replica_->tcp_process().post(costs_.doorbell_take, [self] { self->pump(); });
}

void NeatSocket::set_callbacks(const ConnCallbacks* cb) {
  events_.set_callbacks(cb);
  // Anything already pending (data that raced ahead of accept())?
  if (cb != nullptr && cb->on_readable &&
      (tcp_->readable() > 0 || tcp_->eof())) {
    raise(ConnEvents::kReadable);
  }
  if (tcp_->state() == net::TcpState::kClosed &&
      !events_.closed_delivered()) {
    raise(ConnEvents::kClosed);
  }
}

void NeatSocket::reattach(net::TcpSocketPtr tcp) {
  if (failed_ || events_.closed_delivered()) return;
  tcp_->set_owner(nullptr);  // the old TCB must not point here either
  tcp_ = std::move(tcp);
  tcp_->set_owner(this);
  pump_scheduled_ = false;
  // Anything buffered pre-crash is readable again; resume sending too.
  if (tcp_->readable() > 0) raise(ConnEvents::kReadable);
  ring_stack();
}

void NeatSocket::rehome(StackReplica& replica, net::TcpSocketPtr tcp) {
  if (failed_ || events_.closed_delivered()) return;
  replica_ = &replica;
  to_stack_.reset();  // a ring pending at the old replica may never run
  reattach(std::move(tcp));
}

void NeatSocket::fail() {
  if (failed_) return;
  failed_ = true;
  raise_closed(CloseReason::kStackFailure);
}

void NeatSocket::migrated_away() {
  if (failed_ || events_.closed_delivered()) return;
  // Reuse the failure plumbing — it detaches the socket from further I/O —
  // but tell the app the truth: the connection lives on, on another host.
  failed_ = true;
  raise_closed(CloseReason::kMigratedAway);
}

void NeatSocket::pump() {
  // Replica context: move bytes tx_ring -> TCP send buffer, charging the
  // replica for the copy. One outstanding drain job at a time.
  if (pump_scheduled_ || failed_) return;
  const auto st = tcp_->state();
  const bool can_accept =
      st == net::TcpState::kEstablished || st == net::TcpState::kCloseWait ||
      st == net::TcpState::kSynSent || st == net::TcpState::kSynRcvd;
  if (!can_accept) {
    // Reset or migrated-out-under-us socket: nothing can be pushed now. A
    // reset socket delivers on_closed (dispatch releases the ring); a
    // migrated one re-rings this doorbell after rehome.
    if (close_requested_) self_keepalive_.reset();
    return;
  }
  const std::size_t n = std::min(tx_ring_.readable(), tcp_->send_space());
  if (n == 0) {
    if (close_requested_) {
      if (tx_ring_.empty()) {
        if (tcp_->state() != net::TcpState::kClosed) tcp_->close();
        self_keepalive_.reset();
      } else {
        // Closed by the app with unsent data and a stalled TCP window:
        // keep ourselves alive (like a kernel draining a closed socket in
        // the background) until on_writable resumes the pump.
        self_keepalive_ = shared_from_this();
      }
    }
    return;
  }
  pump_scheduled_ = true;
  auto self = shared_from_this();
  replica_->tcp_process().post(
      costs_.sock_drain_base + costs_.bytes_cost(n), [self] {
        self->pump_scheduled_ = false;
        if (self->failed_) return;
        // Send straight out of the ring, then consume only what TCP
        // accepted: the socket may have been migrated out (silently
        // closed) since this job was posted, in which case send() takes
        // nothing and the bytes stay in the ring for the post-rehome pump
        // to deliver.
        std::size_t accepted = 0;
        for (const auto span : self->tx_ring_.readable_spans()) {
          if (span.empty()) break;
          const std::size_t took = self->tcp_->send(span);
          accepted += took;
          if (took < span.size()) break;
        }
        self->tx_ring_.discard(accepted);
        if (self->want_write_ && self->tx_ring_.writable() > 0) {
          self->want_write_ = false;
          self->raise(ConnEvents::kWritable);
        }
        self->pump();  // either more data, or the deferred close
      });
}

void NeatSocket::dispatch() {
  if (!events_.run_pending()) return;
  tx_ring_.release();
  // Nothing can drain into a dead connection: a socket closed by the app
  // while draining (pump()'s keepalive) must not keep itself. (The
  // doorbell delivery running this holds the socket.)
  self_keepalive_.reset();
  events_.deliver_close();
}

}  // namespace neat::socklib
