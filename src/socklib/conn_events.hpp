// App-side connection event delivery, shared by both socket libraries
// (socklib::NeatSocket and the Linux baseline's sockets).
//
// Stack-side code raises event bits in any context; the app doorbell
// coalesces them into one delivery in the app's context, which runs the
// application's ConnCallbacks for every pending bit. A callback may replace
// the callbacks mid-run (SockLib::close() clears them from inside one), so
// each callable runs from local storage and is put back only if the
// callbacks were not swapped while it ran. The close is delivered at most
// once.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "ipc/doorbell.hpp"
#include "net/tcp.hpp"
#include "socklib/socket_api.hpp"

namespace neat::socklib {

/// The socket-API close reason for a TCP close.
[[nodiscard]] inline CloseReason to_close_reason(net::TcpCloseReason r) {
  switch (r) {
    case net::TcpCloseReason::kNormal: return CloseReason::kNormal;
    case net::TcpCloseReason::kReset: return CloseReason::kReset;
    case net::TcpCloseReason::kTimeout: return CloseReason::kTimeout;
    case net::TcpCloseReason::kRefused: return CloseReason::kRefused;
    case net::TcpCloseReason::kStackFailure:
      return CloseReason::kStackFailure;
  }
  return CloseReason::kNormal;
}

class ConnEvents {
 public:
  enum Bit : std::uint8_t {
    kConnected = 1u << 0,
    kReadable = 1u << 1,
    kWritable = 1u << 2,
    kClosed = 1u << 3,
  };

  /// `bell_cost` is the app-side cycles to take a notification; `on_bell`
  /// runs in the app's context and calls run_pending(). It may capture a
  /// bare owner `this` (see ipc::Doorbell::ring). `fd` is passed to every
  /// callback.
  ConnEvents(sim::Process& app, sim::Cycles bell_cost,
             ipc::Doorbell::Handler on_bell, Fd fd)
      : bell_(app, bell_cost, std::move(on_bell)), fd_(fd) {}

  /// Mark `bits` pending and ring the app on behalf of `owner`, the
  /// object these events are a member of.
  void raise(std::uint8_t bits, std::weak_ptr<const void> owner) {
    pending_ |= bits;
    bell_.ring(std::move(owner));
  }

  void raise_closed(CloseReason r, std::weak_ptr<const void> owner) {
    reason_ = r;
    raise(kClosed, std::move(owner));
  }

  /// Install the application's callbacks (empty ones stop all further
  /// calls). Raises nothing: what raced ahead is the owner's call.
  void set_callbacks(ConnCallbacks cb) {
    ++gen_;  // tells a mid-callback run_pending() not to restore old ones
    cb_ = std::move(cb);
  }
  [[nodiscard]] const ConnCallbacks& callbacks() const { return cb_; }

  /// App context: run the callbacks of every pending bit. Returns true when
  /// the close is due (and marks it delivered); the owner then releases
  /// what it holds and calls deliver_close().
  [[nodiscard]] bool run_pending() {
    const std::uint8_t ev = std::exchange(pending_, std::uint8_t{0});
    if (ev & kConnected) run(cb_.on_connected);
    if (ev & kReadable) run(cb_.on_readable);
    if (ev & kWritable) run(cb_.on_writable);
    if (!(ev & kClosed) || closed_delivered_) return false;
    closed_delivered_ = true;
    return true;
  }

  void deliver_close() {
    if (!cb_.on_closed) return;
    auto on_closed = std::move(cb_.on_closed);  // final event: no restore
    on_closed(fd_, reason_);
  }

  [[nodiscard]] bool closed_delivered() const { return closed_delivered_; }

 private:
  void run(sim::Callback<void(Fd)>& slot) {
    if (!slot) return;
    const std::uint32_t gen = gen_;
    auto fn = std::move(slot);
    fn(fd_);
    if (gen_ == gen) slot = std::move(fn);
  }

  ipc::Doorbell bell_;
  ConnCallbacks cb_;
  /// Bumped by set_callbacks(); only a swap during one callback has to be
  /// told apart. 32 bits (and a one-byte pending mask) keep NeatSocket
  /// within its byte budget (DESIGN.md §5n): 64 bits cost it 16 B of
  /// padding.
  std::uint32_t gen_{0};
  Fd fd_;
  CloseReason reason_{CloseReason::kNormal};
  std::uint8_t pending_{0};
  bool closed_delivered_{false};
};

}  // namespace neat::socklib
