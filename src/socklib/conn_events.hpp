// App-side connection event delivery, shared by both socket libraries
// (socklib::NeatSocket and the Linux baseline's sockets).
//
// Stack-side code raises event bits in any context; the app doorbell
// coalesces them into one delivery in the app's context, which runs the
// application's ConnCallbacks for every pending bit. The socket points at
// the app's one immutable table; a callback may re-point or clear it
// mid-run (SockLib::close() clears it from inside one), so the pointer is
// re-read before each bit and a swap stops the old table's remaining
// calls. The close is delivered at most once.
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

  /// `app` is the process the callbacks run in; `fd` is passed to every
  /// callback. With `notify_connect` false (accepted and adopted fds),
  /// on_connected never runs.
  ConnEvents(sim::Process& app, Fd fd, bool notify_connect)
      : app_(&app), fd_(fd), notify_connect_(notify_connect) {}

  /// Mark `bits` pending and ring the app on behalf of `owner`, the
  /// object these events are a member of (see ipc::Doorbell::ring).
  /// `bell_cost` is the app-side cycles to take the notification;
  /// `on_bell` then runs in the app's context and calls run_pending(). It
  /// may capture a bare owner `this`.
  template <typename Owner, typename OnBell>
  void raise(std::uint8_t bits, sim::Cycles bell_cost, const Owner& owner,
             OnBell&& on_bell) {
    pending_ |= bits;
    bell_.ring(*app_, bell_cost, owner, std::forward<OnBell>(on_bell));
  }

  /// The close is raised like any bit; `r` is what on_closed reports.
  void set_close_reason(CloseReason r) { reason_ = r; }

  /// Point at the application's callback table (nullptr stops all further
  /// calls; see ConnCallbacks for its lifetime). Raises nothing: what
  /// raced ahead is the owner's call.
  void set_callbacks(const ConnCallbacks* cb) { cb_ = cb; }

  /// App context: run the callbacks of every pending bit. Returns true when
  /// the close is due (and marks it delivered); the owner then releases
  /// what it holds and calls deliver_close().
  [[nodiscard]] bool run_pending() {
    const std::uint8_t ev = std::exchange(pending_, std::uint8_t{0});
    if ((ev & kConnected) && notify_connect_) run(&ConnCallbacks::on_connected);
    if (ev & kReadable) run(&ConnCallbacks::on_readable);
    if (ev & kWritable) run(&ConnCallbacks::on_writable);
    if (!(ev & kClosed) || closed_delivered_) return false;
    closed_delivered_ = true;
    return true;
  }

  /// The final event: the table is dropped before on_closed runs.
  void deliver_close() {
    const ConnCallbacks* cb = std::exchange(cb_, nullptr);
    if (cb != nullptr && cb->on_closed) cb->on_closed(fd_, reason_);
  }

  [[nodiscard]] bool closed_delivered() const { return closed_delivered_; }

 private:
  /// Reads cb_ afresh: an earlier callback may have swapped or cleared it.
  void run(sim::Callback<void(Fd)> ConnCallbacks::*slot) const {
    if (cb_ != nullptr && cb_->*slot) (cb_->*slot)(fd_);
  }

  sim::Process* app_;
  const ConnCallbacks* cb_{nullptr};
  Fd fd_;
  CloseReason reason_{CloseReason::kNormal};
  std::uint8_t pending_{0};
  ipc::Doorbell bell_;
  bool closed_delivered_{false};
  bool notify_connect_;
};

}  // namespace neat::socklib
