// The application-facing socket interface.
//
// NEaT "retains full compatibility with the BSD socket API" — applications
// are written once against this interface and run unchanged on the NEaT
// stack (socklib::SockLib) and on the Linux-baseline stack
// (baseline::LinuxSockets). It is the event-driven, non-blocking flavour of
// the BSD API (the apps in the paper — lighttpd, httperf — are themselves
// event-driven).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "net/addr.hpp"
#include "sim/small_fn.hpp"

namespace neat::socklib {

using Fd = int;
inline constexpr Fd kBadFd = -1;

enum class CloseReason : std::uint8_t {
  kNormal,
  kReset,
  kTimeout,
  kRefused,
  kStackFailure,  ///< the stack replica holding the socket crashed
  kMigratedAway,  ///< connection moved to another host; the fd is dead here
};

[[nodiscard]] const char* to_string(CloseReason r);

/// Datagram delivery callback (UDP): source address + payload bytes. The
/// span is only valid for the duration of the call.
using DatagramRx =
    std::function<void(net::SockAddr from, std::span<const std::uint8_t>)>;

/// Connection event callbacks (edge-style notifications): one table per
/// application, not a copy per connection. Every socket of the app points
/// at the same table and passes its own fd to each call, so a callback
/// captures no more than the app's own `this`. The table must outlive every
/// socket it was given to and must not change while any of them can call
/// it — the lifetime an app's `[this]` captures already assume — so it is
/// a member of the app, built once. An empty callback is an event the app
/// does not take.
struct ConnCallbacks {
  sim::Callback<void(Fd)> on_connected;
  sim::Callback<void(Fd)> on_readable;  ///< data or EOF became available
  sim::Callback<void(Fd)> on_writable;  ///< send space freed after short write
  sim::Callback<void(Fd, CloseReason)> on_closed;
};

class SocketApi {
 public:
  virtual ~SocketApi() = default;

  /// Open a listening socket. `on_acceptable` fires when accept() would
  /// yield a connection. Returns kBadFd on failure.
  virtual Fd listen(std::uint16_t port, std::size_t backlog,
                    std::function<void()> on_acceptable) = 0;

  /// Pop one established connection; kBadFd if none is ready. `cb` is
  /// the app's callback table (see ConnCallbacks for its lifetime), or
  /// nullptr for none; an accepted fd never gets on_connected.
  virtual Fd accept(Fd listen_fd, const ConnCallbacks* cb) = 0;

  /// Begin an active connect; completion via cb->on_connected / on_closed.
  /// `cb` as for accept().
  virtual Fd connect(net::SockAddr remote, const ConnCallbacks* cb) = 0;

  /// Non-blocking write; returns bytes accepted.
  virtual std::size_t send(Fd fd, std::span<const std::uint8_t> data) = 0;

  /// Non-blocking read; returns bytes read (0: nothing available or EOF —
  /// disambiguate with eof()).
  virtual std::size_t recv(Fd fd, std::span<std::uint8_t> dst) = 0;

  [[nodiscard]] virtual std::size_t readable(Fd fd) const = 0;
  [[nodiscard]] virtual bool eof(Fd fd) const = 0;

  /// Orderly close; the fd is released immediately.
  virtual void close(Fd fd) = 0;

  // --- UDP (datagram) -------------------------------------------------------
  // Default implementations report "unsupported" so TCP-only backends stay
  // source-compatible.

  /// Open a UDP socket bound to `port`; incoming datagrams arrive via `rx`.
  /// Returns kBadFd if the backend has no UDP support.
  virtual Fd udp_open(std::uint16_t port, DatagramRx rx) {
    (void)port;
    (void)rx;
    return kBadFd;
  }

  /// Fire-and-forget datagram from `fd`'s bound port. Returns bytes
  /// accepted (0 when unsupported or the fd is unknown).
  virtual std::size_t udp_send(Fd fd, net::SockAddr to,
                               std::span<const std::uint8_t> payload) {
    (void)fd;
    (void)to;
    (void)payload;
    return 0;
  }
};

}  // namespace neat::socklib
