// Adversarial clients: traffic that attacks the stack instead of using it.
//
// Two classics, each aimed at a different NEaT mechanism:
//   * SynFlood  — spoofed-source SYNs at line rate. Exercises the SYN
//     backlog, the per-replica half-open state, and (with tracking filters
//     on) pollution of the NIC's exact-match flow table. Sources must be
//     spoofed: a flood from the client's real IP would be answered by the
//     client stack's own RST (unmatched SYN|ACK), tearing the half-open
//     state down and turning the attack into a no-op.
//   * Slowloris — many connections that each dribble one header byte at a
//     time, holding server sockets and web-server parser state open
//     indefinitely without ever completing a request.
// Connection churn needs no engine of its own: it is an OpenLoopClient at
// one request per session (see wl/scenario.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "nic/nic.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "socklib/socket_api.hpp"

namespace neat::wl {

/// Spoofed-source SYN flood, injected as raw frames on the attacker's NIC
/// (no local stack involvement — the whole point is that no real endpoint
/// exists behind the source addresses).
class SynFlood : public sim::Process {
 public:
  struct Config {
    net::SockAddr target;
    net::MacAddr target_mac;
    double rate{50'000.0};  ///< SYNs/second
    /// Spoofed sources are drawn from `spoof_base + [0, spoof_pool)`.
    /// The server's SYN|ACKs to these addresses pend unresolvable in its
    /// ARP table until the half-open times out — the state-holding attack.
    net::Ipv4Addr spoof_base{net::Ipv4Addr::of(10, 66, 0, 1)};
    std::uint32_t spoof_pool{64};
    sim::Cycles per_syn_cost{300};
  };

  struct Stats {
    std::uint64_t syns_sent{0};
  };

  SynFlood(sim::Simulator& sim, std::string name, nic::Nic& nic,
           Config config);

  void start();
  void stop();
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  void on_restart() override {}

 private:
  void fire();

  nic::Nic& nic_;
  Config config_;
  Stats stats_;
  sim::Rng rng_;
  bool running_{false};
};

/// Slowloris: open `connections` sockets, send an eternally-unfinished
/// request header on each, trickle one byte per `trickle_every` to defeat
/// idle timeouts. Holds sockets + parser state, not bandwidth.
class Slowloris : public sim::Process {
 public:
  struct Config {
    net::SockAddr server;
    std::size_t connections{128};
    sim::SimTime trickle_every{100 * sim::kMillisecond};
    sim::Cycles connect_cost{3500};
    sim::Cycles send_cost{1500};
  };

  struct Stats {
    std::uint64_t conns_opened{0};
    std::uint64_t conns_lost{0};  ///< server shed us (reset/close)
    std::uint64_t bytes_trickled{0};
  };

  Slowloris(sim::Simulator& sim, std::string name, Config config);

  void attach_api(std::unique_ptr<socklib::SocketApi> api);
  void start();
  void stop();  ///< release all held connections

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t held() const { return held_.size(); }

 protected:
  void on_restart() override {}

 private:
  void open_one();
  void trickle(socklib::Fd fd);

  Config config_;
  Stats stats_;
  /// Every connection's callbacks (declared before api_: it outlives the
  /// sockets).
  socklib::ConnCallbacks conn_cb_;
  std::unique_ptr<socklib::SocketApi> api_;
  /// Ordered, so stop() closes the held connections in fd order.
  std::set<socklib::Fd> held_;
  bool running_{false};
};

}  // namespace neat::wl
