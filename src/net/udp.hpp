// UDP: wire codec and a minimal port mux.
//
// The paper treats UDP as the easy case — stateless, so any replica can
// process any datagram and recovery is trivial. The mux below is what a
// NEaT UDP component wraps.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "net/addr.hpp"
#include "net/packet.hpp"

namespace neat::net {

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};

  /// Prepend header; computes length and the pseudo-header checksum.
  void encode(Packet& pkt, Ipv4Addr src, Ipv4Addr dst) const;

  /// Parse + consume; verifies checksum (nullopt on corruption).
  [[nodiscard]] static std::optional<UdpHeader> decode(Packet& pkt,
                                                       Ipv4Addr src,
                                                       Ipv4Addr dst);
};

/// Datagram delivery mux: bind(port) -> receive callback.
class UdpMux {
 public:
  struct Datagram {
    SockAddr from;
    SockAddr to;
    PacketPtr payload;
  };
  using Receiver = std::function<void(Datagram)>;

  /// Returns false if the port is taken.
  bool bind(std::uint16_t port, Receiver rx) {
    auto [it, inserted] = bound_.emplace(port, std::move(rx));
    (void)it;
    return inserted;
  }

  void unbind(std::uint16_t port) { bound_.erase(port); }
  [[nodiscard]] bool is_bound(std::uint16_t port) const {
    return bound_.contains(port);
  }

  /// Forget every binding (crash recovery: the mux is soft state that dies
  /// with its process; the host replays durable binds onto the restarted
  /// replica).
  void clear() { bound_.clear(); }

  /// Datagrams handed to a receiver on this mux (per-replica steering
  /// visibility for tests and benches).
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

  /// Deliver a decoded datagram; returns false if no receiver (caller may
  /// emit ICMP port-unreachable).
  bool deliver(const UdpHeader& h, Ipv4Addr src, Ipv4Addr dst,
               PacketPtr payload) {
    auto it = bound_.find(h.dst_port);
    if (it == bound_.end()) return false;
    ++delivered_;
    it->second(Datagram{SockAddr{src, h.src_port}, SockAddr{dst, h.dst_port},
                        std::move(payload)});
    return true;
  }

 private:
  std::unordered_map<std::uint16_t, Receiver> bound_;
  std::uint64_t delivered_{0};
};

}  // namespace neat::net
