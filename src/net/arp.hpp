// ARP: wire codec plus a small cache/resolver.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"

namespace neat::net {

struct ArpMessage {
  static constexpr std::size_t kSize = 28;

  enum class Op : std::uint16_t { kRequest = 1, kReply = 2 };

  Op op{Op::kRequest};
  MacAddr sender_mac;
  Ipv4Addr sender_ip;
  MacAddr target_mac;
  Ipv4Addr target_ip;

  [[nodiscard]] PacketPtr encode() const;
  [[nodiscard]] static std::optional<ArpMessage> decode(Packet& pkt);
};

/// ARP cache + resolution engine. The owner supplies the transmit hook and
/// pumps received ARP messages through handle().
class ArpResolver {
 public:
  using TxHook = std::function<void(const ArpMessage&, MacAddr dst)>;
  using Resolved = std::function<void(MacAddr)>;

  ArpResolver(MacAddr own_mac, Ipv4Addr own_ip, TxHook tx)
      : mac_(own_mac), ip_(own_ip), tx_(std::move(tx)) {}

  /// Look up `ip`; invokes `cb` immediately if cached, otherwise sends an
  /// ARP request and queues the callback.
  void resolve(Ipv4Addr ip, Resolved cb);

  /// Process an incoming ARP message; replies to requests for our IP and
  /// learns mappings from replies (and gratuitous requests).
  void handle(const ArpMessage& msg);

  /// Pre-populate (static entries / tests).
  void insert(Ipv4Addr ip, MacAddr mac);

  [[nodiscard]] std::optional<MacAddr> lookup(Ipv4Addr ip) const;

 private:
  struct IpHash {
    std::size_t operator()(const Ipv4Addr& a) const {
      return std::hash<std::uint32_t>{}(a.value);
    }
  };

  MacAddr mac_;
  Ipv4Addr ip_;
  TxHook tx_;
  std::unordered_map<Ipv4Addr, MacAddr, IpHash> cache_;
  std::unordered_map<Ipv4Addr, std::vector<Resolved>, IpHash> waiting_;
};

}  // namespace neat::net
