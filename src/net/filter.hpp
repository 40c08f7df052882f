// Stateless packet filter — the PF component of a multi-component replica.
//
// Rules match on the IPv4 5-tuple with wildcards, first match wins; the
// default policy is accept. Being stateless, the component hosting this
// filter recovers transparently from crashes: rules are re-installed from
// configuration (Table 3 discussion).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "net/ipv4.hpp"

namespace neat::net {

struct FilterRule {
  enum class Action { kAccept, kDrop };

  Action action{Action::kDrop};
  std::optional<IpProto> proto;      // nullopt = any
  std::optional<Ipv4Addr> src_ip;    // nullopt = any
  std::optional<Ipv4Addr> dst_ip;
  std::optional<std::uint16_t> src_port;  // only meaningful for TCP/UDP
  std::optional<std::uint16_t> dst_port;
  std::string label;

  mutable std::uint64_t hits{0};
};

class PacketFilter {
 public:
  /// Append a rule (evaluated in insertion order).
  void add_rule(FilterRule rule) { rules_.push_back(std::move(rule)); }
  void clear() { rules_.clear(); }
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }
  [[nodiscard]] const std::vector<FilterRule>& rules() const { return rules_; }

  /// Evaluate a packet. Ports are 0 when the protocol has none.
  [[nodiscard]] bool accept(IpProto proto, Ipv4Addr src, Ipv4Addr dst,
                            std::uint16_t src_port,
                            std::uint16_t dst_port) const {
    for (const auto& r : rules_) {
      if (r.proto && *r.proto != proto) continue;
      if (r.src_ip && *r.src_ip != src) continue;
      if (r.dst_ip && *r.dst_ip != dst) continue;
      if (r.src_port && *r.src_port != src_port) continue;
      if (r.dst_port && *r.dst_port != dst_port) continue;
      ++r.hits;
      return r.action == FilterRule::Action::kAccept;
    }
    return true;  // default accept
  }

 private:
  std::vector<FilterRule> rules_;
};

}  // namespace neat::net
