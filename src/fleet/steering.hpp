// The fleet's L4 steering tier: a maglev-style software load balancer that
// sits between the client machines and the NEaT backend hosts.
//
// Topology: nic::Link is strictly point-to-point, so the tier owns one NIC
// *port* per connected machine (like a switch). Every backend host shares
// one virtual IP (the VIP); clients connect to the VIP and the tier decides
// which backend carries each flow:
//
//   client ports                    backend ports
//   ┌────────┐   lookup(flow):     ┌────────┐
//   │client 0│──┐ conntrack hit →  ┌──│backend 0│  (all share the VIP)
//   │client 1│──┤ pinned backend;  ├──│backend 1│
//   │  ...   │──┤ miss → maglev    ├──│  ...    │
//   └────────┘  └──────────────────┘  └────────┘
//
// Forwarding is an in-place Ethernet dst/src-MAC rewrite plus a transmit on
// the chosen port — the IP packet (and its checksums) pass through
// untouched, exactly like a DSR maglev deployment where every backend owns
// the VIP locally. The tier consumes no simulated CPU; like the NIC model
// it is "hardware", and its latency is a fixed per-hop forward delay.
//
// Connection tracking mirrors the NIC's per-flow tracking filters one level
// up: a SYN pins its flow to the maglev-chosen backend, and later table
// changes (hosts joining/leaving) never move an established flow. RSTs
// drop the entry immediately; FINs retire it after a linger.
//
// The tier is also the fleet's failure detector: it pings every in-table
// backend (ICMP echo to the VIP out of that backend's port — replies are
// attributable by arrival port) and declares a host dead after N
// consecutive misses, the same detect-don't-assume discipline the per-host
// supervisor applies to replicas.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fleet/maglev.hpp"
#include "net/addr.hpp"
#include "net/packet.hpp"
#include "nic/nic.hpp"
#include "obs/obs.hpp"
#include "sim/flat_map.hpp"
#include "sim/simulator.hpp"

namespace neat::fleet {

struct SteeringConfig {
  /// The service address: every backend host's NIC carries this IP.
  net::Ipv4Addr vip{net::Ipv4Addr::of(10, 0, 0, 100)};
  /// Source address of the tier's health probes (backend ports answer ARP
  /// for it; backends address their echo replies to it).
  net::Ipv4Addr prober_ip{net::Ipv4Addr::of(10, 9, 9, 9)};
  std::size_t table_size{MaglevTable::kDefaultTableSize};
  /// MAC ids for tier ports start here (MacAddr::local(mac_base + port#)).
  std::uint32_t mac_base{200};
};

class SteeringTier {
 public:
  struct Stats {
    std::uint64_t to_backend{0};       ///< frames forwarded client → backend
    std::uint64_t to_client{0};        ///< frames forwarded backend → client
    std::uint64_t flows_installed{0};  ///< conntrack entries created
    std::uint64_t flows_removed{0};    ///< RST/FIN retirements + purges
    std::uint64_t no_backend_drops{0}; ///< table empty / backend port gone
    std::uint64_t unknown_dst_drops{0};
    std::uint64_t arp_proxied{0};
    std::uint64_t probes_sent{0};
    std::uint64_t probe_replies{0};
    std::uint64_t backends_declared_down{0};
  };

  SteeringTier(sim::Simulator& sim, SteeringConfig cfg,
               obs::Hub* hub = nullptr);
  ~SteeringTier();

  SteeringTier(const SteeringTier&) = delete;
  SteeringTier& operator=(const SteeringTier&) = delete;

  // --- ports (wired to Links by the cluster) -------------------------------
  /// Create the tier-side port facing backend `id` (whose NIC has
  /// `peer_mac`). The caller links the returned NIC to the host's NIC.
  /// Creating the port does NOT enter the backend into the steering table —
  /// call add_backend once the host is ready to serve (standby hosts have
  /// ports but no table share).
  nic::Nic& add_backend_port(int id, net::MacAddr peer_mac);
  /// Create the tier-side port facing the client machine at `ip`.
  nic::Nic& add_client_port(net::Ipv4Addr ip, net::MacAddr peer_mac);

  [[nodiscard]] nic::Nic* backend_port(int id);

  // --- steering table ------------------------------------------------------
  void add_backend(int id);
  /// Emit the backend_add events of the current table, in id order, as
  /// add_backend() does, as trace set-up: for a tracer enabled after the
  /// tier was built.
  void trace_backends();
  /// Pull `id` from the table AND purge its tracked flows (a crashed or
  /// draining host). Purged flows that are still live on the wire re-hash
  /// to a surviving backend, whose stack answers them with a RST.
  void remove_backend(int id);
  [[nodiscard]] bool has_backend(int id) const { return table_.has_backend(id); }
  [[nodiscard]] const MaglevTable& table() const { return table_; }

  // --- connection tracking -------------------------------------------------
  /// Canonical flow keys are VIP-local: {local=VIP:port, remote=client}.
  [[nodiscard]] std::optional<int> tracked_backend(
      const net::FlowKey& flow) const;
  [[nodiscard]] std::size_t tracked_flow_count() const { return flows_.size(); }
  [[nodiscard]] std::vector<net::FlowKey> tracked_flows_for(int id) const;
  /// Re-pin tracked flows to a new backend (cross-host migration repoint).
  void repoint_flows(const std::vector<net::FlowKey>& flows, int id);
  /// Steering decision a fresh frame of `flow` would get right now.
  [[nodiscard]] int steer(const net::FlowKey& flow) const;

  // --- migration capture (client-facing ports) -----------------------------
  /// Buffer every client frame of the listed (canonical) flows at the
  /// client ports until end_capture() replays them — the fleet-level
  /// equivalent of the NIC capture window inside one host.
  void begin_capture(const std::vector<net::FlowKey>& flows);
  void end_capture();

  // --- health probing ------------------------------------------------------
  /// Probe every in-table backend each kProbeInterval; `on_down(id)` fires
  /// (once) when a backend misses kProbeMissThreshold probes in a row.
  /// The callback typically calls remove_backend.
  void start_probing(std::function<void(int id)> on_down);
  void stop_probing();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const SteeringConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] obs::TraceEvent backend_add_event(int id,
                                                  std::size_t backends) const;

  struct Port {
    std::unique_ptr<nic::Nic> nic;
    bool is_backend{false};
    int backend_id{-1};         ///< backend ports
    net::Ipv4Addr client_ip;    ///< client ports
    net::MacAddr peer_mac;      ///< MAC of the machine behind this port
    bool drain_pending{false};  ///< one drain event outstanding
  };
  struct ProbeState {
    std::uint16_t seq{0};
    bool awaiting{false};
    int misses{0};
    bool declared_down{false};
  };

  Port& new_port();
  void schedule_drain(std::size_t port_idx);
  void drain(std::size_t port_idx);
  void handle_client_frame(net::PacketPtr frame);
  void handle_backend_frame(Port& in, net::PacketPtr frame);
  void proxy_arp(Port& port, net::PacketPtr frame);
  void forward(Port& out, net::PacketPtr frame);
  void note_flow_flags(const net::FlowKey& canonical, bool rst, bool fin);
  void probe_tick();

  sim::Simulator& sim_;
  SteeringConfig cfg_;
  obs::Hub* hub_;
  MaglevTable table_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<int, std::size_t> backend_ports_;  // id -> port idx
  std::unordered_map<std::uint32_t, std::size_t> client_ports_;  // ip -> idx
  /// Conntrack: canonical flow -> backend id. Flat (sim/flat_map.hpp).
  sim::FlatMap<net::FlowKey, int, net::FlowKeyHash> flows_;
  std::unordered_map<int, ProbeState> probes_;
  std::function<void(int)> on_down_;
  sim::EventHandle probe_timer_;
  bool probing_{false};
  Stats stats_;
};

}  // namespace neat::fleet
