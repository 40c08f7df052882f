// NEaT stack replicas.
//
// A replica is one independent, fully isolated instance of the network
// stack. It owns a NIC queue pair, a TCP connection table, an ARP cache, an
// IP layer — and shares *nothing* with its sibling replicas (paper §3).
//
// Two compositions exist, selected at build time in the paper and per-host
// here:
//   * SingleComponentReplica — driver-facing RX/TX + IP + TCP + UDP + packet
//     filter in one process ("NEaT Nx" configurations);
//   * MultiComponentReplica  — vertically split into isolated IP and TCP
//     processes (plus UDP and PF) for finer fault containment
//     ("Multi Nx" configurations, Figure 3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "drv/driver.hpp"
#include "ipc/channel.hpp"
#include "neat/costs.hpp"
#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/filter.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "sim/process.hpp"
#include "sim/random.hpp"

namespace neat {

/// Which component of a replica (fault-injection targets; Table 3).
enum class Component { kIp, kTcp, kUdp, kFilter, kWhole };

[[nodiscard]] const char* to_string(Component c);

/// IP layer shared by both replica flavours: encap/decap, ARP, reassembly.
/// Pure logic — the owning process charges the cycles.
class IpLayer {
 public:
  using FrameTx = std::function<void(net::PacketPtr)>;

  IpLayer(net::MacAddr mac, net::Ipv4Addr ip, FrameTx tx_frame);

  /// Encapsulate (IP + Ethernet, ARP-resolved) and transmit.
  void send(net::PacketPtr payload, net::IpProto proto, net::Ipv4Addr src,
            net::Ipv4Addr dst);

  struct Decoded {
    net::Ipv4Header hdr;
    net::PacketPtr payload;
  };

  /// Process one Ethernet frame. ARP is consumed internally; a complete
  /// IPv4 datagram (post-reassembly) is returned.
  std::optional<Decoded> rx_frame(const net::PacketPtr& frame);

  /// Reply to `payload` if it is an ICMP echo request (`hdr` is the
  /// datagram's IP header). Consumes the ICMP header.
  void answer_echo(const net::Ipv4Header& hdr, net::Packet& payload);

  [[nodiscard]] net::ArpResolver& arp() { return arp_; }
  [[nodiscard]] net::Ipv4Addr ip() const { return ip_; }
  [[nodiscard]] net::MacAddr mac() const { return mac_; }

  /// Forget all soft state (crash recovery): ARP cache, partial datagrams.
  void reset();

 private:
  /// A resolver whose requests and replies leave through tx_frame_.
  [[nodiscard]] net::ArpResolver make_arp();

  net::MacAddr mac_;
  net::Ipv4Addr ip_;
  FrameTx tx_frame_;
  net::ArpResolver arp_;
  net::Ipv4Reassembler reasm_;
  std::uint16_t ident_{1};
};

/// Abstract replica as seen by the host manager, SYSCALL server and the
/// socket library.
class StackReplica {
 public:
  virtual ~StackReplica() = default;

  [[nodiscard]] virtual net::TcpStack& tcp() = 0;
  /// The process hosting the TCP state (doorbell consumer for sockets).
  [[nodiscard]] virtual sim::Process& tcp_process() = 0;
  /// Channel the driver delivers this replica's packets into.
  [[nodiscard]] virtual ipc::Channel<net::PacketPtr>& rx_channel() = 0;
  [[nodiscard]] virtual net::PacketFilter& filter() = 0;
  [[nodiscard]] virtual net::UdpMux& udp() = 0;
  /// All component processes (fault-injection / placement).
  [[nodiscard]] virtual std::vector<sim::Process*> processes() = 0;
  [[nodiscard]] virtual sim::Process* component(Component c) = 0;
  [[nodiscard]] virtual IpLayer& ip_layer_ref() = 0;

  [[nodiscard]] int queue() const { return queue_; }
  [[nodiscard]] int id() const { return id_; }

  /// Lazy-termination mark (§3.4): no *new* connections, existing served.
  bool terminating{false};
  /// Set once the terminating replica drained and was collected.
  bool terminated{false};
  /// Set when the supervisor gave up on a crash-looping replica: its
  /// processes stay dead, it never rejoins steering, and (policy
  /// permitting) a freshly spawned replica takes over its load.
  bool quarantined{false};

  /// The replica's address-space layout token (§3.8): each replica is
  /// created with ASLR enabled, so semantically equivalent replicas have
  /// unpredictably different memory layouts, and every restart draws a new
  /// one. Binding each connection to a random replica then re-randomizes
  /// the layout an attacker probes across connections.
  [[nodiscard]] std::uint64_t aslr_layout() const { return aslr_layout_; }

  /// Transmit a UDP datagram from this replica (UDP being stateless, the
  /// socket library may hand any datagram to any serving replica). Runs in
  /// the replica's UDP-bearing process; `payload` is the raw application
  /// bytes, headers are added on the way out.
  virtual void udp_tx(net::PacketPtr payload, std::uint16_t src_port,
                      net::SockAddr to) = 0;

  /// Invoked (by the host) after a crash+restart cycle of the TCP-bearing
  /// process to clear any residual soft state.
  virtual void reset_after_restart(Component which) = 0;

  // What a crash of component `c` takes down with it. A single-component
  // replica is one process, so any crash takes everything. In a
  // multi-component replica kWhole crashes the TCP process, and it still
  // deactivates the RX endpoint like an IP crash does.
  [[nodiscard]] bool crash_loses_tcp_state(Component c) const {
    return one_process_ || c == Component::kTcp || c == Component::kWhole;
  }
  [[nodiscard]] bool crash_loses_rx_endpoint(Component c) const {
    return one_process_ || c == Component::kIp || c == Component::kWhole;
  }
  [[nodiscard]] bool crash_loses_udp_mux(Component c) const {
    return one_process_ || c == Component::kUdp;
  }

 protected:
  StackReplica(int id, int queue, bool one_process, std::uint64_t aslr_seed)
      : queue_(queue), id_(id), one_process_(one_process),
        aslr_rng_(aslr_seed) {
    aslr_layout_ = aslr_rng_();
  }
  /// Called on restart: a fresh process image gets a fresh layout.
  void rerandomize_layout() { aslr_layout_ = aslr_rng_(); }

  int queue_;
  int id_;
  bool one_process_;
  sim::Rng aslr_rng_;
  std::uint64_t aslr_layout_{0};
};

/// One staged egress packet (see TxStage).
struct StagedTx {
  net::PacketPtr pkt;
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  net::IpProto proto{net::IpProto::kTcp};
  std::uint16_t src_port{0};  ///< UDP only
  std::uint16_t dst_port{0};  ///< UDP only
};

/// Egress staging of one stack process. Outgoing packets are staged as
/// they are produced and emitted together when the burst's FIRST job
/// completes: by then the enclosing job (an rx_batch, a timer tick) has
/// staged the whole burst, so all packets leave at ONE virtual instant —
/// the downstream channel and NIC flush windows see whole bursts instead
/// of ~2-message slivers. Only the first packet of a burst posts the flush
/// job, carrying its own cost; the rest just accumulate theirs, which the
/// flush charges first, in a single accounting job. A burst of N packets
/// thus costs 2 jobs instead of N (1 for N == 1), with the process's busy
/// time unchanged. The flush encodes the UDP header of UDP entries, then
/// hands every entry to `emit` in stage order; `emit` does the owner's
/// routing only.
class TxStage {
 public:
  /// `emit` may capture a bare owner `this`: the stage is its member.
  using Emit = sim::Callback<void(StagedTx&&)>;

  TxStage(sim::Process& proc, Emit emit)
      : proc_(proc), emit_(std::move(emit)) {}

  TxStage(const TxStage&) = delete;
  TxStage& operator=(const TxStage&) = delete;

  /// Stage `tx`, whose construction takes `cost` cycles of the process.
  /// A crashed process stages nothing.
  void add(StagedTx tx, sim::Cycles cost);

  /// Forget the staged burst: its queued flush job died with the process.
  void clear();

 private:
  void flush();

  sim::Process& proc_;
  Emit emit_;
  std::vector<StagedTx> stage_;
  std::vector<StagedTx> spare_;  ///< stage_'s twin while it drains
  sim::Cycles rest_cost_{0};     ///< cost of staged packets after the first
  bool armed_{false};            ///< a flush job is already queued
};

/// The TCP-bearing process of either composition: the TcpEnv its stack
/// runs on, the stack itself, and the egress stage its segments leave
/// through. Timers cost 600 cycles; a segment costs `tx_base` plus its
/// bytes.
class TcpProcess : public sim::Process, public net::TcpEnv {
 public:
  [[nodiscard]] net::TcpStack& stack() { return tcp_stack_; }

  // TcpEnv
  sim::SimTime now() override { return sim().now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               std::function<void()> fn) override;
  void tx(net::PacketPtr segment, net::Ipv4Addr src,
          net::Ipv4Addr dst) override;
  std::uint32_t random_u32() override {
    return static_cast<std::uint32_t>(rng_());
  }
  obs::Hub* obs_hub() override { return &hub_; }
  /// With handshake-deferred tracking filters, a passively established
  /// flow earns its exact-match steering entry now — installed in driver
  /// context, pinned to the replica's queue (where RSS delivered the whole
  /// handshake).
  void on_flow_established(const net::FlowKey& key) override;

 protected:
  /// `rng_salt` splits the stack's RNG off the simulator's; `hub` is the
  /// owning host's (NeatHost::hub()); `emit` routes staged egress.
  TcpProcess(sim::Simulator& sim, std::string name, std::uint64_t rng_salt,
             StackCosts costs, sim::Cycles tx_base, obs::Hub& hub,
             drv::NicDriver& driver, int queue, net::Ipv4Addr ip,
             net::TcpConfig tcp_cfg, TxStage::Emit emit);

  /// TCP state and staged egress die with the process.
  void on_crash() override;

 private:
  sim::Cycles tx_base_;
  sim::Rng rng_;
  obs::Hub& hub_;
  drv::NicDriver& driver_;  // deferred-filter installs go through here
  int queue_;

 protected:
  StackCosts costs_;
  /// Declared after rng_: the stack's constructor draws from it.
  net::TcpStack tcp_stack_;
  TxStage tx_;  // TCP segments (and a single-component replica's UDP)
};

// ---------------------------------------------------------------------------
// Single-component replica
// ---------------------------------------------------------------------------

class SingleComponentReplica final : public TcpProcess, public StackReplica {
 public:
  /// `hub` is the owning host's (NeatHost::hub()).
  SingleComponentReplica(sim::Simulator& sim, int id, int queue,
                         drv::NicDriver& driver, net::MacAddr mac,
                         net::Ipv4Addr ip, StackCosts costs,
                         net::TcpConfig tcp_cfg, obs::Hub& hub);

  // StackReplica
  net::TcpStack& tcp() override { return tcp_stack_; }
  sim::Process& tcp_process() override { return *this; }
  ipc::Channel<net::PacketPtr>& rx_channel() override { return rx_ch_; }
  net::PacketFilter& filter() override { return pf_; }
  net::UdpMux& udp() override { return udp_; }
  std::vector<sim::Process*> processes() override { return {this}; }
  sim::Process* component(Component) override { return this; }
  IpLayer& ip_layer_ref() override { return ip_; }
  void udp_tx(net::PacketPtr payload, std::uint16_t src_port,
              net::SockAddr to) override;
  void reset_after_restart(Component) override;

  [[nodiscard]] IpLayer& ip_layer() { return ip_; }

 protected:
  void on_crash() override;

 private:
  void handle_frame_batch(std::vector<net::PacketPtr>&& frames);
  void handle_ip(const net::Ipv4Header& hdr, net::PacketPtr payload);

  drv::NicDriver::TxPort tx_port_;     // → driver (or NIC, when offloaded)
  ipc::Channel<net::PacketPtr> rx_ch_;  // driver → this
  IpLayer ip_;
  net::UdpMux udp_;
  net::PacketFilter pf_;
  /// handle_frame_batch()'s staging vector, reused across bursts.
  std::vector<net::TcpStack::SegmentArrival> rx_segs_;
};

// ---------------------------------------------------------------------------
// Multi-component replica
// ---------------------------------------------------------------------------

class MultiComponentReplica;

/// The TCP process of a multi-component replica.
class TcpComponent final : public TcpProcess {
 public:
  TcpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
               std::string name, net::Ipv4Addr ip, StackCosts costs,
               net::TcpConfig cfg, obs::Hub& hub, drv::NicDriver& driver);
};

/// The IP process: eth/ARP/IP handling between the driver and transports.
class IpComponent final : public sim::Process {
 public:
  IpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
              std::string name, net::MacAddr mac, net::Ipv4Addr ip,
              StackCosts costs, IpLayer::FrameTx tx_frame);

  [[nodiscard]] IpLayer& layer() { return ip_; }
  [[nodiscard]] ipc::Channel<net::PacketPtr>& rx_channel() { return rx_ch_; }

  /// Transport-originated transmit (runs in IP context via tx channel).
  void ip_send(net::PacketPtr payload, net::IpProto proto, net::Ipv4Addr src,
               net::Ipv4Addr dst) {
    ip_.send(std::move(payload), proto, src, dst);
  }

 protected:
  void on_crash() override;
  void on_restart() override;

 private:
  void handle_frame(net::PacketPtr frame);

  MultiComponentReplica& owner_;
  StackCosts costs_;
  ipc::Channel<net::PacketPtr> rx_ch_;  // driver → this
  IpLayer ip_;
};

/// The UDP process (stateless; trivially recoverable).
class UdpComponent final : public sim::Process {
 public:
  UdpComponent(sim::Simulator& sim, MultiComponentReplica& owner,
               std::string name);
  [[nodiscard]] net::UdpMux& mux() { return mux_; }
  /// Outgoing datagrams, staged in this process and handed to IP.
  [[nodiscard]] TxStage& tx() { return tx_; }

 protected:
  /// Port bindings are soft state: they die with the process, and so do
  /// staged datagrams. The host replays the durable bind registry after
  /// recovery.
  void on_crash() override {
    mux_.clear();
    tx_.clear();
  }

 private:
  net::UdpMux mux_;
  TxStage tx_;
};

/// The packet-filter process (stateless rules, reloaded on restart).
class FilterComponent final : public sim::Process {
 public:
  FilterComponent(sim::Simulator& sim, std::string name);
  [[nodiscard]] net::PacketFilter& filter() { return pf_; }

 protected:
  void on_restart() override { /* rules are config: reloaded by owner */ }

 private:
  net::PacketFilter pf_;
};

/// Assembly of the four processes + the channels between them.
class MultiComponentReplica final : public StackReplica {
 public:
  /// `hub` as for SingleComponentReplica.
  MultiComponentReplica(sim::Simulator& sim, int id, int queue,
                        drv::NicDriver& driver, net::MacAddr mac,
                        net::Ipv4Addr ip, StackCosts costs,
                        net::TcpConfig tcp_cfg, obs::Hub& hub);

  net::TcpStack& tcp() override { return tcp_proc_->stack(); }
  sim::Process& tcp_process() override { return *tcp_proc_; }
  ipc::Channel<net::PacketPtr>& rx_channel() override {
    return ip_proc_->rx_channel();
  }
  net::PacketFilter& filter() override { return pf_proc_->filter(); }
  net::UdpMux& udp() override { return udp_proc_->mux(); }
  std::vector<sim::Process*> processes() override;
  sim::Process* component(Component c) override;
  IpLayer& ip_layer_ref() override { return ip_proc_->layer(); }
  void udp_tx(net::PacketPtr payload, std::uint16_t src_port,
              net::SockAddr to) override;
  void reset_after_restart(Component which) override;

  [[nodiscard]] IpComponent& ip_component() { return *ip_proc_; }
  [[nodiscard]] TcpComponent& tcp_component() { return *tcp_proc_; }

 private:
  friend class TcpComponent;
  friend class IpComponent;
  friend class UdpComponent;

  // Inter-component messages. IP→TCP reuses the stack's burst arrival
  // record so a whole channel batch moves into TcpStack::rx_batch without
  // per-message repacking.
  using IpToTcp = net::TcpStack::SegmentArrival;
  struct TcpToIp {
    net::PacketPtr payload;
    net::Ipv4Addr src;
    net::Ipv4Addr dst;
    net::IpProto proto{net::IpProto::kTcp};
  };

  StackCosts costs_;
  drv::NicDriver::TxPort drv_tx_;
  std::unique_ptr<TcpComponent> tcp_proc_;
  std::unique_ptr<IpComponent> ip_proc_;
  std::unique_ptr<UdpComponent> udp_proc_;
  std::unique_ptr<FilterComponent> pf_proc_;
  std::unique_ptr<ipc::Channel<IpToTcp>> ip_to_tcp_;
  std::unique_ptr<ipc::Channel<TcpToIp>> tcp_to_ip_;
  std::unique_ptr<ipc::Channel<IpToTcp>> ip_to_udp_;
};

}  // namespace neat
