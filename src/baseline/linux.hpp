// The Linux-baseline host: a monolithic, shared-everything network stack.
//
// This models how the paper's comparison system behaves, with the
// mechanisms that matter for scalability *of implementation*:
//   * one shared TCP state machine for the whole machine — protected by
//     locks (accept queue, connection hash, timers) whose cost grows with
//     contention and with cross-core cache-line movement;
//   * syscall-based sockets: every send/recv/accept pays a mode switch and
//     runs kernel code on the calling core;
//   * RX processing in per-core softirq contexts, steered by the NIC's RSS
//     and the configured IRQ affinities;
//   * the tuning knobs of Table 1 (scheduler, TSO, IRQ affinity, RX queue
//     affinity, server pinning, RFS), which change locality/migration
//     behaviour exactly as the paper's breakdown describes.
//
// The same applications (SocketApi) run here and on NEaT.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ipc/channel.hpp"
#include "ipc/doorbell.hpp"
#include "neat/replica.hpp"  // IpLayer
#include "net/tcp.hpp"
#include "nic/nic.hpp"
#include "sim/machine.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "socklib/socket_api.hpp"

namespace neat::baseline {

/// Table 1 knobs.
struct LinuxTuning {
  bool deadline_sched{false};  ///< "sched": deadline scheduler policy
  bool tso{false};             ///< "eth": auto-negotiation off + TSO on
  bool irq_affinity{false};    ///< "irqAff": spread IRQs across cores
  bool rx_affinity{false};     ///< "rxAff": pin receive queues explicitly
  bool pin_servers{false};     ///< "serv": pin server processes to cores
  bool rfs{false};             ///< receive flow steering (no benefit, §6.1)

  [[nodiscard]] static LinuxTuning defaults() { return {}; }
  [[nodiscard]] static LinuxTuning best() {
    return {true, true, true, true, true, false};
  }
};

struct LinuxCosts {
  // Kernel path costs (cycles).
  sim::Cycles softirq_rx{2100};      ///< NIC irq + driver + IP + TCP receive
  sim::Cycles kernel_tx{1600};       ///< TCP/IP output + driver, caller core
  sim::Cycles syscall_mode{600};     ///< user<->kernel mode switch pair
  sim::Cycles sys_read{700};
  sim::Cycles sys_write{900};
  sim::Cycles sys_accept{2000};
  sim::Cycles sys_connect{8000};
  sim::Cycles sys_close{2400};
  sim::Cycles epoll_wake{1000};      ///< waking a blocked server process
  sim::Cycles per_16_bytes{6};

  // Shared-state costs.
  sim::Cycles lock_uncontended{60};
  sim::Cycles cacheline_transfer{280};  ///< lock/data bouncing between cores
  int shared_lines_per_packet{4};       ///< contended lines touched per pkt
  sim::Cycles migration{18000};         ///< scheduler migration of a process
  double migration_rate_hz{120.0};      ///< per unpinned process
  sim::Cycles locality_miss{800};  ///< per request when rx core != app core
  /// Per-request cost of an unpinned server: every migration rebuilds the
  /// cache/TLB working set and the socket structures keep chasing the
  /// process around (the paper's "serv" knob is worth ~20%).
  sim::Cycles unpinned_penalty{24000};
  /// Manually pinned RX queues *without* server pinning make it worse —
  /// the paper observed this regression directly (§6.1).
  sim::Cycles rxaff_mismatch{1800};
  /// Quadratic shared-state contention: cycles per request charged as
  /// quad * (cores-1)^2 — the "non-scalable locks" collapse that makes the
  /// same kernel relatively slower on the 12-core AMD than the 8-core Xeon.
  sim::Cycles contention_quad{373};
  sim::Cycles no_tso_per_mtu{600};      ///< extra per-MTU cost when TSO off
  sim::Cycles sched_noise{350};         ///< per request, non-deadline sched
};

/// A contended kernel lock: callers are charged queueing delay + cache-line
/// transfer when the previous holder ran on a different core.
class KernelLock {
 public:
  /// Returns extra cycles to charge for this acquisition.
  sim::Cycles acquire(sim::SimTime now, int core, sim::Cycles hold,
                      sim::Frequency freq, const LinuxCosts& costs);

  [[nodiscard]] std::uint64_t acquisitions() const { return acquisitions_; }
  [[nodiscard]] std::uint64_t contended() const { return contended_; }

 private:
  sim::SimTime busy_until_{0};
  int last_core_{-1};
  std::uint64_t acquisitions_{0};
  std::uint64_t contended_{0};
};

class LinuxHost;

/// Per-core softirq context (ksoftirqd / NET_RX).
class SoftirqProcess final : public sim::Process {
 public:
  SoftirqProcess(sim::Simulator& sim, LinuxHost& host, int index);

  void kick(int queue);

 private:
  void drain_one(int queue);

  LinuxHost& host_;
  std::vector<std::uint8_t> draining_;
};

class LinuxSockets;

class LinuxHost : public net::TcpEnv {
 public:
  struct Config {
    LinuxTuning tuning{};
    LinuxCosts costs{};
    net::TcpConfig tcp{};
  };

  LinuxHost(sim::Simulator& sim, sim::Machine& machine, nic::Nic& nic,
            Config config);
  ~LinuxHost();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Machine& machine() { return machine_; }
  [[nodiscard]] nic::Nic& nic() { return nic_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] net::TcpStack& tcp() { return tcp_; }
  [[nodiscard]] net::Ipv4Addr ip() const { return nic_.ip(); }
  [[nodiscard]] IpLayer& ip_layer() { return ip_; }

  /// Register an application process (a lighttpd). Returns its index.
  /// When tuning.pin_servers is false the process is subject to scheduler
  /// migrations across the machine's threads.
  int register_app(sim::Process& app, sim::HwThread& initial);

  // TcpEnv (the shared kernel stack's environment).
  sim::SimTime now() override { return sim_.now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               std::function<void()> fn) override;
  void tx(net::PacketPtr segment, net::Ipv4Addr src,
          net::Ipv4Addr dst) override;
  std::uint32_t random_u32() override {
    return static_cast<std::uint32_t>(rng_());
  }
  obs::Hub* obs_hub() override { return &sim_.obs(); }

  /// Charge shared-state costs for one kernel operation on `core`:
  /// uncontended lock cost + contention + cache-line transfers.
  [[nodiscard]] sim::Cycles shared_state_cost(int core, int lines);

  /// The kernel context currently executing stack code (for attributing
  /// TX work spawned inside TCP processing).
  void set_current(sim::Process* p) { current_ = p; }
  [[nodiscard]] sim::Process* current() const { return current_; }

  [[nodiscard]] KernelLock& accept_lock() { return accept_lock_; }
  [[nodiscard]] KernelLock& conn_lock() { return conn_lock_; }

  /// Per-request locality penalty (rx softirq core != app core), depends
  /// on tuning.
  [[nodiscard]] sim::Cycles locality_penalty() const;

  /// Cost of a syscall of base cost `base` touching `lines` shared lines.
  [[nodiscard]] sim::Cycles syscall_cost(sim::Cycles base, int core,
                                         int lines);

 private:
  friend class SoftirqProcess;
  friend class LinuxSockets;

  void handle_frame_in_softirq(SoftirqProcess& ctx, net::PacketPtr frame);
  void migration_tick();

  sim::Simulator& sim_;
  sim::Machine& machine_;
  nic::Nic& nic_;
  Config config_;
  sim::Rng rng_;
  IpLayer ip_;
  net::TcpStack tcp_;
  std::vector<std::unique_ptr<SoftirqProcess>> softirqs_;
  std::vector<int> queue_to_softirq_;
  KernelLock accept_lock_;
  KernelLock conn_lock_;
  KernelLock timer_lock_;
  sim::Process* current_{nullptr};

  struct AppEntry {
    sim::Process* proc;
  };
  std::vector<AppEntry> apps_;
  sim::EventHandle migration_timer_;
};

/// SocketApi implementation over the shared kernel stack.
class LinuxSockets final : public socklib::SocketApi {
 public:
  LinuxSockets(sim::Process& app, LinuxHost& host, int app_core_hint);

  socklib::Fd listen(std::uint16_t port, std::size_t backlog,
                     std::function<void()> on_acceptable) override;
  socklib::Fd accept(socklib::Fd listen_fd,
                     const socklib::ConnCallbacks* cb) override;
  socklib::Fd connect(net::SockAddr remote,
                      const socklib::ConnCallbacks* cb) override;
  std::size_t send(socklib::Fd fd,
                   std::span<const std::uint8_t> data) override;
  std::size_t recv(socklib::Fd fd, std::span<std::uint8_t> dst) override;
  [[nodiscard]] std::size_t readable(socklib::Fd fd) const override;
  [[nodiscard]] bool eof(socklib::Fd fd) const override;
  void close(socklib::Fd fd) override;

 private:
  struct LinuxSocket;

  [[nodiscard]] int core() const;
  void charge(sim::Cycles base, int lines);
  socklib::Fd wire(net::TcpSocketPtr tcp, const socklib::ConnCallbacks* cb,
                   bool notify_connect);

  sim::Process& app_;
  LinuxHost& host_;
  socklib::Fd next_fd_{3};
  struct ListenEntry {
    std::uint16_t port;
    std::shared_ptr<ipc::BoundDoorbell> bell;
  };
  std::unordered_map<socklib::Fd, ListenEntry> listeners_;
  std::unordered_map<socklib::Fd, std::shared_ptr<LinuxSocket>> conns_;
};

}  // namespace neat::baseline
