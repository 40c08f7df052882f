// NeatHost: one machine running the NEaT stack.
//
// Owns the NIC driver, the SYSCALL server, the OS process, and the set of
// stack replicas; implements the control-plane behaviours of the paper:
//   * replica-aware NIC steering (active-queue indirection),
//   * the listen registry that replicates listening sockets onto every
//     replica (and replays them after restarts / onto new replicas),
//   * scale up (spawn replica) and scale down (lazy termination, §3.4),
//   * stateless failure recovery (§3.6): crash detection, restart after a
//     short delay, driver re-announce, listener replay, and app
//     notification when TCP state was lost.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "drv/driver.hpp"
#include "neat/costs.hpp"
#include "neat/replica.hpp"
#include "neat/supervisor.hpp"
#include "nic/nic.hpp"
#include "sim/machine.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace neat {

/// The SYSCALL server: a dedicated process through which the (rare)
/// blocking/control system calls are routed (§3.1). The data path bypasses
/// it entirely.
class SyscallServer : public sim::Process {
 public:
  SyscallServer(sim::Simulator& sim, StackCosts costs);

  /// Submit a system call; `op` runs in server context after the channel
  /// hop and the server-side handling cost. Move-only sim::SmallFn: syscall
  /// closures never need copying.
  void submit(sim::SmallFn op) { ch_.send(std::move(op)); }

 private:
  ipc::Channel<sim::SmallFn> ch_;
};

/// Apps (their socket libraries) implement this to learn about replica
/// failures that lost TCP state. `restored` carries the connections a
/// checkpoint brought back (empty under the default stateless recovery):
/// the library re-attaches those and fails the rest.
class ReplicaFailureListener {
 public:
  virtual ~ReplicaFailureListener() = default;
  virtual void on_replica_tcp_recovery(
      StackReplica& replica,
      const std::vector<net::TcpSocketPtr>& restored) = 0;
  /// Established connections moved live from one replica to another
  /// (immediate scale-down drain). `adopted` are the target-side socket
  /// objects; libraries re-home the fd-attached sockets by flow match.
  virtual void on_connections_migrated(
      StackReplica& from, StackReplica& to,
      const std::vector<net::TcpSocketPtr>& adopted) = 0;
  /// Established connections left this HOST entirely (cross-host drain in
  /// the fleet layer): there is no local target replica, the listed flows
  /// now live on another machine. Libraries deliver kMigratedAway upward
  /// so applications drop the dead fds.
  virtual void on_connections_departed(
      StackReplica& from, const std::vector<net::FlowKey>& flows) = 0;
};

/// One durable listen() record; replayed onto replicas after restart and
/// onto newly spawned replicas (subsocket replication, §3.3).
struct ListenRecord {
  std::uint16_t port{0};
  std::size_t backlog{128};
  /// Wires the freshly created per-replica listener (installs the
  /// accept-ready doorbell towards the owning application).
  std::function<void(StackReplica&, net::TcpListener&)> wire;
};

/// One durable UDP bind; like ListenRecord, replayed onto every serving
/// replica (UDP is stateless, so any replica can process any datagram) and
/// re-replayed after a restart wipes a replica's port mux.
struct UdpBindRecord {
  std::uint16_t port{0};
  /// Installs the binding on one replica's mux (runs in that replica's
  /// UDP-bearing process context).
  std::function<void(StackReplica&, net::UdpMux&)> wire;
};

/// A recovery event, for the fault-injection experiments (Table 3) and the
/// chaos campaigns. The crash itself fills the first block; the supervisor
/// annotates detection/recovery as it observes and handles the failure.
struct RecoveryEvent {
  sim::SimTime at{0};  ///< when the component actually died
  int replica_id{-1};
  std::string component;
  bool tcp_state_lost{false};
  std::size_t connections_lost{0};
  std::size_t connections_restored{0};  ///< via checkpoint, if enabled

  // Supervision annotations.
  sim::SimTime detected_at{0};   ///< watchdog declared the component dead
  sim::SimTime recovered_at{0};  ///< restart (or terminal action) completed
  /// First request served by the restarted replica (0 until observed) —
  /// the app-visible end of the outage window.
  sim::SimTime first_service_at{0};
  int backoff_level{0};          ///< exponential-backoff level applied
  /// "restart" | "quarantine" | "replace" | "gc" (collected while draining).
  std::string action{"restart"};

  [[nodiscard]] sim::SimTime detection_latency() const {
    return detected_at > at ? detected_at - at : 0;
  }
  [[nodiscard]] sim::SimTime recovery_latency() const {
    return recovered_at > at ? recovered_at - at : 0;
  }
  [[nodiscard]] sim::SimTime first_service_latency() const {
    return first_service_at > at ? first_service_at - at : 0;
  }
};

class NeatHost {
 public:
  struct Config {
    enum class Kind { kSingle, kMulti };
    Kind kind{Kind::kSingle};
    /// Names the host in its power_off trace event (the fleet numbers its
    /// backends and clients by it).
    int host_id{0};
    StackCosts costs{};
    net::TcpConfig tcp{};

    /// §4 future-work mode: a programmable NIC runs the driver's data
    /// plane; the driver process carries control traffic only and its
    /// core is free for applications.
    bool smartnic_offload{false};

    /// Stateful recovery (§6.6 discussion): periodically checkpoint each
    /// replica's TCP state into a host-side store and restore it after a
    /// TCP crash. 0 disables checkpointing (the paper's default stateless
    /// strategy). Non-zero intervals buy connection survival at a
    /// per-interval CPU cost on every replica.
    sim::SimTime checkpoint_interval{0};

    /// Per-host observability hub. When set, everything this host records —
    /// replica TCP metrics, NIC steering counters, recovery latencies —
    /// lands on this hub instead of the simulator-global one, giving each
    /// host of a fleet its own metric namespace (the fleet layer merges
    /// them for fleet percentiles). nullptr keeps the single-host
    /// behaviour: everything on sim.obs().
    obs::Hub* hub{nullptr};
  };

  NeatHost(sim::Simulator& sim, sim::Machine& machine, nic::Nic& nic,
           Config config);
  ~NeatHost();

  NeatHost(const NeatHost&) = delete;
  NeatHost& operator=(const NeatHost&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Machine& machine() { return machine_; }
  [[nodiscard]] nic::Nic& nic() { return nic_; }
  [[nodiscard]] drv::NicDriver& driver() { return *driver_; }
  [[nodiscard]] SyscallServer& syscall() { return *syscall_; }
  [[nodiscard]] sim::Process& os_process() { return *os_proc_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const StackCosts& costs() const { return config_.costs; }
  [[nodiscard]] net::Ipv4Addr ip() const { return nic_.ip(); }

  /// This host's obs hub (the per-host override, or the simulator-global
  /// hub when none was configured).
  [[nodiscard]] obs::Hub& hub() {
    return config_.hub != nullptr ? *config_.hub : sim_.obs();
  }
  [[nodiscard]] obs::Registry& metrics() { return hub().metrics; }

  /// Spawn a replica; `pins` are the hardware threads for its processes —
  /// single-component: [stack]; multi-component: [tcp, ip] (UDP and PF are
  /// colocated on the IP thread, where they idle unless exercised).
  StackReplica& add_replica(const std::vector<sim::HwThread*>& pins);

  /// Emit the scale_up event of every current replica, as add_replica()
  /// does, as trace set-up: for a tracer enabled after the host was built.
  void trace_replicas();

  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] StackReplica& replica(std::size_t i) { return *replicas_[i]; }

  /// Replicas currently eligible for new connections.
  [[nodiscard]] std::vector<StackReplica*> active_replicas();
  /// Replicas still serving (includes terminating, excludes terminated).
  [[nodiscard]] std::vector<StackReplica*> serving_replicas();

  /// Random active replica (connection placement; also the security
  /// re-randomization property of §3.8).
  StackReplica* pick_replica();

  // --- listen registry -------------------------------------------------------
  void record_listen(ListenRecord rec);
  void remove_listen(std::uint16_t port);
  void replay_listens(StackReplica& replica);

  // --- UDP bind registry -----------------------------------------------------
  /// Record a durable UDP bind and install it on every serving replica.
  void record_udp_bind(UdpBindRecord rec);
  void remove_udp_bind(std::uint16_t port);
  void replay_udp_binds(StackReplica& replica);
  [[nodiscard]] std::size_t udp_bind_count() const {
    return udp_bind_registry_.size();
  }

  // --- scaling (§3.4) --------------------------------------------------------
  /// Mark a replica for lazy termination: new connections avoid it; it is
  /// garbage-collected when its connection count reaches zero.
  void begin_scale_down(StackReplica& replica);

  /// Live connection migration: move every ESTABLISHED connection from
  /// `from` to `to` while both replicas are up, so a scale-down drains
  /// immediately instead of waiting for clients to hang up. Sequence:
  /// open a NIC capture window for the moving flows, freeze+extract in
  /// the source's TCP context, ship the image, adopt in the target's TCP
  /// context, repoint the exact-match filters to the target's queue, then
  /// close the window and replay the frames it buffered. `on_done` (if
  /// set) fires with the number of connections moved; the blackout
  /// (capture open -> replay) lands in the "neat.migration_blackout_ns"
  /// histogram. Requires tracking filters (the repoint is the mechanism).
  void migrate_connections(StackReplica& from, StackReplica& to,
                           std::function<void(std::size_t)> on_done = {});

  // --- reliability (§3.6) ----------------------------------------------------
  /// Crash one component of a replica. The crash is all this does: the
  /// supervisor's watchdog must *detect* it and schedule the recovery —
  /// there is no oracle restart path.
  void inject_crash(StackReplica& replica, Component component);
  /// Crash the NIC driver; detection/restart via the supervisor (§3.5).
  void inject_driver_crash();

  /// Power the whole host off, permanently: supervision stops (nothing is
  /// ever restarted), every process — replicas, driver, SYSCALL server,
  /// OS — crashes, and the GC timer is cancelled. From the wire the host
  /// simply goes silent; the fleet's health prober must *detect* that,
  /// exactly as the per-host supervisor detects a replica crash. There is
  /// no power_on: a crashed fleet host is replaced, not revived.
  void power_off();
  [[nodiscard]] bool powered_off() const { return powered_off_; }

  [[nodiscard]] Supervisor& supervisor() { return *supervisor_; }

  // --- recovery mechanics (invoked by the Supervisor) ------------------------
  /// Restart a crashed component: fresh process image, state reset,
  /// checkpoint restore (if enabled), app notification, listener replay,
  /// driver re-announce. Returns the number of connections a checkpoint
  /// restored (0 under stateless recovery).
  std::size_t recover_replica(StackReplica& replica, Component component);
  /// Restart the crashed driver and re-program steering.
  void recover_driver();
  /// Give up on a crash-looping replica: processes stay down, steering
  /// drops it for good, apps learn their sockets are gone.
  void quarantine_replica(StackReplica& replica);
  /// Spawn a fresh replica on the same hardware threads as `failed`
  /// (quarantine replacement). Returns nullptr when out of NIC queues.
  StackReplica* spawn_replacement(StackReplica& failed);
  /// Collect a replica that crashed while draining under lazy termination:
  /// it has nothing left to serve, so it goes straight to terminated.
  void collect_replica(StackReplica& replica);

  /// Find the crash event for (replica_id, component) that has not been
  /// detected yet, stamp its detected_at, and return its index; appends a
  /// fresh event when the crash was not injected through the log (defensive
  /// — every current crash path logs). Indices stay valid: the log is
  /// append-only.
  std::size_t note_detection(int replica_id, const std::string& component,
                             sim::SimTime detected_at);
  [[nodiscard]] RecoveryEvent& event(std::size_t idx) {
    return recovery_log_[idx];
  }

  /// Arm the crash-to-first-service measurement: the next successful
  /// accept() on `replica_id` stamps `first_service_at` on event `idx`.
  void await_first_service(int replica_id, std::size_t event_idx);
  /// Called by the socket library on every successful accept; records the
  /// end of the app-visible outage when the replica was being watched.
  void note_first_service(StackReplica& replica);

  [[nodiscard]] const std::vector<RecoveryEvent>& recovery_log() const {
    return recovery_log_;
  }

  /// Ports with durable listen() records (invariant audits).
  [[nodiscard]] std::vector<std::uint16_t> listen_ports() const;

  void add_failure_listener(ReplicaFailureListener* l) {
    listeners_.push_back(l);
  }
  void remove_failure_listener(ReplicaFailureListener* l) {
    std::erase(listeners_, l);
  }

  /// Fleet layer: tell the socket libraries on this host that `flows` were
  /// extracted from `from` and now live on another machine (cross-host
  /// drain). Fans out to on_connections_departed on every listener.
  void notify_connections_departed(StackReplica& from,
                                   const std::vector<net::FlowKey>& flows) {
    for (auto* l : listeners_) l->on_connections_departed(from, flows);
  }

  /// Re-program the NIC indirection to the current active-replica set.
  void update_steering();

 private:
  /// Permanently stop delivery to `queue` (quarantine / collection):
  /// deactivate the driver endpoint and purge its stale tracking filters.
  void retire_queue(int queue);
  void gc_tick();
  void checkpoint_tick(int replica_id);
  [[nodiscard]] obs::TraceEvent scale_up_event(const StackReplica& rep) const;

  sim::Simulator& sim_;
  sim::Machine& machine_;
  nic::Nic& nic_;
  Config config_;
  std::unique_ptr<drv::NicDriver> driver_;
  std::unique_ptr<SyscallServer> syscall_;
  std::unique_ptr<sim::Process> os_proc_;
  std::unique_ptr<Supervisor> supervisor_;
  std::vector<std::unique_ptr<StackReplica>> replicas_;
  /// Hardware threads each replica was pinned to (replacement spawning).
  std::vector<std::vector<sim::HwThread*>> replica_pins_;
  std::vector<ListenRecord> listen_registry_;
  std::vector<UdpBindRecord> udp_bind_registry_;
  std::vector<ReplicaFailureListener*> listeners_;
  std::vector<RecoveryEvent> recovery_log_;
  /// replica id -> recovery-log index awaiting its first post-restart accept.
  std::unordered_map<int, std::size_t> awaiting_first_service_;
  /// The "independent data store" checkpoints survive crashes in.
  std::vector<net::TcpCheckpoint> checkpoints_;
  sim::Rng rng_;
  sim::EventHandle gc_timer_;
  bool powered_off_{false};
};

}  // namespace neat
