// FleetCluster: a multi-host NEaT deployment in one simulation.
//
// The paper partitions one machine's stack into independently-restartable
// replicas behind the NIC's RSS/filter steering; the fleet layer applies
// the same design recursively one level up: a set of whole NeatHosts
// behind a maglev steering tier. The correspondences are deliberate —
//
//     replica            : host
//     NIC RSS + filters  : maglev table + tier conntrack
//     supervisor watchdog: tier ICMP health prober
//     replica migration  : cross-host drain (extract / adopt via the tier)
//
// The cluster owns the simulator, the tier, N backend hosts (all serving
// the VIP), optional standby hosts (wired but not in the table), and M
// client hosts. Every host gets its own obs::Hub so per-host metrics stay
// separable; fleet/obs_merge.hpp folds them into fleet percentiles. Trace
// events from every host go to the simulator's one tracer.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fleet/steering.hpp"
#include "ipc/channel.hpp"
#include "neat/host.hpp"
#include "net/packet_pool.hpp"
#include "nic/nic.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"
#include "sim/simulator.hpp"

namespace neat::fleet {

/// Client host j's address (each client machine has one IP, many ports).
[[nodiscard]] inline net::Ipv4Addr client_ip(int j) {
  return net::Ipv4Addr::of(10, 0, 1, static_cast<std::uint8_t>(1 + j));
}

struct FleetConfig {
  std::uint64_t seed{1};
  /// Backend hosts entered into the steering table at construction.
  int backends{4};
  /// Extra backend hosts built and wired but NOT in the table: warm
  /// spares the fleet autoscaler (or a test) activates via add_backend.
  int standbys{0};
  int clients{2};
  int replicas_per_backend{2};
  int replicas_per_client{2};

  SteeringConfig steering{};
  StackCosts costs{};
  net::TcpConfig backend_tcp{};
  net::TcpConfig client_tcp{};
  nic::Link::Params link{};
  /// Headroom for per-host scale-up: replicas the machine has spare cores
  /// (and the NIC has queues) for beyond replicas_per_backend.
  int spare_replicas_per_backend{0};
};

/// One machine of the fleet (backend, standby, or client) and everything
/// bolted to it. `link` connects `nic` to its dedicated tier port.
struct FleetHost {
  int id{0};
  bool is_client{false};
  std::unique_ptr<obs::Hub> hub;
  sim::Machine* machine{nullptr};  // owned by the simulator
  std::unique_ptr<nic::Nic> nic;
  std::unique_ptr<NeatHost> host;
  std::unique_ptr<nic::Link> link;
  /// MAC of the tier port this host faces (its one static ARP neighbor).
  net::MacAddr tier_port_mac;

  /// The hardware thread reserved for this machine's application process
  /// (the machine's last core; everything before it is OS/stack).
  [[nodiscard]] sim::HwThread& app_thread() const {
    return machine->thread(machine->cores() - 1);
  }
};

class FleetCluster {
 public:
  explicit FleetCluster(FleetConfig cfg);
  ~FleetCluster();

  FleetCluster(const FleetCluster&) = delete;
  FleetCluster& operator=(const FleetCluster&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim; }
  [[nodiscard]] SteeringTier& steering() { return *tier_; }
  [[nodiscard]] const FleetConfig& config() const { return cfg; }

  /// Backends index 0..backends+standbys-1 (standbys last); id == index.
  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] FleetHost& backend(std::size_t i) { return *backends_[i]; }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] FleetHost& client(std::size_t j) { return *clients_[j]; }

  /// Per-host hubs of the in-table backends (for fleet merges).
  [[nodiscard]] std::vector<const obs::Hub*> backend_hubs() const;

  /// Spare-pin sets for a backend's per-host AutoScaler (the cores kept in
  /// reserve by spare_replicas_per_backend).
  [[nodiscard]] std::vector<std::vector<sim::HwThread*>> spare_pins(
      std::size_t i) const;

  /// Power backend `i` off, permanently. Nothing else happens here: the
  /// tier's health prober must detect the silence and remove the backend,
  /// exactly as the per-host supervisor detects a dead replica.
  void crash_host(std::size_t i) { backends_[i]->host->power_off(); }

  /// Enter a standby (or previously drained) backend into the table.
  void activate_backend(std::size_t i) {
    tier_->add_backend(backends_[i]->id);
  }

  /// Switch the simulation's tracer on and record the membership the
  /// constructor built before any caller could: every host's scale_up
  /// events and the tier's backend_add events, in construction order.
  void enable_trace();

  /// Start the tier's health prober; a detected-dead backend is pulled
  /// from the table (purging its flows) and then reported via `on_down`.
  void start_health_probing(std::function<void(int id)> on_down = {});

  /// Apps on the receiving side of a cross-host drain: called (in driver
  /// control context of the target host) with each target replica's
  /// freshly adopted sockets, so the application wraps them in fds —
  /// SockLib::adopt_socket is the intended implementation.
  using AdoptionHandler = std::function<void(
      FleetHost& to, StackReplica& replica,
      const std::vector<net::TcpSocketPtr>& adopted)>;
  void set_adoption_handler(AdoptionHandler h) {
    on_adopted_ = std::move(h);
  }

  /// Cross-host live drain: move every established connection from
  /// backend `from` to backend `to`. Fleet-level mirror of
  /// NeatHost::migrate_connections —
  ///   1. collect the source host's flows, open a capture window for them
  ///      on the tier's client ports, and pull `from` out of the table
  ///      (no new SYNs; captured frames wait);
  ///   2. let in-flight frames settle into the still-live source stack;
  ///   3. per source replica: freeze + extract in its TCP context;
  ///   4. split each checkpoint by the TARGET NIC's RSS verdict and adopt
  ///      each piece in the matching target replica's TCP context (so
  ///      subsequent frames steer to the adopting replica with zero
  ///      filter programming; exact filters are installed only when the
  ///      target NIC runs tracking filters);
  ///   5. when everything is adopted: notify the source host's socket
  ///      libraries (kMigratedAway husks), repoint the tier conntrack to
  ///      `to`, close the capture window (replays buffered frames).
  /// `on_done` fires with the number of connections moved.
  void drain_host(std::size_t from, std::size_t to,
                  sim::SmallFnOf<void(std::size_t)> on_done = {});

  /// Total established connections currently on backend `i`.
  [[nodiscard]] std::size_t backend_connections(std::size_t i);

  // --- members (construction order matters; see harness::Testbed) ---------
  /// Channel-registry hygiene: first member, destroyed last, after every
  /// channel the cluster transitively owns.
  struct RegistryGuard {
    std::size_t baseline{ipc::channel_registry().size()};
    ~RegistryGuard() {
      assert(ipc::channel_registry().size() == baseline &&
             "channel outlived its simulator (dangling registry entry)");
      if (baseline == 0) ipc::channel_registry_reset();
    }
  };
  RegistryGuard registry_guard;

  net::PacketPool pool;
  net::PacketPool::Use pool_use{pool};

  FleetConfig cfg;
  sim::Simulator sim;

 private:
  struct DrainState;

  std::unique_ptr<FleetHost> build_host(int id, bool is_client);
  void extract_and_ship(const std::shared_ptr<DrainState>& st,
                        StackReplica& rep, std::size_t flow_count);
  void maybe_finish_drain(const std::shared_ptr<DrainState>& st);

  std::unique_ptr<SteeringTier> tier_;
  std::vector<std::unique_ptr<FleetHost>> backends_;
  std::vector<std::unique_ptr<FleetHost>> clients_;
  AdoptionHandler on_adopted_;
  bool draining_{false};
};

}  // namespace neat::fleet
