// Experiment harness: assembles the paper's two-machine testbed and runs
// the lighttpd/httperf workloads against either stack.
//
// One machine is the system under test (the AMD Opteron or the Xeon); the
// other generates load. The load-generation machine is deliberately
// over-provisioned (more cores, faster clock, many stack replicas) so that
// — as in the paper — the client is never the bottleneck.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/http.hpp"
#include "apps/http_server.hpp"
#include "baseline/linux.hpp"
#include "ipc/channel.hpp"
#include "neat/host.hpp"
#include "net/packet_pool.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"
#include "socklib/socklib.hpp"
#include "wl/openloop.hpp"

namespace neat::harness {

inline constexpr net::Ipv4Addr kServerIp = net::Ipv4Addr::of(10, 0, 0, 1);
inline constexpr net::Ipv4Addr kClientIp = net::Ipv4Addr::of(10, 0, 0, 2);
inline constexpr std::uint16_t kBasePort = 8000;

/// RAII witness of the "rigs die before their Testbed" contract. Every rig
/// built against a Testbed holds one; the Testbed's destructor asserts (in
/// debug builds) that none are outstanding, turning the comment-only
/// teardown contract into a fail-fast check at the destruction site. The
/// counter lives on the heap behind a shared_ptr so a leaked token never
/// dereferences a dead Testbed even when the assert is compiled out.
class TestbedDependent {
 public:
  TestbedDependent() = default;
  explicit TestbedDependent(std::shared_ptr<std::size_t> count)
      : count_(std::move(count)) {
    if (count_) ++*count_;
  }
  TestbedDependent(TestbedDependent&& o) noexcept
      : count_(std::move(o.count_)) {
    o.count_.reset();
  }
  TestbedDependent& operator=(TestbedDependent&& o) noexcept {
    if (this != &o) {
      release();
      count_ = std::move(o.count_);
      o.count_.reset();
    }
    return *this;
  }
  TestbedDependent(const TestbedDependent&) = delete;
  TestbedDependent& operator=(const TestbedDependent&) = delete;
  ~TestbedDependent() { release(); }

  void release() {
    if (count_) {
      --*count_;
      count_.reset();
    }
  }

 private:
  std::shared_ptr<std::size_t> count_;
};

/// The two machines + NICs + 10G DAC link.
class Testbed {
 public:
  struct Config {
    sim::MachineParams server_machine{sim::amd_opteron_6168()};
    /// Idealized load-generation appliance.
    sim::MachineParams client_machine;
    nic::NicParams server_nic{};
    nic::NicParams client_nic{};
    nic::Link::Params link{};
    std::uint64_t seed{1};

    Config();
  };

  explicit Testbed(Config cfg);
  ~Testbed();

  /// Issue a teardown-order token; rig builders attach one to every rig.
  [[nodiscard]] TestbedDependent depend() {
    return TestbedDependent(dependents_);
  }
  /// Rigs currently alive against this testbed (0 required at destruction).
  [[nodiscard]] std::size_t dependent_count() const { return *dependents_; }

  /// Channel-registry hygiene: the registry is a process-wide static, so a
  /// channel leaked past its simulator would silently poison the next
  /// test's accounting sweep. Captured at construction, checked when the
  /// testbed (and everything pinned to it) is gone — first member, so it
  /// is destroyed after every channel this testbed transitively owns.
  struct RegistryGuard {
    std::size_t baseline{ipc::channel_registry().size()};
    ~RegistryGuard() {
      assert(ipc::channel_registry().size() == baseline &&
             "channel outlived its simulator (dangling registry entry)");
      if (baseline == 0) ipc::channel_registry_reset();
    }
  };
  RegistryGuard registry_guard;

  /// Per-simulator packet-buffer freelist, installed (thread-locally) for
  /// the lifetime of the testbed: every Packet::make inside the simulation
  /// recycles buffers instead of hitting the allocator.
  net::PacketPool pool;
  net::PacketPool::Use pool_use{pool};

  sim::Simulator sim;
  Config cfg;
  sim::Machine& server_machine;
  sim::Machine& client_machine;
  nic::Nic server_nic;
  nic::Nic client_nic;
  nic::Link link;

 private:
  std::shared_ptr<std::size_t> dependents_{std::make_shared<std::size_t>(0)};
};

// ---------------------------------------------------------------------------
// Server rigs
// ---------------------------------------------------------------------------

/// Explicit placement for the NEaT system processes on the server machine.
struct Placement {
  struct Slot {
    int core{0};
    int thread{0};
  };
  Slot os{0, 0};
  Slot syscall{1, 0};
  Slot driver{2, 0};
  /// One entry per replica; single-component uses pins[0], multi-component
  /// uses pins[0]=TCP, pins[1]=IP (UDP/PF colocate with IP).
  std::vector<std::vector<Slot>> replicas;
  std::vector<Slot> webs;
};

/// Figure 6-style placement on the 12-core AMD: OS, SYSCALL, driver on
/// cores 0-2, replicas next, web servers on the remaining cores.
[[nodiscard]] Placement amd_placement(bool multi_component, int replicas,
                                      int webs);

/// Xeon placements. `ht` selects the hyper-threaded layouts of Figures 8
/// and 10 (driver+SYSCALL share a core; replicas and webs use both threads
/// of their cores).
[[nodiscard]] Placement xeon_placement(bool multi_component, int replicas,
                                       int webs, bool ht);

struct ServerRig {
  /// Teardown-order witness (first member: released only after every other
  /// member — hosts, webs, their channels — is gone).
  TestbedDependent testbed_token;
  /// Heap-allocated: servers hold references into the store, which must
  /// stay stable even if the rig itself is moved.
  std::unique_ptr<apps::FileStore> files =
      std::make_unique<apps::FileStore>();
  std::unique_ptr<NeatHost> neat;                   // one of these two
  std::unique_ptr<baseline::LinuxHost> linux_host;  // is set
  std::vector<std::unique_ptr<apps::HttpServer>> webs;

  [[nodiscard]] std::uint64_t total_requests() const {
    std::uint64_t n = 0;
    for (const auto& w : webs) n += w->app_stats().requests;
    return n;
  }
};

struct NeatServerOptions {
  bool multi_component{false};
  int replicas{1};
  int webs{1};
  Placement placement;  // empty -> amd_placement derived automatically
  NeatHost::Config host;
  std::vector<std::pair<std::string, std::size_t>> files{{"/file20", 20}};
  bool tracking_filters{false};  // forwarded to NIC at testbed build time
  /// SYN-flood defense: no tracking filter until the handshake completes
  /// (requires tracking_filters; pair with host.tcp.syn_cookies so no TCB
  /// exists either until then).
  bool defer_syn_filters{false};
  /// Slowloris defense: forwarded to every web server before start().
  sim::SimTime http_first_byte_deadline{0};
  sim::SimTime http_header_deadline{0};
};

[[nodiscard]] ServerRig build_neat_server(Testbed& tb, NeatServerOptions opt);

struct LinuxServerOptions {
  baseline::LinuxTuning tuning{baseline::LinuxTuning::best()};
  baseline::LinuxCosts costs{};
  net::TcpConfig tcp{};
  int webs{1};
  std::vector<std::pair<std::string, std::size_t>> files{{"/file20", 20}};
};

[[nodiscard]] ServerRig build_linux_server(Testbed& tb,
                                           LinuxServerOptions opt);

// ---------------------------------------------------------------------------
// Client rig
// ---------------------------------------------------------------------------

struct ClientOptions {
  int stack_replicas{6};
  int generators{12};
  std::size_t concurrency_per_gen{32};
  int requests_per_conn{100};
  /// Per-generator cap on total connections opened (0 = sustain forever).
  std::uint64_t max_conns{0};
  std::string path{"/file20"};
  StackCosts costs{};
  net::TcpConfig tcp{};
};

struct ClientRig {
  /// Teardown-order witness (first member; see ServerRig).
  TestbedDependent testbed_token;
  std::unique_ptr<NeatHost> host;
  std::vector<std::unique_ptr<wl::OpenLoopClient>> gens;

  /// Reset all measurement windows.
  void mark();

  struct Aggregate {
    double krps{0.0};
    double mbps{0.0};
    double mean_latency_ms{0.0};
    double p50_latency_ms{0.0};
    double p95_latency_ms{0.0};
    double p99_latency_ms{0.0};
    double p999_latency_ms{0.0};
    std::uint64_t requests{0};
    std::uint64_t error_conns{0};
  };
  [[nodiscard]] Aggregate aggregate(sim::SimTime window) const;
};

/// Build the client: generator i targets port kBasePort + (i % num_ports).
[[nodiscard]] ClientRig build_client(Testbed& tb, ClientOptions opt,
                                     int num_ports);

// ---------------------------------------------------------------------------
// Experiment runner
// ---------------------------------------------------------------------------

/// Warm up, open a measurement window, report rates over it.
ClientRig::Aggregate run_window(Testbed& tb, ClientRig& client,
                                sim::SimTime warmup, sim::SimTime measure);

/// Pre-populate both ends' ARP caches (static neighbor entries, as one
/// would configure on a two-machine point-to-point testbed).
void prepopulate_arp(ServerRig& server, ClientRig& client);

}  // namespace neat::harness
