// Per-layer ledger read from outside the program.
//
// Two halves:
//   * layer_counts() reads the public counters every layer already keeps
//     (ProcStats, NicStats, TcpStats, ChannelStats via the channel registry,
//     PacketPool stats and the obs histograms) and turns them into per-packet
//     and per-request ratios. Deterministic for a seed.
//   * replay_layers() times isolated calls into each layer's public entry
//     point on frames captured from the simulated wire: nic::Nic::receive,
//     IpLayer::rx_frame, the Ethernet/IPv4/TCP decoders (TCP decode verifies
//     the transport checksum), the HTTP parsers, a back-to-back TcpStack
//     pair, an ipc::Channel, and the maglev table. Each value is the cost of
//     one call, not a slice of the workload's wall clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "neat/host.hpp"
#include "net/packet_pool.hpp"
#include "nic/nic.hpp"
#include "obs/obs.hpp"
#include "record.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace neat::perfbench {

/// The system under test as the counter sweep sees it.
struct LayerInputs {
  sim::Simulator* sim{nullptr};
  /// Every hub the simulation records into (the simulator's own plus any
  /// per-host hubs); histograms and counters are merged across them.
  std::vector<const obs::Hub*> hubs;
  std::vector<const nic::Nic*> server_nics;
  std::vector<NeatHost*> server_hosts;
  /// The serving application processes (web servers or ping servers).
  std::vector<const sim::Process*> apps;
  bool apps_are_fleet{false};
  const net::PacketPool* pool{nullptr};
  /// Requests the server applications handled over the whole run.
  double requests{0.0};
  std::uint64_t frames{0};
};

/// Append the counter-derived ledger to r.counts and the channel-identity
/// and pool-accounting checks to r.checks.
void layer_counts(const LayerInputs& in, Result& r);

/// Connection shape for the back-to-back TcpStack replay.
struct TcpShape {
  int requests_per_conn{1};
  std::size_t request_bytes{0};
  std::size_t response_bytes{0};
  bool tso{true};
  std::size_t buf_bytes{98304};
};

/// What the replays impersonate: the server-side NIC and IP endpoint, the
/// workload's connection shape and IPC burst size, and (fleet only) the
/// steering tier's maglev table.
struct ReplayTarget {
  nic::NicParams nic_params;
  net::MacAddr mac;
  net::Ipv4Addr ip;
  std::vector<int> queues;
  TcpShape tcp;
  double ipc_batch{1.0};
  bool http{false};
  std::uint16_t http_base_port{0};
  int http_ports{0};
  int maglev_backends{0};
  std::size_t maglev_table_size{0};
};

/// Append the capture sizes and the host_ns_* ledger to r.host, and the
/// replay checks to r.checks.
void replay_layers(const Capture& cap, const ReplayTarget& t, Result& r);

}  // namespace neat::perfbench
