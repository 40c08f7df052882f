// The NIC driver process.
//
// One single-threaded, isolated process per NIC (paper §3.5: the driver is
// the one data-plane component NEaT does not replicate — a single core
// handles 10G line rate). It moves packets between the NIC queues and the
// per-replica channels, fans ARP out to every replica, executes control-
// plane requests (filters, indirection), and implements the recovery
// protocol: after a replica crash it drops that queue's packets until the
// restarted replica announces itself (§3.6).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ipc/channel.hpp"
#include "ipc/doorbell.hpp"
#include "neat/costs.hpp"
#include "net/packet.hpp"
#include "nic/nic.hpp"
#include "sim/process.hpp"

namespace neat::drv {

struct DriverStats {
  std::uint64_t rx_forwarded{0};
  std::uint64_t rx_dropped_inactive{0};
  std::uint64_t rx_dropped_channel_full{0};
  std::uint64_t tx_sent{0};
  std::uint64_t control_ops{0};
  std::uint64_t restarts{0};  ///< crash-recovery cycles this driver survived
};

class NicDriver : public sim::Process {
 public:
  NicDriver(sim::Simulator& sim, nic::Nic& nic, StackCosts costs,
            std::string name = "nicdrv");

  [[nodiscard]] nic::Nic& nic() { return nic_; }
  [[nodiscard]] const DriverStats& driver_stats() const { return dstats_; }

  /// A replica announces itself as the endpoint for `queue`. The channel
  /// must deliver into the replica's first RX component. Re-announcing
  /// after a restart reactivates delivery.
  void announce_endpoint(int queue, ipc::Channel<net::PacketPtr>* ch);

  /// Recovery manager marks a crashed replica's queue inactive; the driver
  /// then drops (rather than queues) its packets until re-announce.
  void deactivate_endpoint(int queue);

  [[nodiscard]] bool endpoint_active(int queue) const;

  /// A transmit port for one replica. Normally it wraps a 1024-deep TX
  /// channel into the driver process; in hardware-offload mode it feeds
  /// the NIC directly (§4: "if the programmable NIC were to offer the same
  /// interface as the network driver, there would be no need for the
  /// drivers and we could free their cores").
  using TxPort = std::function<void(net::PacketPtr)>;
  TxPort make_tx_port();

  /// §4 future-work mode: the NIC itself runs the driver's data plane.
  /// RX packets go straight from hardware classification into the
  /// replicas' channels and TX frames go straight out — no driver-process
  /// cycles; the driver remains only as the (idle) control plane and its
  /// core is free for an application.
  void set_hardware_offload(bool on) { hardware_offload_ = on; }

  /// Asynchronous control-plane op executed in driver context (install
  /// filters, reprogram indirection, ...). Models the PCI config mailbox.
  void control(std::function<void()> op);

 protected:
  void on_restart() override;

  /// Max frames drained per driver job. Matches ipc::Channel's batch
  /// budget: one doorbell moves up to a burst, bounding per-job latency.
  static constexpr std::size_t kRxBurst = 32;

 private:
  void rx_kick(int queue);
  void drain_burst(int queue, std::size_t budget);

  nic::Nic& nic_;
  StackCosts costs_;
  DriverStats dstats_;
  obs::Histogram* rx_batch_size_{nullptr};

  struct Endpoint {
    ipc::Channel<net::PacketPtr>* channel{nullptr};
    bool active{false};
  };
  std::vector<Endpoint> endpoints_;
  std::vector<std::uint8_t> draining_;  // not vector<bool>: need lvalue refs
  bool hardware_offload_{false};
};

}  // namespace neat::drv
