// CPU cost model: cycles charged by each component per unit of work.
//
// The simulator executes real protocol code but virtual time; these
// constants are what turn packet flows into CPU load. They were calibrated
// (bench/calibration) so that the absolute throughputs land in the
// neighbourhood of the paper's testbed numbers — ~224 krps best-case Linux
// and ~302 krps NEaT 3x on the 12-core AMD — and, more importantly, so that
// the *relative* shapes of every figure reproduce. EXPERIMENTS.md records
// paper-vs-measured for each one.
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace neat {

struct StackCosts {
  // --- NIC driver (per packet) -------------------------------------------
  sim::Cycles drv_rx{1900};  ///< descriptor + buffer handoff, RX
  sim::Cycles drv_tx{1500};  ///< descriptor + doorbell, TX
  sim::Cycles drv_control{500};

  // --- multi-component replica -------------------------------------------
  sim::Cycles ip_rx_base{1000};  ///< eth+IP decode, demux (per packet)
  sim::Cycles ip_tx_base{900};   ///< IP+eth encode (per packet)
  sim::Cycles pf_per_packet{350};
  sim::Cycles udp_per_packet{900};
  sim::Cycles tcp_rx_base{3900};  ///< segment processing (per segment)
  sim::Cycles tcp_tx_base{3200};  ///< segment construction (per segment)

  // --- single-component replica (no IPC glue between IP and TCP) ---------
  sim::Cycles single_rx_base{7200};
  sim::Cycles single_tx_base{5600};

  // --- per-byte copy/checksum cost, in cycles per 16 bytes ----------------
  sim::Cycles per_16_bytes{6};

  // --- socket fast path ----------------------------------------------------
  sim::Cycles doorbell_take{350};    ///< notification pickup (either side)
  sim::Cycles sock_drain_base{800};  ///< stack-side send-ring drain, per pass
  sim::Cycles accept_cost{1200};     ///< app-side accept-queue pop
  sim::Cycles app_notify{300};       ///< app-side readable/writable event

  // --- optional stateful recovery (checkpointing, §6.6) -------------------
  sim::Cycles checkpoint_base{4000};      ///< per checkpoint pass
  sim::Cycles checkpoint_per_conn{350};   ///< per established connection

  // --- live connection migration (replica-to-replica hand-off) -----------
  sim::Cycles migrate_base{6000};      ///< freeze/thaw pass, either side
  sim::Cycles migrate_per_conn{450};   ///< serialize/adopt one connection

  // --- control plane --------------------------------------------------------
  sim::Cycles syscall_server{3500};  ///< SYSCALL server per request
  sim::Cycles replica_control{2500}; ///< replica-side control op
  sim::Cycles app_syscall{1200};     ///< app-side issue + completion

  /// Per-byte contribution for a payload of `n` bytes.
  [[nodiscard]] sim::Cycles bytes_cost(std::size_t n) const {
    return per_16_bytes * (static_cast<sim::Cycles>(n) / 16);
  }

  /// One freeze (source side) or thaw (target side) pass of a live
  /// migration over `conns` connections; a thaw also pays for copying in
  /// the `image_bytes` of the shipped checkpoint.
  [[nodiscard]] sim::Cycles migrate_cost(std::size_t conns,
                                         std::size_t image_bytes = 0) const {
    return migrate_base +
           migrate_per_conn * static_cast<sim::Cycles>(conns) +
           bytes_cost(image_bytes);
  }
};

}  // namespace neat
