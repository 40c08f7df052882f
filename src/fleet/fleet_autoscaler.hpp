// Fleet-level automatic scaling: the §3.4 control loop (neat::AutoScaler)
// with hosts as its units.
//
// Hot fleet: a warm standby enters the maglev table. Cold fleet: the
// coldest backend drains into the coldest survivor (cross-host live
// migration) and leaves the table; it stays built as the next standby.
// The loop holds while a drain is in flight; the drain's completion calls
// back into it, so keep the scaler alive while the simulation runs. Replica
// scaling inside a backend is a separate per-host AutoScaler the caller
// starts on it.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/cluster.hpp"
#include "neat/autoscaler.hpp"

namespace neat::fleet {

class FleetAutoScaler final : private ScaleTarget {
 public:
  /// Host moves are coarser than replica moves: callers usually give the
  /// fleet loop a longer period and cooldown than a per-host one.
  FleetAutoScaler(FleetCluster& fleet, AutoScaler::Policy policy)
      : fleet_(fleet), loop_(fleet.simulator(), *this, policy) {}

  void start() { loop_.start(); }
  void stop() { loop_.stop(); }

  [[nodiscard]] std::uint64_t host_activations() const {
    return loop_.scale_ups();
  }
  [[nodiscard]] std::uint64_t host_drains() const {
    return loop_.scale_downs();
  }
  [[nodiscard]] double last_fleet_utilization() const {
    return loop_.last_mean_utilization();
  }

 private:
  std::vector<Procs> units(Procs& all) override;
  void publish(std::size_t active, double mean_utilization) override;
  bool grow() override;
  bool shrink(std::size_t coldest, const std::vector<double>& util,
              sim::SmallFn done) override;

  FleetCluster& fleet_;
  std::vector<std::size_t> active_;  // backend indices, as of units()
  AutoScaler loop_;
};

}  // namespace neat::fleet
