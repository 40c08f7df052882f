// Automatic scaling (paper §3.4).
//
// "The system boots with at least one replica ... When NEaT becomes
// overloaded, it automatically spawns a new network stack replica. ...
// When the load drops again, NEaT can also scale down" — via lazy
// termination, which NeatHost implements.
//
// AutoScaler is the one scaling control loop: every period it samples the
// TCP-process cycles of each active unit, compares their mean with the
// thresholds and, once a cooldown has passed since its last action, grows
// or shrinks its ScaleTarget by one unit. The targets are the replicas of
// a host (the NeatHost constructor below) and the hosts of a fleet
// (fleet::FleetAutoScaler).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "neat/host.hpp"

namespace neat {

/// What the loop scales: a unit is a replica of a host or a host of a fleet.
class ScaleTarget {
 public:
  using Procs = std::vector<const sim::Process*>;
  ScaleTarget() = default;
  ScaleTarget(const ScaleTarget&) = delete;
  ScaleTarget& operator=(const ScaleTarget&) = delete;
  virtual ~ScaleTarget() = default;

  /// Per active unit, its TCP-bearing processes; the unit's utilization is
  /// their mean. `all` receives every TCP-bearing process, active or not:
  /// the loop snapshots them all, so a unit that comes back (a recovered
  /// replica) is measured from its last snapshot rather than from boot.
  virtual std::vector<Procs> units(Procs& all) = 0;
  /// Export the loop's view of this tick, before it acts.
  virtual void publish(std::size_t active, double mean_utilization) = 0;
  /// Add one unit; false when none is left to add.
  virtual bool grow() = 0;
  /// Retire active unit `coldest`; `util` holds every active unit's
  /// utilization. `done` runs once the unit is out, now or later, and the
  /// loop takes no action until then. False when nothing could be retired
  /// (`done` is then dropped).
  virtual bool shrink(std::size_t coldest, const std::vector<double>& util,
                      sim::SmallFn done) = 0;
};

class AutoScaler {
 public:
  struct Policy {
    /// Grow when the mean active-unit utilization exceeds this.
    double scale_up_threshold{0.85};
    /// Shrink when it drops below this (and more than min_units are
    /// active).
    double scale_down_threshold{0.30};
    std::size_t min_units{1};
    sim::SimTime period{50 * sim::kMillisecond};
    /// Settle time after any action before acting again.
    sim::SimTime cooldown{150 * sim::kMillisecond};
  };

  AutoScaler(sim::Simulator& sim, ScaleTarget& target, Policy policy);

  /// Replica scaling on one host: `spare_pins` are hardware-thread sets
  /// handed to add_replica() as capacity grows; scaling up stops when they
  /// run out (the paper's "limited by the ratio of cores dedicated to the
  /// system"). Scale-down is lazy termination of the coldest replica. The
  /// `autoscaler.*` gauges and counters land on the host's own hub.
  AutoScaler(NeatHost& host,
             std::vector<std::vector<sim::HwThread*>> spare_pins,
             Policy policy);
  ~AutoScaler() { stop(); }

  AutoScaler(const AutoScaler&) = delete;
  AutoScaler& operator=(const AutoScaler&) = delete;

  void start();
  void stop() {
    running_ = false;
    timer_.cancel();
  }

  [[nodiscard]] std::uint64_t scale_ups() const { return scale_ups_; }
  [[nodiscard]] std::uint64_t scale_downs() const { return scale_downs_; }
  /// Most recent mean utilization over the active units.
  [[nodiscard]] double last_mean_utilization() const { return last_util_; }

 private:
  void tick();

  sim::Simulator& sim_;
  std::unique_ptr<ScaleTarget> owned_target_;
  ScaleTarget& target_;
  Policy policy_;
  sim::EventHandle timer_;
  bool running_{false};
  bool shrinking_{false};
  sim::SimTime last_action_{0};
  double last_util_{0.0};
  std::vector<std::pair<const sim::Process*, sim::Cycles>> snapshots_;
  std::uint64_t scale_ups_{0};
  std::uint64_t scale_downs_{0};
};

}  // namespace neat
