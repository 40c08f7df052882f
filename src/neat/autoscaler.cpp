#include "neat/autoscaler.hpp"

namespace neat {

namespace {

/// The replicas of one host. A replica is measured by its TCP-bearing
/// process, its saturation point (the IP side is strictly cheaper).
class ReplicaTarget final : public ScaleTarget {
 public:
  ReplicaTarget(NeatHost& host,
                std::vector<std::vector<sim::HwThread*>> spare_pins)
      : host_(host), spare_pins_(std::move(spare_pins)) {}

  std::vector<Procs> units(Procs& all) override {
    for (std::size_t i = 0; i < host_.replica_count(); ++i) {
      all.push_back(&host_.replica(i).tcp_process());
    }
    active_ = host_.active_replicas();
    std::vector<Procs> units;
    for (auto* r : active_) units.push_back({&r->tcp_process()});
    return units;
  }

  void publish(std::size_t active, double mean_utilization) override {
    auto& m = host_.metrics();
    m.gauge("autoscaler.replicas_active").set(static_cast<double>(active));
    m.gauge("autoscaler.mean_utilization").set(mean_utilization);
    m.gauge("autoscaler.spare_pins")
        .set(static_cast<double>(spare_pins_.size()));
  }

  bool grow() override {
    if (spare_pins_.empty()) return false;
    host_.add_replica(spare_pins_.back());
    spare_pins_.pop_back();
    host_.metrics().counter("autoscaler.scale_ups").inc();
    return true;
  }

  bool shrink(std::size_t coldest, const std::vector<double>& /*util*/,
              sim::SmallFn done) override {
    // The replica's pins are not returned to the spare pool.
    host_.begin_scale_down(*active_[coldest]);
    host_.metrics().counter("autoscaler.scale_downs").inc();
    done();
    return true;
  }

 private:
  NeatHost& host_;
  std::vector<std::vector<sim::HwThread*>> spare_pins_;
  std::vector<StackReplica*> active_;  // as of the last units()
};

}  // namespace

AutoScaler::AutoScaler(sim::Simulator& sim, ScaleTarget& target,
                       Policy policy)
    : sim_(sim), target_(target), policy_(policy) {}

AutoScaler::AutoScaler(NeatHost& host,
                       std::vector<std::vector<sim::HwThread*>> spare_pins,
                       Policy policy)
    : sim_(host.simulator()),
      owned_target_(
          std::make_unique<ReplicaTarget>(host, std::move(spare_pins))),
      target_(*owned_target_),
      policy_(policy) {}

void AutoScaler::start() {
  if (running_) return;
  running_ = true;
  snapshots_.clear();
  timer_ = sim_.schedule(policy_.period, [this] { tick(); });
}

void AutoScaler::tick() {
  if (!running_) return;

  // Busy cycles since the last snapshot over the cycle budget of a window.
  auto utilization = [this](const sim::Process& p) {
    sim::Cycles prev = 0;
    for (const auto& [proc, cycles] : snapshots_) {
      if (proc == &p) prev = cycles;
    }
    const auto& mp = p.thread()->params();
    const double budget =
        mp.freq.ghz * 1e9 * sim::to_seconds(policy_.period) / mp.work_scale;
    return budget > 0
               ? static_cast<double>(p.stats().processing - prev) / budget
               : 0.0;
  };
  ScaleTarget::Procs all;
  const std::vector<ScaleTarget::Procs> units = target_.units(all);
  std::vector<double> util;
  double total = 0.0;
  double min_util = 2.0;
  std::size_t coldest = units.size();
  for (const auto& procs : units) {
    double sum = 0.0;
    for (const sim::Process* p : procs) sum += utilization(*p);
    const double u =
        procs.empty() ? 0.0 : sum / static_cast<double>(procs.size());
    if (u < min_util) {
      min_util = u;
      coldest = util.size();
    }
    util.push_back(u);
    total += u;
  }
  last_util_ =
      units.empty() ? 0.0 : total / static_cast<double>(units.size());
  target_.publish(units.size(), last_util_);

  snapshots_.clear();
  for (const sim::Process* p : all) {
    snapshots_.emplace_back(p, p->stats().processing);
  }

  const sim::SimTime now = sim_.now();
  if (now - last_action_ >= policy_.cooldown && !shrinking_ &&
      !units.empty()) {
    if (last_util_ > policy_.scale_up_threshold && target_.grow()) {
      ++scale_ups_;
      last_action_ = now;
    } else if (last_util_ < policy_.scale_down_threshold &&
               units.size() > policy_.min_units && coldest < units.size()) {
      shrinking_ = true;
      if (target_.shrink(coldest, util, [this] { shrinking_ = false; })) {
        ++scale_downs_;
        last_action_ = now;
      } else {
        shrinking_ = false;
      }
    }
  }

  timer_ = sim_.schedule(policy_.period, [this] { tick(); });
}

}  // namespace neat
