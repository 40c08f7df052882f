#include "fleet/fleet_autoscaler.hpp"

#include <string>

namespace neat::fleet {

std::vector<ScaleTarget::Procs> FleetAutoScaler::units(Procs& all) {
  // A unit is a powered backend in the table, measured over its active
  // replicas.
  active_.clear();
  std::vector<Procs> units;
  for (std::size_t i = 0; i < fleet_.backend_count(); ++i) {
    FleetHost& b = fleet_.backend(i);
    for (std::size_t r = 0; r < b.host->replica_count(); ++r) {
      all.push_back(&b.host->replica(r).tcp_process());
    }
    if (!fleet_.steering().has_backend(b.id) || b.host->powered_off()) {
      continue;
    }
    active_.push_back(i);
    Procs& procs = units.emplace_back();
    for (auto* r : b.host->active_replicas()) {
      procs.push_back(&r->tcp_process());
    }
  }
  return units;
}

void FleetAutoScaler::publish(std::size_t /*active*/,
                              double mean_utilization) {
  fleet_.simulator().metrics().gauge("fleet.mean_utilization")
      .set(mean_utilization);
}

bool FleetAutoScaler::grow() {
  // The first standby (never a powered-off husk).
  for (std::size_t i = 0; i < fleet_.backend_count(); ++i) {
    FleetHost& b = fleet_.backend(i);
    if (fleet_.steering().has_backend(b.id) || b.host->powered_off()) {
      continue;
    }
    fleet_.activate_backend(i);
    sim::Simulator& sim = fleet_.simulator();
    if (sim.tracer().enabled()) {
      sim.tracer().emit({sim.now(), 0, "fleet", "host_scale_up", 0, b.id, ""});
    }
    return true;
  }
  return false;
}

bool FleetAutoScaler::shrink(std::size_t coldest,
                             const std::vector<double>& util,
                             sim::SmallFn done) {
  if (util.size() < 2) return false;  // no survivor to drain into
  std::size_t into = coldest == 0 ? 1 : 0;
  for (std::size_t i = 0; i < util.size(); ++i) {
    if (i != coldest && util[i] < util[into]) into = i;
  }
  sim::Simulator& sim = fleet_.simulator();
  if (sim.tracer().enabled()) {
    sim.tracer().emit({sim.now(), 0, "fleet", "host_scale_down", 0,
                       fleet_.backend(active_[coldest]).id,
                       "\"into\":" + std::to_string(
                                        fleet_.backend(active_[into]).id)});
  }
  fleet_.drain_host(active_[coldest], active_[into],
                    [done = std::move(done)](std::size_t) mutable { done(); });
  return true;
}

}  // namespace neat::fleet
