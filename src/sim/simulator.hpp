// Top-level simulation context: virtual clock, event queue, RNG, machines.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace neat::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  [[nodiscard]] SimTime now() const { return queue_.now(); }
  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Observability hub: the metrics registry and flow tracer shared by
  /// every layer of this simulation. The tracer is off until a consumer
  /// enables it (obs/trace.hpp).
  [[nodiscard]] obs::Hub& obs() { return obs_; }
  [[nodiscard]] obs::Registry& metrics() { return obs_.metrics; }
  [[nodiscard]] obs::FlowTracer& tracer() { return tracer_; }

  /// Schedule a raw event (not tied to any process; use Process::after for
  /// component timers so they die with the component).
  template <typename F>
  EventHandle schedule(SimTime delay, F&& fn) {
    return queue_.schedule(delay, std::forward<F>(fn));
  }

  /// Fire-and-forget raw event: no handle, no cancellation (the fast path).
  template <typename F>
  void post(SimTime delay, F&& fn) {
    queue_.post(delay, std::forward<F>(fn));
  }

  /// Create a machine owned by the simulator.
  Machine& add_machine(MachineParams params) {
    machines_.push_back(std::make_unique<Machine>(*this, std::move(params)));
    return *machines_.back();
  }

  [[nodiscard]] Machine& machine(std::size_t i) { return *machines_.at(i); }

  /// Advance virtual time to `deadline`, executing all events on the way.
  void run_until(SimTime deadline) { queue_.run_until(deadline); }

  /// Advance virtual time by `delta`.
  void run_for(SimTime delta) { queue_.run_until(queue_.now() + delta); }

  /// Drain every pending event (use in small tests only).
  void run() { queue_.run(); }

 private:
  EventQueue queue_;
  Rng rng_;
  obs::FlowTracer tracer_;
  obs::Hub obs_{{}, &tracer_};
  std::vector<std::unique_ptr<Machine>> machines_;
};

}  // namespace neat::sim
