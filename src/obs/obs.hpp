// Observability hub: a metrics Registry and the simulation's FlowTracer.
//
// The hub lives on sim::Simulator so every layer that can reach the
// simulator (which is all of them) can record metrics and trace events
// without new plumbing. A fleet gives each host a hub of its own so
// per-host metrics stay separable, but a simulation has one tracer: every
// hub points at the simulator's, so one export holds every host's events.
// obs itself depends on nothing — it takes raw nanosecond timestamps — so
// the dependency arrow points strictly downward: sim links obs, never the
// reverse.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neat::obs {

struct Hub {
  Registry metrics;
  /// The simulation's tracer (not owned); null for a metrics-only hub.
  FlowTracer* tracer{nullptr};

  /// The tracer when it is recording, else null: emit sites test this
  /// before they build an event.
  [[nodiscard]] FlowTracer* tracing() const {
    return tracer != nullptr && tracer->enabled() ? tracer : nullptr;
  }
};

}  // namespace neat::obs
