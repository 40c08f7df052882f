// Heartbeat watchdog: liveness detection without an oracle.
//
// A Watchdog periodically sends a probe through a user-supplied channel
// (typically a Process::post into the monitored process) and expects the
// probe's `ack` callback to run. A process that crashed silently drops the
// posted probe, so acks stop arriving; once the silence exceeds `timeout`
// the watchdog declares the target dead, disarms itself, and fires
// `on_silent` exactly once. Whoever handles the death re-arms the watchdog
// after the target is restarted — the disarmed window is what makes
// "restart already pending" an explicit state instead of a race.
//
// Detection latency is bounded by timeout + period (+ the probe's own
// delivery cost while the target was still alive).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace neat::sim {

class Watchdog {
 public:
  /// Deliver one probe; call `ack` from the monitored context iff alive.
  using Probe = std::function<void(std::function<void()> ack)>;
  /// Invoked once per detection, with the observed silence duration.
  /// The callback may destroy this Watchdog.
  using OnSilent = std::function<void(SimTime silent_for)>;

  Watchdog(Simulator& sim, SimTime period, SimTime timeout)
      : sim_(sim), period_(period), timeout_(timeout) {}

  ~Watchdog() { tick_.cancel(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Start (or resume, after a restart) monitoring. The target is given a
  /// fresh grace period; acks from a previous arming are ignored.
  void arm(Probe probe, OnSilent on_silent) {
    probe_ = std::move(probe);
    on_silent_ = std::move(on_silent);
    ++generation_;
    armed_ = true;
    last_ack_ = sim_.now();
    tick_.cancel();
    tick_ = sim_.schedule(period_, [this] { tick(); });
  }

  /// Stop monitoring (target terminated on purpose). Idempotent.
  void disarm() {
    armed_ = false;
    tick_.cancel();
  }

  [[nodiscard]] bool armed() const { return armed_; }

 private:
  void tick() {
    if (!armed_) return;
    const SimTime silent = sim_.now() - last_ack_;
    if (silent >= timeout_) {
      armed_ = false;
      // Copy out before invoking: the handler may delete this object.
      OnSilent handler = on_silent_;
      handler(silent);
      return;  // no member access past this point
    }
    const std::uint64_t gen = generation_;
    probe_([this, gen] {
      if (gen == generation_) last_ack_ = sim_.now();
    });
    tick_ = sim_.schedule(period_, [this] { tick(); });
  }

  Simulator& sim_;
  SimTime period_;
  SimTime timeout_;
  Probe probe_;
  OnSilent on_silent_;
  bool armed_{false};
  std::uint64_t generation_{0};
  SimTime last_ack_{0};
  EventHandle tick_;
};

}  // namespace neat::sim
