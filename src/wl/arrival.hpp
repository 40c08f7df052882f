// Arrival processes for the workload engine.
//
// An ArrivalModel describes session arrivals per second as a (possibly
// time-varying) intensity λ(t), or a closed population of users that each
// start their next session when the last one ends (httperf); an
// ArrivalSampler turns an open model into a concrete
// deterministic arrival sequence via Lewis–Shedler thinning against the
// model's peak rate. Everything draws from the sampler's own sub-Rng, so a
// (seed, model) pair replays the identical arrival train regardless of what
// the rest of the simulation does — the property that makes open-loop
// measurement meaningful (the offered load never reacts to the server).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace neat::wl {

struct ArrivalModel {
  enum class Kind {
    kPoisson,     ///< constant-rate Poisson
    kMmpp,        ///< 2-state Markov-modulated Poisson (base/burst)
    kDiurnal,     ///< sinusoidal ramp between base and peak
    kFlashCrowd,  ///< base rate with a ramp/hold/decay surge window
    kClosed,      ///< `users` back-to-back sessions, no arrival process
  };

  Kind kind{Kind::kPoisson};
  double rate{1000.0};  ///< base intensity, sessions/second

  // kMmpp: alternate between `rate` and `burst_rate`, exponential dwells.
  double burst_rate{0.0};
  sim::SimTime dwell_base{100 * sim::kMillisecond};
  sim::SimTime dwell_burst{20 * sim::kMillisecond};

  // kDiurnal: λ(t) sweeps rate -> peak_rate -> rate each period.
  double peak_rate{0.0};
  sim::SimTime period{1 * sim::kSecond};

  // kFlashCrowd: λ ramps from rate to surge_rate over [surge_at,
  // surge_at+surge_ramp], holds, then decays linearly back.
  double surge_rate{0.0};
  sim::SimTime surge_at{0};
  sim::SimTime surge_ramp{50 * sim::kMillisecond};
  sim::SimTime surge_hold{300 * sim::kMillisecond};
  sim::SimTime surge_decay{100 * sim::kMillisecond};

  // kClosed: concurrent users, each one session at a time.
  std::size_t users{0};

  [[nodiscard]] static ArrivalModel closed(std::size_t users) {
    ArrivalModel m;
    m.kind = Kind::kClosed;
    m.users = users;
    return m;
  }

  [[nodiscard]] static ArrivalModel poisson(double rate) {
    ArrivalModel m;
    m.kind = Kind::kPoisson;
    m.rate = rate;
    return m;
  }

  [[nodiscard]] static ArrivalModel mmpp(double base, double burst,
                                         sim::SimTime dwell_base,
                                         sim::SimTime dwell_burst) {
    ArrivalModel m;
    m.kind = Kind::kMmpp;
    m.rate = base;
    m.burst_rate = burst;
    m.dwell_base = dwell_base;
    m.dwell_burst = dwell_burst;
    return m;
  }

  [[nodiscard]] static ArrivalModel diurnal(double base, double peak,
                                            sim::SimTime period) {
    ArrivalModel m;
    m.kind = Kind::kDiurnal;
    m.rate = base;
    m.peak_rate = peak;
    m.period = period;
    return m;
  }

  [[nodiscard]] static ArrivalModel flash_crowd(double base, double surge,
                                                sim::SimTime at,
                                                sim::SimTime ramp,
                                                sim::SimTime hold,
                                                sim::SimTime decay) {
    ArrivalModel m;
    m.kind = Kind::kFlashCrowd;
    m.rate = base;
    m.surge_rate = surge;
    m.surge_at = at;
    m.surge_ramp = ramp;
    m.surge_hold = hold;
    m.surge_decay = decay;
    return m;
  }

  /// Peak intensity, the thinning envelope.
  [[nodiscard]] double max_rate() const {
    switch (kind) {
      case Kind::kPoisson:
      case Kind::kClosed: return rate;
      case Kind::kMmpp: return std::max(rate, burst_rate);
      case Kind::kDiurnal: return std::max(rate, peak_rate);
      case Kind::kFlashCrowd: return std::max(rate, surge_rate);
    }
    return rate;
  }
};

class ArrivalSampler {
 public:
  ArrivalSampler(ArrivalModel model, sim::Rng rng)
      : model_(model), rng_(rng), mmpp_rng_(rng.split(0x33a9)) {}

  /// Instantaneous intensity at `t`. Calls must be non-decreasing in `t`
  /// (the MMPP state machine only advances forward).
  [[nodiscard]] double rate_at(sim::SimTime t) {
    switch (model_.kind) {
      case ArrivalModel::Kind::kPoisson:
      case ArrivalModel::Kind::kClosed:
        return model_.rate;
      case ArrivalModel::Kind::kMmpp: {
        while (t >= state_until_) {
          const sim::SimTime dwell = std::max<sim::SimTime>(
              1, static_cast<sim::SimTime>(mmpp_rng_.exponential(
                     static_cast<double>(burst_ ? model_.dwell_burst
                                                : model_.dwell_base))));
          state_until_ += dwell;
          burst_ = !burst_;
        }
        // `burst_` flipped past t's state; the state *covering* t is the
        // previous one only when the loop ran. Track explicitly instead:
        return in_burst_covering(t) ? model_.burst_rate : model_.rate;
      }
      case ArrivalModel::Kind::kDiurnal: {
        const double phase =
            2.0 * kPi * static_cast<double>(t % model_.period) /
            static_cast<double>(model_.period);
        const double w = 0.5 - 0.5 * std::cos(phase);  // 0 at t=0, 1 mid
        return model_.rate + (model_.peak_rate - model_.rate) * w;
      }
      case ArrivalModel::Kind::kFlashCrowd: {
        const sim::SimTime a = model_.surge_at;
        if (t < a) return model_.rate;
        const sim::SimTime ramp_end = a + model_.surge_ramp;
        if (t < ramp_end) {
          const double f = static_cast<double>(t - a) /
                           static_cast<double>(std::max<sim::SimTime>(
                               1, model_.surge_ramp));
          return model_.rate + (model_.surge_rate - model_.rate) * f;
        }
        const sim::SimTime hold_end = ramp_end + model_.surge_hold;
        if (t < hold_end) return model_.surge_rate;
        const sim::SimTime decay_end = hold_end + model_.surge_decay;
        if (t < decay_end) {
          const double f = static_cast<double>(decay_end - t) /
                           static_cast<double>(std::max<sim::SimTime>(
                               1, model_.surge_decay));
          return model_.rate + (model_.surge_rate - model_.rate) * f;
        }
        return model_.rate;
      }
    }
    return model_.rate;
  }

  /// Next arrival strictly after `t` (Lewis–Shedler thinning against the
  /// peak rate).
  [[nodiscard]] sim::SimTime next_after(sim::SimTime t) {
    const double lam_max = std::max(model_.max_rate(), 1e-9);
    const double mean_gap_ns = 1e9 / lam_max;
    for (int guard = 0; guard < 1'000'000; ++guard) {
      t += std::max<sim::SimTime>(
          1, static_cast<sim::SimTime>(rng_.exponential(mean_gap_ns)));
      if (rng_.uniform() * lam_max <= rate_at(t)) return t;
    }
    return t;  // unreachable for sane models; keeps the loop bounded
  }

 private:
  static constexpr double kPi = 3.14159265358979323846;

  /// MMPP bookkeeping: rate_at() advanced the flip schedule past `t`;
  /// reconstruct which state covers `t` from the flip count parity.
  [[nodiscard]] bool in_burst_covering(sim::SimTime) const {
    // After the while-loop, `burst_` names the state of the *current*
    // interval [prev_flip, state_until_), which is the one covering t.
    return burst_;
  }

  ArrivalModel model_;
  sim::Rng rng_;
  sim::Rng mmpp_rng_;
  bool burst_{false};
  sim::SimTime state_until_{0};
};

}  // namespace neat::wl
