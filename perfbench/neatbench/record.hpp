// What one benchmark repetition measures, and how it is printed.
//
// A repetition builds one workload's simulated testbed, runs its warmup and
// measure windows, and reports three kinds of values:
//   * `sim`    — simulated-clock results (krps, latency percentiles, error
//                accounting). Seed-deterministic: run.py requires them to
//                repeat exactly across repetitions and between the traced
//                and untraced runs.
//   * `counts` — the deterministic per-layer ledger read from the public
//                counters after the run (jobs, cycles, batches, drops...).
//                Same determinism rule as `sim`.
//   * host-clock values — every simulated millisecond's and the set-up's
//                host time, each with the calibration unit timed next to it
//                (calib.hpp), CPU time, peak RSS and, in `host` (traced
//                repetitions only), the isolated per-call cost of replaying
//                captured frames through each layer's public entry point.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace neat::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double ratio(double a, double b) {
  return b > 0 ? a / b : 0.0;
}

struct Check {
  std::string name;
  bool ok{false};
  std::string detail;
};

/// One captured wire frame. `inbound` = travelling towards the system under
/// test (the NEaT server host, or a fleet backend).
struct Frame {
  std::vector<std::uint8_t> bytes;
  bool inbound{false};
};

/// Frames tapped off the simulated links during a traced repetition. Every
/// frame is counted; only the first kMaxFrames / kMaxBytes are kept so a
/// bulk workload cannot exhaust memory.
struct Capture {
  static constexpr std::size_t kMaxFrames = 250'000;
  static constexpr std::size_t kMaxBytes = 64u << 20;

  std::vector<Frame> frames;
  std::uint64_t seen{0};
  std::size_t bytes{0};

  void add(std::span<const std::uint8_t> b, bool inbound) {
    ++seen;
    if (frames.size() >= kMaxFrames || bytes + b.size() > kMaxBytes) return;
    bytes += b.size();
    frames.push_back(Frame{{b.begin(), b.end()}, inbound});
  }
};

using Values = std::vector<std::pair<std::string, double>>;

struct Result {
  /// Host seconds of the set-up, and of the calibration unit before it.
  double setup_s{0.0};
  double setup_calib_s{0.0};
  double run_s{0.0};   ///< host wall seconds simulating warmup + measure
  double loop_s{0.0};  ///< the same, plus the calibration units in between
  double cpu_s{0.0};   ///< process CPU seconds over loop_s
  std::uint64_t frames{0};  ///< simulated frames delivered over all links
  double peak_rss_kb{0.0};  ///< the process's peak resident set
  /// Per simulated millisecond of warmup + measure: host seconds, frames
  /// delivered, and the host seconds of the calibration unit timed after it.
  std::vector<double> slice_s;
  std::vector<double> slice_frames;
  std::vector<double> slice_calib_s;
  Values sim;
  Values counts;
  Values host;
  std::vector<Check> checks;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
};

/// Quantile with linear interpolation inside the log-linear bucket that
/// holds the ranked sample. obs::Histogram::quantile() returns the bucket's
/// upper edge, which makes nearby distributions read identically; the
/// interpolated value moves with the sample counts. Nanoseconds in, the
/// same unit out.
[[nodiscard]] inline double interp_quantile(const obs::Histogram& h,
                                            double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n - 1);
  std::uint64_t seen = 0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t c = h.bucket_count(i);
    if (c == 0) continue;
    if (static_cast<double>(seen + c) > rank) {
      const double lo = static_cast<double>(
          std::max(obs::Histogram::bucket_lower(i), h.min()));
      const double hi = static_cast<double>(
          std::min(obs::Histogram::bucket_upper(i), h.max()));
      const double frac =
          (rank - static_cast<double>(seen) + 0.5) / static_cast<double>(c);
      return lo + (hi - lo) * std::min(1.0, frac);
    }
    seen += c;
  }
  return static_cast<double>(h.max());
}

/// Samples ranked strictly above quantile q (the support of that percentile).
[[nodiscard]] inline std::uint64_t samples_beyond(const obs::Histogram& h,
                                                  double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  return n - 1 - rank;
}

/// Full-precision number for JSON (integers print without a fraction).
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

[[nodiscard]] inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

[[nodiscard]] inline std::string json_object(const Values& vals) {
  std::string out = "{";
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(vals[i].first) + ": " + json_number(vals[i].second);
  }
  return out + "}";
}

[[nodiscard]] inline std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(v[i]);
  }
  return out + "]";
}

[[nodiscard]] inline std::string to_json(const Result& r) {
  std::string out = "{";
  out += "\"setup_s\": " + json_number(r.setup_s);
  out += ", \"setup_calib_s\": " + json_number(r.setup_calib_s);
  out += ", \"run_s\": " + json_number(r.run_s);
  out += ", \"cpu_s\": " + json_number(r.cpu_s);
  out += ", \"frames\": " + json_number(static_cast<double>(r.frames));
  out += ", \"peak_rss_kb\": " + json_number(r.peak_rss_kb);
  out += ", \"loop_s\": " + json_number(r.loop_s);
  out += ", \"slice_s\": " + json_array(r.slice_s);
  out += ", \"slice_frames\": " + json_array(r.slice_frames);
  out += ", \"slice_calib_s\": " + json_array(r.slice_calib_s);
  out += ", \"sim\": " + json_object(r.sim);
  out += ", \"counts\": " + json_object(r.counts);
  out += ", \"host\": " + json_object(r.host);
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + json_string(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + json_string(c.detail) + "}";
  }
  return out + "]}";
}

}  // namespace neat::perfbench
