// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench prints the rows/series of one table or figure from the paper
// next to the values the paper reports, so the output is self-contained
// evidence of how well the shape reproduces.
#pragma once

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "harness/testbed.hpp"

namespace neat::bench {

using namespace neat::harness;

inline constexpr sim::SimTime kWarmup = 200 * sim::kMillisecond;
inline constexpr sim::SimTime kMeasure = 300 * sim::kMillisecond;

/// Parse `--trace-out=FILE` (or `--trace-out FILE`) from the command line;
/// returns the empty string when the flag is absent. Every bench binary
/// accepts this flag and dumps its flow trace as chrome://tracing JSON.
inline std::string trace_out_arg(int argc, char** argv) {
  const std::string flag = "--trace-out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
    if (a == flag && i + 1 < argc) return argv[i + 1];
  }
  return {};
}

/// Start recording the simulator's flow trace when `path` names an output
/// file. Tracing is off by default, so call this before the run, right
/// after the simulator is built. No-op on empty path.
inline void enable_trace(sim::Simulator& sim, const std::string& path) {
  if (!path.empty()) sim.tracer().set_enabled(true);
}

/// Write the simulator's flow trace to `path` (chrome://tracing JSON,
/// loadable in chrome://tracing or ui.perfetto.dev), as recorded since
/// enable_trace(). No-op on empty path.
inline bool write_trace(sim::Simulator& sim, const std::string& path) {
  if (path.empty()) return false;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open trace output %s\n", path.c_str());
    return false;
  }
  sim.tracer().write_chrome_json(f);
  std::printf("wrote %s (%llu events, %llu emitted)\n", path.c_str(),
              static_cast<unsigned long long>(sim.tracer().size()),
              static_cast<unsigned long long>(sim.tracer().emitted()));
  return true;
}

/// Field by field, for Run's identity: the tuning struct declares no ==.
inline bool operator==(const baseline::LinuxTuning& a,
                       const baseline::LinuxTuning& b) {
  static_assert(sizeof(baseline::LinuxTuning) == 6, "compare every knob");
  return std::tie(a.deadline_sched, a.tso, a.irq_affinity, a.rx_affinity,
                  a.pin_servers, a.rfs) ==
         std::tie(b.deadline_sched, b.tso, b.irq_affinity, b.rx_affinity,
                  b.pin_servers, b.rfs);
}

/// The two paper machines the benches run the server on.
enum class Machine { kAmd, kXeon };
/// The server's stack: NEaT single-component, NEaT multi-component, Linux.
enum class Stack { kNeat, kMulti, kLinux };

/// One experiment: server machine, stack and configuration. run() turns it
/// into the client rig's aggregate over the measurement window; equal Runs
/// give equal results.
struct Run {
  Stack stack{Stack::kNeat};
  Machine machine{Machine::kAmd};
  int replicas{1};  ///< NEaT only
  bool ht{false};   ///< NEaT on the Xeon: the hyper-threaded placements
  /// Linux only.
  baseline::LinuxTuning tuning{baseline::LinuxTuning::best()};
  int webs{1};
  int requests_per_conn{100};
  std::size_t concurrency_per_gen{24};
  int generators{12};
  std::string path{"/file20"};  ///< the one file served, and requested
  std::size_t file_bytes{20};
  std::uint64_t seed{12345};
  sim::SimTime warmup{kWarmup};
  sim::SimTime measure{kMeasure};

  bool operator==(const Run&) const = default;
};

/// Build the testbed for `r`, run it, and write its flow trace to
/// `trace_out` (chrome JSON) when that names a file.
inline ClientRig::Aggregate run(const Run& r,
                                const std::string& trace_out = {}) {
  Testbed::Config cfg;
  cfg.seed = r.seed;
  cfg.server_machine = r.machine == Machine::kXeon ? sim::intel_xeon_e5520()
                                                   : sim::amd_opteron_6168();
  Testbed tb(cfg);
  enable_trace(tb.sim, trace_out);
  const std::vector<std::pair<std::string, std::size_t>> files{
      {r.path, r.file_bytes}};
  ServerRig server = [&] {
    if (r.stack == Stack::kLinux) {
      LinuxServerOptions so;
      so.tuning = r.tuning;
      so.webs = r.webs;
      so.files = files;
      return build_linux_server(tb, so);
    }
    NeatServerOptions so;
    so.multi_component = r.stack == Stack::kMulti;
    so.replicas = r.replicas;
    so.webs = r.webs;
    so.files = files;
    if (r.machine == Machine::kXeon) {
      so.placement =
          xeon_placement(so.multi_component, r.replicas, r.webs, r.ht);
    }
    return build_neat_server(tb, so);
  }();
  ClientOptions co;
  co.generators = r.generators > r.webs ? r.generators : r.webs;
  co.concurrency_per_gen = r.concurrency_per_gen;
  co.requests_per_conn = r.requests_per_conn;
  co.path = r.path;
  ClientRig client = build_client(tb, co, r.webs);
  prepopulate_arp(server, client);
  ClientRig::Aggregate res = run_window(tb, client, r.warmup, r.measure);
  write_trace(tb.sim, trace_out);
  return res;
}

/// `s` as a JSON string literal, quotes included.
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// `v` as a JSON number (null when not finite).
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// A gate's bound (or target): a number, or why there is none — a
/// committed file or key that is missing, or a value that is not a number.
struct Operand {
  Operand(double v) : value(v) {}  // NOLINT: a plain number is an operand
  Operand(double v, std::string why) : value(v), error(std::move(why)) {}
  [[nodiscard]] Operand scaled(double k) const { return {value * k, error}; }

  double value{0.0};
  std::string error;  ///< non-empty: the operand could not be read
};

/// The number stored under `key` in a JSON object in the layout
/// JsonWriter writes (`"key": value`).
inline Operand json_number(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  if (!f) return {0.0, "cannot read " + path};
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::string pattern = json_quote(key) + ":";
  const std::size_t at = text.find(pattern);
  if (at == std::string::npos) return {0.0, "no key " + key + " in " + path};
  const char* start = text.c_str() + at + pattern.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (end == start || (*end != ',' && *end != '}') || !std::isfinite(v)) {
    return {0.0, key + " in " + path + " is not a number"};
  }
  return v;
}

/// The committed value of `key` in BENCH_<bench>.json at the source root,
/// which holds the bench's full-length run at its default seed.
inline Operand committed(const std::string& bench, const std::string& key) {
  return json_number(std::string(NEAT_SOURCE_DIR) + "/BENCH_" + bench + ".json",
                     key);
}

/// A bench's contracts. Each gate compares one value against a bound,
/// prints one `GATE <name> <value> <op> <bound> PASS|FAIL` line, and lands
/// in the bench's JSON (JsonWriter::add); exit_code() is the bench's exit
/// status.
class Gates {
 public:
  struct Gate {
    std::string name;
    double value;
    std::string op;     ///< ">=", "<=", ">", "<" or "within"
    double bound;       ///< for "within": the target
    double tol;         ///< for "within": the allowed |value - target|
    std::string error;  ///< why the bound could not be read
    bool passed;
  };

  /// `value op bound`, op one of ">=", "<=", ">", "<".
  bool check(const std::string& name, double value, std::string_view op,
             const Operand& bound) {
    const double b = bound.value;
    const bool known = op == ">=" || op == "<=" || op == ">" || op == "<";
    const bool ok = op == ">=" ? value >= b
                    : op == "<=" ? value <= b
                    : op == ">"  ? value > b
                                 : op == "<" && value < b;
    return record({name, value, std::string(op), b, 0.0,
                   known ? bound.error : "unknown op " + std::string(op), ok});
  }

  /// |value - target| <= max(rel * max(|value|, |target|), abs): a
  /// two-sided tolerance, relative to the larger side, with a floor.
  bool within(const std::string& name, double value, const Operand& target,
              double rel, double abs) {
    const double t = target.value;
    const double tol = std::max(rel * std::max(std::fabs(value), std::fabs(t)), abs);
    return record({name, value, "within", t, tol, target.error,
                   std::fabs(value - t) <= tol});
  }

  [[nodiscard]] bool passed() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const Gate& g) { return g.passed; });
  }
  [[nodiscard]] int exit_code() const { return passed() ? 0 : 1; }
  [[nodiscard]] const std::vector<Gate>& all() const { return gates_; }

 private:
  bool record(Gate g) {
    g.passed = g.passed && g.error.empty();
    const std::string bound =
        !g.error.empty()   ? "null"
        : g.op == "within" ? json_num(g.bound) + "+-" + json_num(g.tol)
                           : json_num(g.bound);
    std::printf("GATE %s %s %s %s %s%s%s\n", g.name.c_str(),
                json_num(g.value).c_str(), g.op.c_str(), bound.c_str(),
                g.passed ? "PASS" : "FAIL", g.error.empty() ? "" : " : ",
                g.error.c_str());
    std::fflush(stdout);
    gates_.push_back(std::move(g));
    return gates_.back().passed;
  }

  std::vector<Gate> gates_;
};

/// Tiny machine-readable sidecar: accumulates key/value pairs and writes
/// them as one flat JSON object to BENCH_<name>.json in the working
/// directory, so CI can track counters without scraping stdout.
class JsonWriter {
 public:
  void add(const std::string& key, double v) {
    kv_.emplace_back(key, json_num(v));
  }
  void add(const std::string& key, std::uint64_t v) {
    kv_.emplace_back(key, std::to_string(v));
  }
  void add(const std::string& key, int v) {
    kv_.emplace_back(key, std::to_string(v));
  }
  void add(const std::string& key, bool v) {
    kv_.emplace_back(key, v ? "true" : "false");
  }
  void add(const std::string& key, const std::string& v) {
    kv_.emplace_back(key, json_quote(v));
  }
  /// Every gate as one `gates` array entry, plus `gates_passed`.
  void add(const Gates& gates) {
    std::string arr;
    for (const Gates::Gate& g : gates.all()) {
      arr += (arr.empty() ? "[\n" : ",\n") + std::string("    {\"name\": ") +
             json_quote(g.name) + ", \"value\": " + json_num(g.value) +
             ", \"op\": " + json_quote(g.op) + ", \"bound\": " +
             (g.error.empty() ? json_num(g.bound) : "null");
      if (g.op == "within") arr += ", \"tol\": " + json_num(g.tol);
      if (!g.error.empty()) arr += ", \"error\": " + json_quote(g.error);
      arr += std::string(", \"passed\": ") + (g.passed ? "true}" : "false}");
    }
    kv_.emplace_back("gates", arr.empty() ? "[]" : arr + "\n  ]");
    add("gates_passed", gates.passed());
  }

  bool write(const std::string& bench_name) const {
    const std::string path = "BENCH_" + bench_name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", kv_[i].first.c_str(),
                   kv_[i].second.c_str(), i + 1 < kv_.size() ? "," : "");
    }
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Append the standard latency-percentile columns for one run under
/// `prefix` (e.g. "neat3x_"). Every bench JSON carries these for its key
/// runs so latency regressions are machine-visible, not just rate ones.
inline void add_latency(JsonWriter& j, const std::string& prefix,
                        const ClientRig::Aggregate& r) {
  j.add(prefix + "krps", r.krps);
  j.add(prefix + "requests", r.requests);
  j.add(prefix + "error_conns", r.error_conns);
  j.add(prefix + "latency_mean_ms", r.mean_latency_ms);
  j.add(prefix + "latency_p50_ms", r.p50_latency_ms);
  j.add(prefix + "latency_p95_ms", r.p95_latency_ms);
  j.add(prefix + "latency_p99_ms", r.p99_latency_ms);
  j.add(prefix + "latency_p999_ms", r.p999_latency_ms);
}

/// Summarize a host's recovery log: detection, restart-complete and
/// first-service latencies (ms percentiles). For benches that inject
/// faults.
inline void add_recovery(JsonWriter& j, const std::vector<RecoveryEvent>& log) {
  obs::Histogram detect;
  obs::Histogram recover;
  obs::Histogram first;
  for (const auto& ev : log) {
    if (ev.detected_at > 0) detect.record(ev.detection_latency());
    if (ev.recovered_at > 0) recover.record(ev.recovery_latency());
    if (ev.first_service_at > 0) first.record(ev.first_service_latency());
  }
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  j.add("recovery_events", static_cast<std::uint64_t>(log.size()));
  j.add("recovery_detect_p50_ms", ms(detect.quantile(0.5)));
  j.add("recovery_detect_p99_ms", ms(detect.quantile(0.99)));
  j.add("recovery_restart_p50_ms", ms(recover.quantile(0.5)));
  j.add("recovery_restart_p99_ms", ms(recover.quantile(0.99)));
  j.add("recovery_first_service_observed", first.count());
  j.add("recovery_first_service_p50_ms", ms(first.quantile(0.5)));
  j.add("recovery_first_service_p99_ms", ms(first.quantile(0.99)));
}

/// The process's current resident set in bytes (Linux /proc/self/statm;
/// 0 where unavailable). Unlike getrusage's peak, it can be sampled before
/// and after a phase to measure what that phase kept resident.
inline std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Host-speed reference for host-throughput gates on a shared machine.
///
/// A fixed CPU probe that shares no code with src/, so no change to the
/// simulator can speed it up: a timer heap, hash lookups over a ~1-MB
/// table, and a 1514-B frame copy with a byte sum. Timed right after each
/// simulated millisecond, it says how fast this machine ran at that
/// moment: a neighbour that takes the core, the caches or the clock speed
/// slows the probe and the slice alike. run() scales each slice's CPU time
/// to the speed at which one probe unit takes kReferenceSeconds.
///
/// Over 18 fig9 repetitions with and without self-made interference (a
/// CPU hog on the same core, memory walkers on the others), raw pkts per
/// wall-second spanned 2.6x and the calibrated rate 9%. Blending in a
/// memory-bound probe (dependent loads around 8 MiB) narrowed that to 6%
/// at a quarter weight and widened it at higher weights: not worth 8 MiB.
class HostCalibration {
 public:
  /// Probe-unit time on a quiet reference host (4-core VM, RelWithDebInfo).
  static constexpr double kReferenceSeconds = 2.5e-4;

  HostCalibration() : frame_in_(1514), frame_out_(1514) {
    for (std::size_t i = 0; i < frame_in_.size(); ++i) {
      frame_in_[i] = static_cast<std::uint8_t>(i * 7);
    }
    for (std::uint32_t i = 0; i < kKeys; ++i) keys_.emplace(scramble(i), i);
    timers_.reserve(kTimers);
    for (std::uint32_t i = 0; i < kTimers; ++i) {
      timers_.push_back(scramble(i) & 0xffff);
    }
    std::make_heap(timers_.begin(), timers_.end(), std::greater<>());
  }

  HostCalibration(const HostCalibration&) = delete;
  HostCalibration& operator=(const HostCalibration&) = delete;

  /// Host time a stretch of simulation took: wall and thread-CPU seconds,
  /// and the CPU seconds scaled to reference speed.
  struct HostTime {
    double wall{0.0};
    double cpu{0.0};
    double calibrated{0.0};
  };

  /// Advance `sim` by `span` as one run_until() would, timed in slices of
  /// one simulated millisecond with one probe unit after each. The slices
  /// are EventQueue::run_slice() pieces, so the simulation, and every
  /// engine count, is what run_until() gives. The probes are not in the
  /// returned times.
  HostTime run(sim::Simulator& sim, sim::SimTime span) {
    using Clock = std::chrono::steady_clock;
    HostTime t;
    const sim::SimTime horizon = sim.now() + span;
    for (sim::SimTime at = sim.now(); at < horizon;) {
      at = std::min(at + sim::kMillisecond, horizon);
      const auto w0 = Clock::now();
      const double c0 = thread_cpu_seconds();
      sim.queue().run_slice(at, horizon);
      const double cpu = thread_cpu_seconds() - c0;
      t.wall += std::chrono::duration<double>(Clock::now() - w0).count();
      t.cpu += cpu;
      t.calibrated += cpu * kReferenceSeconds / unit_seconds();
    }
    return t;
  }

  /// CPU seconds of one probe unit now.
  double unit_seconds() {
    const double t0 = thread_cpu_seconds();
    for (int k = 0; k < kRounds; ++k) {
      const std::uint64_t r = next();
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<>());
      timers_.back() += 1 + (r & 511);
      std::push_heap(timers_.begin(), timers_.end(), std::greater<>());
      sink_ += keys_.find(scramble(r % kKeys))->second;
      if (k % 8 == 0) {
        std::memcpy(frame_out_.data(), frame_in_.data(), frame_out_.size());
        for (std::size_t j = 0; j < frame_out_.size(); j += 32) {
          sink_ += frame_out_[j];
        }
        frame_in_[r % frame_in_.size()] ^= 1;
      }
    }
    asm volatile("" : : "g"(sink_) : "memory");  // keep the probe's work
    return thread_cpu_seconds() - t0;
  }

 private:
  static constexpr std::uint32_t kKeys = 1u << 15;
  static constexpr std::uint32_t kTimers = 4096;
  static constexpr int kRounds = 800;

  /// Host seconds of CPU this thread has used: unlike a wall clock it
  /// does not count time the thread spent descheduled.
  static double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  static std::uint64_t scramble(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    return x ^ (x >> 29);
  }

  std::uint64_t next() {  // xorshift64*
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }

  std::unordered_map<std::uint64_t, std::uint32_t> keys_;
  std::vector<std::uint64_t> timers_;
  std::vector<std::uint8_t> frame_in_;
  std::vector<std::uint8_t> frame_out_;
  std::uint64_t state_{0x9e3779b97f4a7c15ULL};
  std::uint64_t sink_{0};
};

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
  std::fflush(stdout);
}

}  // namespace neat::bench
