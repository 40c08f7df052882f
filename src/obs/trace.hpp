// Observability: the flow-event tracer.
//
// A bounded ring of timestamped events covering the life of a flow and of
// the control plane: SYN received, replica steered, handshake done, request
// served, crash, detection, restart, scale-up/down. The ring keeps the
// *newest* events when it overflows — the interesting part of a long run is
// almost always its tail (the fault you injected last, the connections that
// never recovered). Set-up events (emit_setup: the topology a run starts
// from) sit outside the ring, so the tail is still read against them.
//
// Tracing is opt-in: a tracer records nothing until a consumer (a bench's
// --trace-out, a test that reads events) calls set_enabled(true) before the
// run starts. Emit sites test enabled() before they build an event or its
// argument string, so a run nobody traces pays one branch per site and no
// memory.
//
// Export is chrome://tracing's JSON array format ("traceEvents"), loadable
// in chrome://tracing or https://ui.perfetto.dev. Timestamps are emitted in
// microseconds (the format's unit) at nanosecond resolution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace neat::obs {

/// One trace event. `name` and `category` must be string literals (or
/// otherwise outlive the tracer) — events are recorded on hot paths and must
/// not allocate for the common no-argument case. `args_json` is the body of
/// the chrome "args" object, e.g. `"queue":3,"via":"rss"`; empty for none.
struct TraceEvent {
  std::uint64_t ts_ns{0};
  std::uint64_t dur_ns{0};  ///< 0 → instant event ("i"); else complete ("X")
  const char* category{""};
  const char* name{""};
  int pid{0};  ///< machine (0 = server, 1 = client)
  int tid{0};  ///< replica / queue / generator id where meaningful
  std::string args_json;
};

class FlowTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit FlowTracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity ? capacity : 1) {}

  /// Off by default; the ring fills only after set_enabled(true).
  void set_enabled(bool v) { enabled_ = v; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a set-up fact the rest of the trace is read against (the
  /// membership a cluster started with). Kept outside the ring: the
  /// overwrite of the oldest events never drops it.
  void emit_setup(TraceEvent ev) {
    if (!enabled_) return;
    ++emitted_;
    setup_.push_back(std::move(ev));
  }

  void emit(TraceEvent ev) {
    if (!enabled_) return;
    ++emitted_;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(ev));
      return;
    }
    // Overwrite the oldest slot; head_ marks the new logical start.
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
  }

  [[nodiscard]] std::size_t size() const {
    return setup_.size() + ring_.size();
  }
  /// Of the ring; set-up events come on top.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Total events ever emitted (>= size() once the ring wraps).
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  /// The set-up events, then the ring's in emission order (oldest-first).
  /// Duration events ("X") are stamped with their *start* time but emitted
  /// at completion, so timestamps here are not necessarily sorted — the
  /// JSON export sorts.
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out(setup_);
    out.reserve(size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    setup_.clear();
    ring_.clear();
    head_ = 0;
    emitted_ = 0;
  }

  /// chrome://tracing JSON object: {"traceEvents":[...],"displayTimeUnit":"ns"}
  void write_chrome_json(std::ostream& os) const {
    std::vector<TraceEvent> evs = events();
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& ev : evs) {
      if (!first) os << ",";
      first = false;
      char ts[64];
      // Microseconds with nanosecond resolution.
      std::snprintf(ts, sizeof(ts), "%llu.%03llu",
                    static_cast<unsigned long long>(ev.ts_ns / 1000),
                    static_cast<unsigned long long>(ev.ts_ns % 1000));
      os << "{\"name\":\"" << ev.name << "\",\"cat\":\"" << ev.category
         << "\",\"ph\":\"" << (ev.dur_ns ? 'X' : 'i') << "\",\"ts\":" << ts
         << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
      if (ev.dur_ns) {
        char dur[64];
        std::snprintf(dur, sizeof(dur), "%llu.%03llu",
                      static_cast<unsigned long long>(ev.dur_ns / 1000),
                      static_cast<unsigned long long>(ev.dur_ns % 1000));
        os << ",\"dur\":" << dur;
      } else {
        os << ",\"s\":\"t\"";  // instant-event scope: thread
      }
      if (!ev.args_json.empty()) os << ",\"args\":{" << ev.args_json << "}";
      os << "}";
    }
    os << "],\"displayTimeUnit\":\"ns\"}\n";
  }

  [[nodiscard]] std::string chrome_json() const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> setup_;
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};
  bool enabled_{false};
  std::uint64_t emitted_{0};
};

inline std::string FlowTracer::chrome_json() const {
  std::ostringstream ss;
  write_chrome_json(ss);
  return ss.str();
}

}  // namespace neat::obs
