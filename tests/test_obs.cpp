// Observability-layer tests: histogram bucket layout and percentile
// behaviour, metrics registry handle stability, the flow tracer's bounded
// ring, and the chrome://tracing JSON export — including an end-to-end run
// checking that the stack's hot paths actually populate the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"

namespace neat::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram: bucket layout
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const int i = Histogram::index(v);
    EXPECT_EQ(Histogram::bucket_lower(i), v);
    EXPECT_EQ(Histogram::bucket_upper(i), v);
  }
}

TEST(Histogram, BucketBoundariesRoundTrip) {
  // Every bucket's lower and upper edge must map back to that bucket, and
  // the buckets must tile the value space contiguously.
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower(i);
    const std::uint64_t hi = Histogram::bucket_upper(i);
    ASSERT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(Histogram::index(lo), i);
    EXPECT_EQ(Histogram::index(hi), i);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_lower(i + 1), hi + 1)
          << "gap/overlap after bucket " << i;
    } else {
      EXPECT_EQ(hi, ~std::uint64_t{0});  // final bucket reaches the top
    }
  }
}

TEST(Histogram, ValuesLandInsideTheirBucket) {
  // Log sweep across the whole 64-bit range plus the edges around every
  // power of two.
  std::vector<std::uint64_t> probes;
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t p = std::uint64_t{1} << b;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
    probes.push_back(p + p / 3);
  }
  probes.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : probes) {
    const int i = Histogram::index(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucket_lower(i), v);
    EXPECT_GE(Histogram::bucket_upper(i), v);
  }
}

TEST(Histogram, RelativeErrorBoundedBySixteenth) {
  // The log-linear contract: a bucket's width never exceeds 1/16 of its
  // lower edge, so any reported quantile is within ~6% of the true value.
  for (int i = Histogram::kSubBuckets; i < Histogram::kBuckets; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower(i);
    const std::uint64_t width = Histogram::bucket_upper(i) - lo;
    EXPECT_LE(width, lo / 16) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------------
// Histogram: recording and quantiles
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, MeanMinMaxAreExact) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(90);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 90u);
  EXPECT_DOUBLE_EQ(h.mean(), 40.0);
}

TEST(Histogram, QuantilesAreMonotonicAndClampedToMax) {
  sim::Rng rng(99);
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    // Heavy-tailed: exercise many bucket groups.
    h.record(1 + rng.below(std::uint64_t{1} << (1 + rng.below(40))));
  }
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.001) {
    const std::uint64_t v = h.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotonic at q=" << q;
    prev = v;
  }
  EXPECT_EQ(h.quantile(1.0), h.max());
  EXPECT_GE(h.quantile(0.0), h.min() == 0 ? 0 : 0u);
}

TEST(Histogram, QuantileErrorStaysWithinBucketBound) {
  // Uniform distribution over [0, 100000): the q-th quantile must come out
  // within one bucket width (≤ 1/16 relative error) of the true value.
  Histogram h;
  for (std::uint64_t v = 0; v < 100000; ++v) h.record(v);
  for (const double q : {0.25, 0.5, 0.9, 0.99}) {
    const auto truth = static_cast<double>(100000 - 1) * q;
    const auto got = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(got, truth, truth / 16.0 + 1.0) << "q=" << q;
  }
}

TEST(Histogram, MergeEqualsRecordingIntoOne) {
  sim::Rng rng(7);
  Histogram a, b, all;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(std::uint64_t{1} << 30);
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (const double q : {0.1, 0.5, 0.95, 0.999, 1.0}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, HandlesAreStableAndNamed) {
  Registry reg;
  Counter& c = reg.counter("a.count");
  c.inc(3);
  // Same name → same object; pointer stability is what lets instrumented
  // code cache the handle.
  EXPECT_EQ(&reg.counter("a.count"), &c);
  EXPECT_EQ(reg.find_counter("a.count")->value(), 3u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);

  Histogram& h = reg.histogram("a.lat");
  h.record(42);
  EXPECT_EQ(&reg.histogram("a.lat"), &h);
  EXPECT_EQ(reg.find_histogram("a.lat")->count(), 1u);

  Gauge& g = reg.gauge("a.hwm");
  g.set_max(5.0);
  g.set_max(2.0);  // high-water keeps the max
  EXPECT_EQ(reg.find_gauge("a.hwm")->value(), 5.0);
}

// ---------------------------------------------------------------------------
// FlowTracer: bounded ring
// ---------------------------------------------------------------------------

TEST(FlowTracer, RingOverflowKeepsNewestInOrder) {
  FlowTracer t(8);
  t.set_enabled(true);
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.emit({i * 100, 0, "test", "ev", 0, static_cast<int>(i), ""});
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.emitted(), 20u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].ts_ns, (12 + i) * 100);  // oldest 12 were overwritten
    if (i > 0) {
      EXPECT_GE(evs[i].ts_ns, evs[i - 1].ts_ns);
    }
  }
}

TEST(FlowTracer, DisabledTracerRecordsNothing) {
  FlowTracer t(8);
  EXPECT_FALSE(t.enabled()) << "tracing is opt-in";
  t.emit({1, 0, "test", "ev", 0, 0, ""});
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
  t.set_enabled(true);
  t.emit({2, 0, "test", "ev", 0, 0, ""});
  t.set_enabled(false);
  t.emit({3, 0, "test", "ev", 0, 0, ""});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.emitted(), 1u);
}

// ---------------------------------------------------------------------------
// chrome://tracing JSON export
// ---------------------------------------------------------------------------

/// Minimal recursive-descent JSON parser — enough to prove the trace export
/// is well-formed without pulling in a dependency. Returns false on any
/// syntax error.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string_view want(lit);
    if (s_.compare(pos_, want.size(), want) != 0) return false;
    pos_ += want.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : 0; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_{0};
};

/// Pull every `"ts":<number>` out of a chrome trace JSON string.
std::vector<double> extract_timestamps(const std::string& json) {
  std::vector<double> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

TEST(FlowTracer, ChromeJsonIsParseable) {
  FlowTracer t(16);
  t.set_enabled(true);
  t.emit({1500, 0, "neat", "crash", 0, 2, "\"component\":\"tcp\""});
  t.emit({2750, 1250, "http", "request_served", 0, 7, ""});
  t.emit({4000, 0, "nic", "syn_received", 0, 0, "\"queue\":3"});
  const std::string json = t.chrome_json();
  EXPECT_TRUE(JsonChecker(json).parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"args\":{\"component\":\"tcp\"}"), std::string::npos);
  // µs timestamps at ns resolution: 1500 ns → 1.500 µs.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.250"), std::string::npos);
}

TEST(FlowTracer, ChromeJsonTimestampsAreOrdered) {
  FlowTracer t(32);
  t.set_enabled(true);
  for (std::uint64_t i = 0; i < 64; ++i) {  // wraps: oldest half dropped
    t.emit({i * 1000, 0, "test", "ev", 0, 0, ""});
  }
  const std::string json = t.chrome_json();
  ASSERT_TRUE(JsonChecker(json).parse());
  const auto ts = extract_timestamps(json);
  ASSERT_EQ(ts.size(), 32u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  EXPECT_DOUBLE_EQ(ts.front(), 32.0);  // event 32 is the oldest survivor
}

TEST(FlowTracer, EmptyTracerStillEmitsValidJson) {
  FlowTracer t(4);
  EXPECT_TRUE(JsonChecker(t.chrome_json()).parse());
}

// ---------------------------------------------------------------------------
// End-to-end: the stack populates the registry and tracer
// ---------------------------------------------------------------------------

TEST(ObsEndToEnd, WorkloadAndCrashPopulateMetricsAndTrace) {
  using namespace neat::harness;
  Testbed::Config cfg;
  cfg.seed = 31337;
  Testbed tb(cfg);
  tb.sim.tracer().set_enabled(true);  // this test reads the trace
  NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 2;
  co.concurrency_per_gen = 8;
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);

  tb.sim.run_for(100 * sim::kMillisecond);
  server.neat->inject_crash(server.neat->replica(0), Component::kWhole);
  tb.sim.run_for(300 * sim::kMillisecond);

  const obs::Registry& reg = tb.sim.metrics();
  for (const char* name :
       {"http.request_latency_ns", "wl.httperf0.request_latency_ns",
        "ipc.queue_delay_ns", "tcp.rtt_ns",
        "recovery.crash_to_detect_ns", "recovery.crash_to_recovered_ns",
        "recovery.crash_to_first_service_ns"}) {
    const obs::Histogram* h = reg.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
  }
  ASSERT_NE(reg.find_counter("tcp.handshakes"), nullptr);
  EXPECT_GT(reg.find_counter("tcp.handshakes")->value(), 0u);
  const auto* rss = reg.find_counter("nic.steer_rss");
  const auto* filt = reg.find_counter("nic.steer_filter_hit");
  ASSERT_TRUE(rss != nullptr || filt != nullptr);

  // The trace must contain the full recovery arc, time-ordered, and the
  // export must be valid JSON.
  const auto evs = tb.sim.tracer().events();
  ASSERT_FALSE(evs.empty());
  auto count_of = [&](const std::string& name) {
    return std::count_if(evs.begin(), evs.end(), [&](const obs::TraceEvent& e) {
      return name == e.name;
    });
  };
  EXPECT_GE(count_of("syn_received"), 1);
  EXPECT_GE(count_of("handshake_done"), 1);
  EXPECT_GE(count_of("request_served"), 1);
  EXPECT_EQ(count_of("crash"), 1);
  EXPECT_EQ(count_of("restart"), 1);
  EXPECT_EQ(count_of("first_service"), 1);
  const std::string json = tb.sim.tracer().chrome_json();
  EXPECT_TRUE(JsonChecker(json).parse());
  const auto ts = extract_timestamps(json);
  ASSERT_EQ(ts.size(), evs.size());
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()))
      << "chrome export must be time-ordered";
}

TEST(ObsEndToEnd, UntracedRunRecordsMetricsButNoTraceEvents) {
  // Nobody enabled the tracer: the same workload and crash leave the ring
  // empty (no event built, no memory spent) while metrics still land.
  using namespace neat::harness;
  Testbed::Config cfg;
  cfg.seed = 31337;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.replicas = 2;
  so.webs = 2;
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 2;
  co.concurrency_per_gen = 8;
  ClientRig client = build_client(tb, co, 2);
  prepopulate_arp(server, client);
  tb.sim.run_for(100 * sim::kMillisecond);
  server.neat->inject_crash(server.neat->replica(0), Component::kWhole);
  tb.sim.run_for(100 * sim::kMillisecond);

  EXPECT_EQ(tb.sim.tracer().emitted(), 0u);
  EXPECT_EQ(tb.sim.tracer().size(), 0u);
  const obs::Histogram* h =
      tb.sim.metrics().find_histogram("http.request_latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
  ASSERT_NE(tb.sim.metrics().find_counter("tcp.handshakes"), nullptr);
  EXPECT_GT(tb.sim.metrics().find_counter("tcp.handshakes")->value(), 0u);
}

}  // namespace
}  // namespace neat::obs
