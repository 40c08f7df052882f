// bench::Gates: the one way a bench declares a contract. Each gate prints a
// GATE line, lands in the bench's JSON, and decides its exit code; a
// committed baseline that cannot be read fails the gate that needs it.
// The paper-figure engine (bench/sweep.hpp), driven by a runner that counts
// its calls: the keys it writes, its memo, tracing and name selection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sweep.hpp"

namespace {

using neat::bench::committed;
using neat::bench::Gates;
using neat::bench::json_number;
using neat::bench::JsonWriter;

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path =
      testing::TempDir() + std::to_string(getpid()) + "_" + name;
  std::ofstream(path) << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(BenchGates, OrderedOpsAreInclusiveOrStrictAtTheBoundary) {
  Gates g;
  EXPECT_TRUE(g.check("ge_equal", 5.0, ">=", 5.0));
  EXPECT_FALSE(g.check("ge_below", 4.999, ">=", 5.0));
  EXPECT_TRUE(g.check("le_equal", 5.0, "<=", 5.0));
  EXPECT_FALSE(g.check("le_above", 5.001, "<=", 5.0));
  EXPECT_FALSE(g.check("gt_equal", 5.0, ">", 5.0));
  EXPECT_TRUE(g.check("gt_above", 5.001, ">", 5.0));
  EXPECT_FALSE(g.check("lt_equal", 5.0, "<", 5.0));
  EXPECT_TRUE(g.check("lt_below", 4.999, "<", 5.0));
  EXPECT_FALSE(g.check("unknown_op", 1.0, "==", 1.0));
  ASSERT_EQ(g.all().size(), 9u);
  EXPECT_EQ(g.all().back().error, "unknown op ==");
}

TEST(BenchGates, NanNeverPasses) {
  Gates g;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(g.check("nan_ge", nan, ">=", 0.0));
  EXPECT_FALSE(g.check("nan_le", nan, "<=", 0.0));
  EXPECT_FALSE(g.within("nan_within", nan, 1.0, 0.05, 1.0));
}

TEST(BenchGates, WithinIsTwoSidedRelativeToTheLargerSideWithAFloor) {
  Gates g;
  // 5% of max(100, 105) = 5.25 >= |105 - 100|; same on the low side.
  EXPECT_TRUE(g.within("above", 105.0, 100.0, 0.05, 0.0));
  EXPECT_TRUE(g.within("below", 95.0, 100.0, 0.05, 0.0));
  EXPECT_FALSE(g.within("far_above", 105.5, 100.0, 0.05, 0.0));
  EXPECT_FALSE(g.within("far_below", 94.0, 100.0, 0.05, 0.0));
  // The absolute floor wins when it is the larger tolerance.
  EXPECT_TRUE(g.within("floor", 16.0, 0.0, 0.05, 16.0));
  EXPECT_FALSE(g.within("past_floor", 16.5, 0.0, 0.05, 16.0));
  // rel = abs = 0 is equality.
  EXPECT_TRUE(g.within("equal", 7.0, 7.0, 0.0, 0.0));
  EXPECT_FALSE(g.within("unequal", 8.0, 7.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(g.all().front().tol, 5.25);
}

TEST(BenchGates, ExitCodeIsZeroOnlyWhenEveryGatePasses) {
  Gates g;
  EXPECT_EQ(g.exit_code(), 0);  // no gates declared
  g.check("a", 1.0, ">=", 0.0);
  EXPECT_TRUE(g.passed());
  EXPECT_EQ(g.exit_code(), 0);
  g.check("b", 0.0, ">=", 1.0);
  g.check("c", 1.0, ">=", 0.0);
  EXPECT_FALSE(g.passed());
  EXPECT_EQ(g.exit_code(), 1);
}

TEST(BenchGates, ReadsANumberFromAFlatBenchJson) {
  const std::string path = write_file(
      "gates_ok.json",
      "{\n  \"fig9_krps_x\": 1,\n  \"fig9_krps\": 316.107,\n"
      "  \"last\": -2.5e+03\n}\n");
  const auto v = json_number(path, "fig9_krps");
  EXPECT_TRUE(v.error.empty()) << v.error;
  EXPECT_DOUBLE_EQ(v.value, 316.107);
  EXPECT_DOUBLE_EQ(json_number(path, "last").value, -2500.0);
  Gates g;
  EXPECT_TRUE(g.check("scaled", 300.0, ">=", v.scaled(0.90)));
  std::remove(path.c_str());
}

TEST(BenchGates, MissingFileKeyOrMalformedNumberFailsTheGate) {
  const std::string path = write_file(
      "gates_bad.json",
      "{\n  \"text\": \"12\",\n  \"flag\": true,\n  \"junk\": 12abc,\n"
      "  \"gates\": [{\"name\": \"absent\", \"value\": 1}]\n}\n");
  Gates g;
  const auto no_file = json_number(testing::TempDir() + "no_such.json", "k");
  EXPECT_NE(no_file.error.find("cannot read"), std::string::npos);
  EXPECT_FALSE(g.check("no_file", 1.0, ">=", no_file));
  // "absent" appears only as a gate name (a value), never as a key.
  const auto no_key = json_number(path, "absent");
  EXPECT_EQ(no_key.error, "no key absent in " + path);
  EXPECT_FALSE(g.check("no_key", 1.0, "<=", no_key.scaled(1.20)));
  for (const char* key : {"text", "flag", "junk"}) {
    const auto bad = json_number(path, key);
    EXPECT_NE(bad.error.find("is not a number"), std::string::npos) << key;
    EXPECT_FALSE(g.within(key, 0.0, bad, 1.0, 1e9)) << key;
  }
  // A committed baseline for a bench that has none fails the same way.
  const auto none = committed("no_such_bench", "k");
  EXPECT_NE(none.error.find("BENCH_no_such_bench.json"), std::string::npos);
  EXPECT_FALSE(g.check("no_committed", 0.0, ">=", none));
  EXPECT_EQ(g.exit_code(), 1);
  for (const auto& gate : g.all()) {
    EXPECT_FALSE(gate.passed) << gate.name;
    EXPECT_FALSE(gate.error.empty()) << gate.name;
  }
  std::remove(path.c_str());
}

TEST(BenchGates, JsonCarriesEveryGateWithEscapedNames) {
  Gates g;
  g.check("quote\"back\\slash", 2.0, ">=", 1.0);
  g.within("tab\tname", 1.0, 1.0, 0.05, 0.0);
  g.check("missing", 1.0, "<=", neat::bench::Operand(0.0, "no key k"));
  JsonWriter json;
  json.add("before", 1);
  json.add(g);
  const std::string dir = testing::TempDir();
  const std::string cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  const std::string bench = "gates_test_" + std::to_string(getpid());
  ASSERT_TRUE(json.write(bench));
  std::filesystem::current_path(cwd);
  const std::string path = dir + "BENCH_" + bench + ".json";
  const std::string text = read_file(path);
  EXPECT_NE(text.find("{\"name\": \"quote\\\"back\\\\slash\", \"value\": 2, "
                      "\"op\": \">=\", \"bound\": 1, \"passed\": true}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"name\": \"tab\\u0009name\", \"value\": 1, "
                      "\"op\": \"within\", \"bound\": 1, \"tol\": 0.05, "
                      "\"passed\": true}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"name\": \"missing\", \"value\": 1, \"op\": \"<=\", "
                      "\"bound\": null, \"error\": \"no key k\", "
                      "\"passed\": false}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"gates_passed\": false\n}"), std::string::npos)
      << text;
  EXPECT_DOUBLE_EQ(json_number(path, "before").value, 1.0);
  std::remove(path.c_str());
}

using neat::bench::Entry;
using neat::bench::Figure;
using neat::bench::kKrps;
using neat::bench::kLatency;
using neat::bench::Points;
using neat::bench::Run;
using Aggregate = neat::harness::ClientRig::Aggregate;

/// Stands in for bench::run: counts calls, records each call's trace path,
/// and returns krps = 10 x webs without simulating.
struct CountingRunner {
  int calls = 0;
  std::vector<std::string> traces;

  Points::Runner fn() {
    return [this](const Run& r, const std::string& trace) {
      ++calls;
      traces.push_back(trace);
      Aggregate a;
      a.krps = 10.0 * r.webs;
      return a;
    };
  }
};

Run webs(int n) {
  Run r;
  r.webs = n;
  return r;
}

/// Runs the engine in the test temp directory, where it writes its JSON.
class Sweep : public testing::Test {
 protected:
  void SetUp() override {
    cwd_ = std::filesystem::current_path();
    std::filesystem::current_path(testing::TempDir());
  }
  void TearDown() override { std::filesystem::current_path(cwd_); }

  /// A figure name unique to this process (the temp dir may be shared).
  static std::string unique(const std::string& name) {
    return name + "_" + std::to_string(getpid());
  }

  int paper(const std::vector<Entry>& entries,
            std::vector<std::string> args) {
    args.insert(args.begin(), "paper");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return neat::bench::paper_main(static_cast<int>(argv.size()), argv.data(),
                                   entries, points_);
  }

  /// The keys of BENCH_<name>.json in file order; removes the file.
  static std::vector<std::string> keys_of(const std::string& name) {
    const std::string path = "BENCH_" + name + ".json";
    const std::string text = read_file(path);
    std::remove(path.c_str());
    std::vector<std::string> keys;
    const std::regex key("\"([^\"]+)\": ");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), key);
         it != std::sregex_iterator(); ++it) {
      keys.push_back((*it)[1]);
    }
    return keys;
  }

  CountingRunner runner_;
  Points points_{runner_.fn()};

 private:
  std::filesystem::path cwd_;
};

TEST_F(Sweep, InfeasiblePointsWriteNoKeyAndKeysKeepDeclarationOrder) {
  Figure f{unique("sweep_order"), "order"};
  f.cols = {"webs", "A", "B"};
  f.grid = {{{"1", "a_w1_", webs(1), kKrps},
             {"1", "b_w1_", std::nullopt, kKrps}},
            {{"2", "a_w2_", webs(2), kKrps},
             {"2", "b_w2_", webs(3), kKrps | kLatency}}};
  f.list = {{"c", "c_", webs(4), kLatency, {{"paper", 1.5}}}};
  ASSERT_EQ(paper({neat::bench::sweep(f)}, {}), 0);
  EXPECT_EQ(runner_.calls, 3 + 1);
  const std::vector<std::string> latency = {
      "krps",           "requests",       "error_conns",
      "latency_mean_ms", "latency_p50_ms", "latency_p95_ms",
      "latency_p99_ms", "latency_p999_ms"};
  std::vector<std::string> want = {"a_w1_krps", "a_w2_krps", "b_w2_krps"};
  for (const auto& k : latency) want.push_back("b_w2_" + k);
  for (const auto& k : latency) want.push_back("c_" + k);
  want.push_back("c_paper");
  EXPECT_EQ(keys_of(f.name), want);
}

TEST_F(Sweep, TwoFiguresSharingARunSimulateItOnce) {
  Figure a{unique("sweep_a"), "a"};
  a.list = {{"x", "x_", webs(5)}};
  Figure b{unique("sweep_b"), "b"};
  b.list = {{"y", "y_", webs(6)}, {"x again", "x_", webs(5)}};
  ASSERT_EQ(paper({neat::bench::sweep(a), neat::bench::sweep(b)}, {}), 0);
  EXPECT_EQ(runner_.calls, 2);
  EXPECT_DOUBLE_EQ(json_number("BENCH_" + b.name + ".json", "x_krps").value,
                   50.0);
  keys_of(a.name);
  keys_of(b.name);
}

TEST_F(Sweep, ATracedPointFirstMemoisedUntracedStillGetsTraced) {
  Figure f{unique("sweep_trace"), "trace"};
  f.list = {{"sweep", "w7_", webs(7)},
            {.label = "headline",
             .key = "best_",
             .run = webs(7),
             .traced = true}};
  const std::vector<Entry> entries = {neat::bench::sweep(f)};
  ASSERT_EQ(paper(entries, {f.name, "--trace-out=t.json"}), 0);
  EXPECT_EQ(runner_.traces, (std::vector<std::string>{"", "t.json"}));
  // Traced once, the point is memoised like any other.
  ASSERT_EQ(paper(entries, {f.name, "--trace-out", "t.json"}), 0);
  EXPECT_EQ(runner_.calls, 2);
  keys_of(f.name);
}

TEST_F(Sweep, UnknownFigureNameOrATraceOfManyFiguresExitsTwo) {
  Figure f{unique("sweep_names"), "names"};
  f.list = {{"x", "x_", webs(1)}};
  const std::vector<Entry> entries = {neat::bench::sweep(f)};
  testing::internal::CaptureStderr();
  EXPECT_EQ(paper(entries, {f.name, "no_such_figure"}), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("no_such_figure"), std::string::npos) << err;
  EXPECT_NE(err.find(f.name), std::string::npos) << err;
  EXPECT_EQ(paper({entries[0], entries[0]}, {"--trace-out=t.json"}), 2);
  EXPECT_EQ(runner_.calls, 0);
}

}  // namespace
