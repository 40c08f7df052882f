// bench::Gates: the one way a bench declares a contract. Each gate prints a
// GATE line, lands in the bench's JSON, and decides its exit code; a
// committed baseline that cannot be read fails the gate that needs it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench_util.hpp"

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

}  // namespace
