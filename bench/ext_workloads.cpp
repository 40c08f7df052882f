// Extension: workload engine campaigns (beyond the paper's fixed-size
// closed-loop httperf runs).
//
// Runs the built-in wl:: scenario library — multi-tenant open-loop traffic
// with heavy-tailed sizes, MMPP bursts, diurnal ramps, a flash crowd
// against the AutoScaler, and three adversaries (spoofed SYN flood,
// slowloris, connection churn) — and reports per-tenant goodput and
// CO-corrected latency percentiles, plus the replica-count timeline.
//
// Usage: ext_workloads [--quick] [--list] [--scenario=NAME]
//
// Exit code is non-zero if the flash-crowd scenario fails to demonstrate
// scale-up during the surge and lazy termination after it — the
// autoscaling contract this bench exists to pin down.
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "wl/scenario.hpp"

namespace {

using neat::bench::Gates;
using neat::bench::JsonWriter;
using neat::wl::Scenario;
using neat::wl::ScenarioResult;
using neat::wl::TenantResult;

void print_result(const ScenarioResult& r) {
  std::printf("%-28s %8s %8s %8s %8s %9s %7s %7s %7s\n", "tenant", "sess",
              "done", "aband", "shed", "krps", "p50ms", "p99ms", "p999ms");
  for (const TenantResult& t : r.tenants) {
    std::printf("%-28s %8llu %8llu %8llu %8llu %9.1f %7.2f %7.2f %7.2f\n",
                t.name.c_str(),
                static_cast<unsigned long long>(t.sessions_started),
                static_cast<unsigned long long>(t.sessions_completed),
                static_cast<unsigned long long>(t.sessions_abandoned),
                static_cast<unsigned long long>(t.sessions_shed), t.krps,
                t.p50_ms, t.p99_ms, t.p999_ms);
  }
  std::string timeline;
  for (const auto& [t, n] : r.replica_timeline) {
    timeline += std::to_string(t / neat::sim::kMillisecond) + ":" +
                std::to_string(n) + " ";
  }
  std::printf("replicas over time (ms:count): %s\n", timeline.c_str());
  std::printf(
      "scale_ups=%llu scale_downs=%llu lazy_term=%llu max_replicas=%zu "
      "end_replicas=%zu\n",
      static_cast<unsigned long long>(r.scale_ups),
      static_cast<unsigned long long>(r.scale_downs),
      static_cast<unsigned long long>(r.lazy_terminations), r.max_replicas,
      r.end_replicas);
  if (r.syns_sent > 0) {
    std::printf("syns_sent=%llu filters_retired=%llu flow_filters_end=%llu\n",
                static_cast<unsigned long long>(r.syns_sent),
                static_cast<unsigned long long>(r.server_filters_retired),
                static_cast<unsigned long long>(r.server_flow_filters_end));
  }
  if (r.churn_conns > 0) {
    std::printf("churn_conns=%llu filters_retired=%llu\n",
                static_cast<unsigned long long>(r.churn_conns),
                static_cast<unsigned long long>(r.server_filters_retired));
  }
  if (r.slowloris_held > 0) {
    std::printf("slowloris_held=%llu\n",
                static_cast<unsigned long long>(r.slowloris_held));
  }
  std::fflush(stdout);
}

void add_json(JsonWriter& j, const ScenarioResult& r) {
  const std::string p = r.name + ".";
  for (const TenantResult& t : r.tenants) {
    const std::string tp = p + t.name + "_";
    j.add(tp + "sessions", t.sessions_started);
    j.add(tp + "completed", t.sessions_completed);
    j.add(tp + "abandoned", t.sessions_abandoned);
    j.add(tp + "shed", t.sessions_shed);
    j.add(tp + "requests", t.requests);
    j.add(tp + "krps", t.krps);
    j.add(tp + "goodput_mbps", t.goodput_mbps);
    j.add(tp + "p50_ms", t.p50_ms);
    j.add(tp + "p99_ms", t.p99_ms);
    j.add(tp + "p999_ms", t.p999_ms);
    j.add(tp + "raw_p99_ms", t.raw_p99_ms);
    j.add(tp + "slo_violations", t.slo_violations);
  }
  std::string timeline;
  for (const auto& [t, n] : r.replica_timeline) {
    if (!timeline.empty()) timeline += " ";
    timeline += std::to_string(t / neat::sim::kMillisecond) + ":" +
                std::to_string(n);
  }
  j.add(p + "replica_timeline", timeline);
  j.add(p + "max_replicas", static_cast<std::uint64_t>(r.max_replicas));
  j.add(p + "end_replicas", static_cast<std::uint64_t>(r.end_replicas));
  j.add(p + "scale_ups", r.scale_ups);
  j.add(p + "scale_downs", r.scale_downs);
  j.add(p + "lazy_terminations", r.lazy_terminations);
  if (r.syns_sent > 0) j.add(p + "syns_sent", r.syns_sent);
  if (r.churn_conns > 0) j.add(p + "churn_conns", r.churn_conns);
  if (r.slowloris_held > 0) j.add(p + "slowloris_held", r.slowloris_held);
  j.add(p + "filters_retired", r.server_filters_retired);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") quick = true;
    if (a == "--list") {
      for (const auto& s : neat::wl::builtin_scenarios()) {
        std::printf("%-14s %s\n", s.name.c_str(), s.summary.c_str());
      }
      return 0;
    }
    if (a.rfind("--scenario=", 0) == 0) only = a.substr(11);
  }

  JsonWriter json;
  Gates gates;
  int ran = 0;
  for (const auto& s : neat::wl::builtin_scenarios()) {
    if (!only.empty() && s.name != only) continue;
    neat::bench::header(("workload scenario: " + s.name + " — " + s.summary)
                            .c_str());
    const Scenario sc = s.make(quick);
    const ScenarioResult r = neat::wl::run_scenario(sc);
    print_result(r);
    add_json(json, r);
    ++ran;
    if (s.name == "flash_crowd") {
      // The autoscaling contract: the surge forces extra replicas, the
      // calm after it lazily terminates them again.
      gates.check("flash_crowd.scale_ups", r.scale_ups, ">", 0);
      gates.check("flash_crowd.max_replicas", r.max_replicas, ">", 1);
      gates.check("flash_crowd.lazy_terminations", r.lazy_terminations, ">",
                  0);
      gates.check("flash_crowd.end_replicas", r.end_replicas, "<",
                  r.max_replicas);
    }
  }
  if (ran == 0) {
    std::fprintf(stderr, "no scenario named '%s' (try --list)\n",
                 only.c_str());
    return 2;
  }
  json.add("quick", quick);
  json.add(gates);
  json.write("ext_workloads");
  return gates.exit_code();
}
