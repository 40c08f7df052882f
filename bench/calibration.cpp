// Calibration probe: prints the headline throughput of each stack
// configuration next to the paper's measured value. Used to tune the cost
// model in src/neat/costs.hpp and src/baseline/linux.hpp; run it after any
// cost change. Not one of the paper's tables itself.
#include <cstdio>

#include "bench_util.hpp"
#include "harness/testbed.hpp"

using namespace neat;
using namespace neat::harness;

namespace {

constexpr sim::SimTime kWarmup = 200 * sim::kMillisecond;
constexpr sim::SimTime kMeasure = 300 * sim::kMillisecond;

/// Consumed by the first run when --trace-out is given.
std::string g_trace;

ClientRig::Aggregate neat_amd(bool multi, int replicas, int webs) {
  Testbed::Config cfg;
  cfg.seed = 12345;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.multi_component = multi;
  so.replicas = replicas;
  so.webs = webs;
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 12;
  co.concurrency_per_gen = 24;
  ClientRig client = build_client(tb, co, webs);
  prepopulate_arp(server, client);
  ClientRig::Aggregate res = run_window(tb, client, kWarmup, kMeasure);
  bench::write_trace(tb.sim, g_trace);
  g_trace.clear();
  return res;
}

ClientRig::Aggregate neat_xeon(bool multi, int replicas, int webs,
                               bool ht) {
  Testbed::Config cfg;
  cfg.seed = 12345;
  cfg.server_machine = sim::intel_xeon_e5520();
  Testbed tb(cfg);
  NeatServerOptions so;
  so.multi_component = multi;
  so.replicas = replicas;
  so.webs = webs;
  so.placement = xeon_placement(multi, replicas, webs, ht);
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 12;
  co.concurrency_per_gen = 24;
  ClientRig client = build_client(tb, co, webs);
  prepopulate_arp(server, client);
  ClientRig::Aggregate res = run_window(tb, client, kWarmup, kMeasure);
  bench::write_trace(tb.sim, g_trace);
  g_trace.clear();
  return res;
}

ClientRig::Aggregate linux_run(const sim::MachineParams& machine, int webs) {
  Testbed::Config cfg;
  cfg.seed = 12345;
  cfg.server_machine = machine;
  Testbed tb(cfg);
  LinuxServerOptions so;
  so.webs = webs;
  ServerRig server = build_linux_server(tb, so);
  ClientOptions co;
  co.generators = webs > 12 ? webs : 12;
  co.concurrency_per_gen = 24;
  ClientRig client = build_client(tb, co, webs);
  prepopulate_arp(server, client);
  ClientRig::Aggregate res = run_window(tb, client, kWarmup, kMeasure);
  bench::write_trace(tb.sim, g_trace);
  g_trace.clear();
  return res;
}

bench::JsonWriter g_json;

void row(const char* name, const char* slug, double paper,
         const ClientRig::Aggregate& r) {
  std::printf("%-28s paper=%6.1f krps   measured=%6.1f krps   errs=%llu\n",
              name, paper, r.krps, (unsigned long long)r.error_conns);
  std::fflush(stdout);
  const std::string prefix = std::string(slug) + "_";
  bench::add_latency(g_json, prefix, r);
  g_json.add(prefix + "paper_krps", paper);
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = bench::trace_out_arg(argc, argv);
  std::printf("=== calibration: headline configurations ===\n");
  row("AMD  Linux best (12 srv)", "amd_linux_best", 224.0,
      linux_run(sim::amd_opteron_6168(), 12));
  row("AMD  NEaT 3x, 6 webs", "amd_neat3x", 302.0, neat_amd(false, 3, 6));
  row("AMD  NEaT 2x, 5 webs", "amd_neat2x", 250.0, neat_amd(false, 2, 5));
  row("AMD  Multi 1x, 4 webs", "amd_multi1x", 200.0, neat_amd(true, 1, 4));
  row("AMD  Multi 2x, 5 webs", "amd_multi2x", 250.0, neat_amd(true, 2, 5));
  row("Xeon Linux best (16 srv)", "xeon_linux_best", 328.0,
      linux_run(sim::intel_xeon_e5520(), 16));
  row("Xeon NEaT 4x HT, 9 webs", "xeon_neat4x_ht", 372.0,
      neat_xeon(false, 4, 9, true));
  row("Xeon Multi 1x, 4 webs", "xeon_multi1x", 240.0,
      neat_xeon(true, 1, 4, false));
  row("Xeon Multi 2x HT, 8 webs", "xeon_multi2x_ht", 322.0,
      neat_xeon(true, 2, 8, true));
  g_json.write("calibration");
  return 0;
}
