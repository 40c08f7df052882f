// Calibration probe: prints the headline throughput of each stack
// configuration next to the paper's measured value. Used to tune the cost
// model in src/neat/costs.hpp and src/baseline/linux.hpp; run it after any
// cost change. Not one of the paper's tables itself.
#include <cstdio>

#include "bench_util.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

NeatRun neat_amd(bool multi, int replicas, int webs) {
  NeatRun r;
  r.multi = multi;
  r.replicas = replicas;
  r.webs = webs;
  return r;
}

NeatRun neat_xeon(bool multi, int replicas, int webs, bool ht) {
  NeatRun r = neat_amd(multi, replicas, webs);
  r.machine = sim::intel_xeon_e5520();
  r.use_xeon_placement = true;
  r.xeon_ht = ht;
  return r;
}

LinuxRun linux_on(const sim::MachineParams& machine, int webs) {
  LinuxRun r;
  r.machine = machine;
  r.webs = webs;
  return r;
}

JsonWriter g_json;

void row(const char* name, const char* slug, double paper,
         const ClientRig::Aggregate& r) {
  std::printf("%-28s paper=%6.1f krps   measured=%6.1f krps   errs=%llu\n",
              name, paper, r.krps, (unsigned long long)r.error_conns);
  std::fflush(stdout);
  const std::string prefix = std::string(slug) + "_";
  add_latency(g_json, prefix, r);
  g_json.add(prefix + "paper_krps", paper);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== calibration: headline configurations ===\n");
  // --trace-out traces the first run only.
  LinuxRun first = linux_on(sim::amd_opteron_6168(), 12);
  first.trace_out = trace_out_arg(argc, argv);
  row("AMD  Linux best (12 srv)", "amd_linux_best", 224.0, run_linux(first));
  row("AMD  NEaT 3x, 6 webs", "amd_neat3x", 302.0,
      run_neat(neat_amd(false, 3, 6)));
  row("AMD  NEaT 2x, 5 webs", "amd_neat2x", 250.0,
      run_neat(neat_amd(false, 2, 5)));
  row("AMD  Multi 1x, 4 webs", "amd_multi1x", 200.0,
      run_neat(neat_amd(true, 1, 4)));
  row("AMD  Multi 2x, 5 webs", "amd_multi2x", 250.0,
      run_neat(neat_amd(true, 2, 5)));
  row("Xeon Linux best (16 srv)", "xeon_linux_best", 328.0,
      run_linux(linux_on(sim::intel_xeon_e5520(), 16)));
  row("Xeon NEaT 4x HT, 9 webs", "xeon_neat4x_ht", 372.0,
      run_neat(neat_xeon(false, 4, 9, true)));
  row("Xeon Multi 1x, 4 webs", "xeon_multi1x", 240.0,
      run_neat(neat_xeon(true, 1, 4, false)));
  row("Xeon Multi 2x HT, 8 webs", "xeon_multi2x_ht", 322.0,
      run_neat(neat_xeon(true, 2, 8, true)));
  g_json.write("calibration");
  return 0;
}
