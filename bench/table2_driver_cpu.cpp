// Table 2: 10G NIC driver CPU usage breakdown under a range of loads
// (Xeon, single-component stack with 3 replicas, as in the paper).
//
// Paper rows (CPU load | active in kernel | polling | web krps):
//    6%  | 33.3% | 51.8% |   3
//   60%  | 14.2% | 27.9% |  45
//   88%  |  5.4% | 19.7% |  90
//   97%  |  0.1% |  7.4% | 242
//
// A mostly idle driver spends its active time suspending/resuming (MWAIT is
// privileged -> kernel) and polling; under load the wasted share shrinks
// and CPU load levels off near 100% while throughput keeps growing.
#include "bench_util.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

struct Row {
  double target_krps;
  std::size_t conc_per_gen;
  sim::SimTime think;
};

}  // namespace

int main(int argc, char** argv) {
  header("Table 2: 10G driver CPU usage breakdown (Xeon, 3 replicas)");
  std::string trace = trace_out_arg(argc, argv);
  JsonWriter json;

  const Row rows[] = {
      {3.0, 1, 3 * sim::kMillisecond},
      {45.0, 8, 900 * sim::kMicrosecond},
      {90.0, 16, 800 * sim::kMicrosecond},
      {242.0, 24, 0},
  };

  std::printf("%-10s %-10s %-16s %-10s %-10s\n", "CPU load", "kernel",
              "polling", "web krps", "(target)");
  for (const auto& row : rows) {
    Testbed::Config cfg;
    cfg.seed = 777;
    cfg.server_machine = sim::intel_xeon_e5520();
    Testbed tb(cfg);
    enable_trace(tb.sim, trace);
    NeatServerOptions so;
    so.replicas = 3;
    so.webs = 6;
    so.placement = xeon_placement(false, 3, 6, true);
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 6;
    co.concurrency_per_gen = row.conc_per_gen;
    ClientRig client = build_client(tb, co, 6);
    for (auto& g : client.gens) g->config().session.think_time = row.think;
    prepopulate_arp(server, client);

    tb.sim.run_for(kWarmup);
    client.mark();
    const auto& drv = server.neat->driver();
    const auto s0 = drv.stats();
    tb.sim.run_for(kMeasure);
    const auto s1 = drv.stats();
    const auto agg = client.aggregate(kMeasure);

    const double proc = static_cast<double>(s1.processing - s0.processing);
    const double poll = static_cast<double>(s1.polling - s0.polling);
    const double kern = static_cast<double>(s1.kernel - s0.kernel);
    const double active = proc + poll + kern;
    const double budget = cfg.server_machine.freq.ghz * 1e9 *
                          sim::to_seconds(kMeasure) /
                          cfg.server_machine.work_scale;
    std::printf("%8.1f%% %8.1f%% %14.1f%% %10.1f %10.0f\n",
                100.0 * active / budget,
                active > 0 ? 100.0 * kern / active : 0.0,
                active > 0 ? 100.0 * poll / active : 0.0, agg.krps,
                row.target_krps);
    std::fflush(stdout);
    write_trace(tb.sim, trace);
    trace.clear();  // trace only the first row

    char tag[32];
    std::snprintf(tag, sizeof(tag), "target%.0f_", row.target_krps);
    const std::string prefix = tag;
    json.add(prefix + "cpu_load_pct", 100.0 * active / budget);
    json.add(prefix + "kernel_pct",
             active > 0 ? 100.0 * kern / active : 0.0);
    json.add(prefix + "polling_pct",
             active > 0 ? 100.0 * poll / active : 0.0);
    json.add(prefix + "krps", agg.krps);
    json.add(prefix + "latency_mean_ms", agg.mean_latency_ms);
    json.add(prefix + "latency_p50_ms", agg.p50_latency_ms);
    json.add(prefix + "latency_p95_ms", agg.p95_latency_ms);
    json.add(prefix + "latency_p99_ms", agg.p99_latency_ms);
    json.add(prefix + "latency_p999_ms", agg.p999_latency_ms);
  }
  json.write("table2_driver_cpu");
  std::printf("\npaper shape: CPU load grows sharply then levels off; the "
              "kernel and polling shares shrink as load rises\n");
  return 0;
}
