// Table 3: fault-injection experiment.
//
// 100 runs; each injects a fault at a random (code-size-weighted) point in
// the stack of a running system under the scalability workload, then lets
// NEaT's recovery proceed. Paper results:
//   fully transparent recovery : 53.8%
//   TCP connections lost       : 46.2%
// Only TCP faults lose visible state; after every recovery the server must
// be reachable again (new connections accepted).
#include "bench_util.hpp"
#include "fault/injector.hpp"

using namespace neat;
using namespace neat::bench;

int main(int argc, char** argv) {
  header("Table 3: fault injection (100 failing runs, multi-component)");
  std::string trace = trace_out_arg(argc, argv);

  int transparent = 0;
  int tcp_lost = 0;
  int reachable_after = 0;
  std::uint64_t conns_lost_total = 0;
  std::uint64_t detections_total = 0;
  std::uint64_t restarts_total = 0;
  std::uint64_t retransmits_total = 0;
  double detection_ms_total = 0.0;
  obs::Histogram all_latency;  // client request latency across all runs
  std::vector<RecoveryEvent> all_events;
  const int kRuns = 100;

  for (int run = 0; run < kRuns; ++run) {
    Testbed::Config cfg;
    cfg.seed = 9000 + static_cast<std::uint64_t>(run);
    Testbed tb(cfg);
    enable_trace(tb.sim, trace);
    NeatServerOptions so;
    so.multi_component = true;
    so.replicas = 2;
    so.webs = 4;
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 4;
    co.concurrency_per_gen = 16;
    ClientRig client = build_client(tb, co, 4);
    prepopulate_arp(server, client);

    // Warm up, then inject one fault into a random component.
    tb.sim.run_for(60 * sim::kMillisecond);
    fault::FaultInjector injector(*server.neat,
                                  1234 + static_cast<std::uint64_t>(run));
    const auto outcome = injector.inject_random();

    // Let recovery play out, then verify the listener is reachable again:
    // new connections must keep being accepted.
    std::uint64_t accepted_before = 0;
    for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
      accepted_before += server.neat->replica(i).tcp().stats().conns_accepted;
    }
    tb.sim.run_for(120 * sim::kMillisecond);
    std::uint64_t accepted_after = 0;
    for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
      accepted_after += server.neat->replica(i).tcp().stats().conns_accepted;
    }

    if (outcome.tcp_state_lost) {
      ++tcp_lost;
      conns_lost_total += outcome.connections_lost;
    } else {
      ++transparent;
    }
    if (accepted_after > accepted_before) ++reachable_after;

    const auto& sup = server.neat->supervisor().stats();
    detections_total += sup.detections;
    restarts_total += sup.restarts + sup.driver_restarts;
    detection_ms_total += sup.mean_detection_ms() * sup.detections;
    for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
      retransmits_total += server.neat->replica(i).tcp().stats().retransmits;
    }
    for (const auto& g : client.gens) all_latency.merge(g->report().latency);
    const auto& log = server.neat->recovery_log();
    all_events.insert(all_events.end(), log.begin(), log.end());
    write_trace(tb.sim, trace);
    trace.clear();  // trace only the first run
  }

  std::printf("%-34s %8s %8s\n", "", "paper", "measured");
  std::printf("%-34s %7.1f%% %7.1f%%\n", "fully transparent recovery", 53.8,
              100.0 * transparent / kRuns);
  std::printf("%-34s %7.1f%% %7.1f%%\n", "TCP connections lost", 46.2,
              100.0 * tcp_lost / kRuns);
  std::printf("\nserver reachable after recovery: %d/%d runs "
              "(paper: always)\n", reachable_after, kRuns);
  std::printf("avg connections lost per TCP fault: %.1f (one replica's "
              "share only — the other replica is untouched)\n",
              tcp_lost ? static_cast<double>(conns_lost_total) / tcp_lost
                       : 0.0);
  std::printf("supervision: %llu watchdog detections (mean %.2f ms), "
              "%llu restarts across %d runs\n",
              static_cast<unsigned long long>(detections_total),
              detections_total
                  ? detection_ms_total / static_cast<double>(detections_total)
                  : 0.0,
              static_cast<unsigned long long>(restarts_total), kRuns);

  JsonWriter json;
  json.add("runs", kRuns);
  json.add("transparent_pct", 100.0 * transparent / kRuns);
  json.add("tcp_lost_pct", 100.0 * tcp_lost / kRuns);
  json.add("reachable_after", reachable_after);
  json.add("avg_conns_lost_per_tcp_fault",
           tcp_lost ? static_cast<double>(conns_lost_total) / tcp_lost : 0.0);
  json.add("detections", detections_total);
  json.add("mean_detection_ms",
           detections_total
               ? detection_ms_total / static_cast<double>(detections_total)
               : 0.0);
  json.add("restarts", restarts_total);
  json.add("tcp_retransmits", retransmits_total);
  json.add("latency_mean_ms", all_latency.mean() / 1e6);
  json.add("latency_p50_ms",
           static_cast<double>(all_latency.quantile(0.50)) / 1e6);
  json.add("latency_p95_ms",
           static_cast<double>(all_latency.quantile(0.95)) / 1e6);
  json.add("latency_p99_ms",
           static_cast<double>(all_latency.quantile(0.99)) / 1e6);
  json.add("latency_p999_ms",
           static_cast<double>(all_latency.quantile(0.999)) / 1e6);
  add_recovery(json, all_events);
  json.write("table3_fault_injection");
  return 0;
}
