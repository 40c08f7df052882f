// Extension experiment: checkpoint-based stateful TCP recovery.
//
// The paper (§6.6) keeps recovery stateless and notes: "an option is to
// rely on checkpointing techniques to support a (TCP) stateful recovery
// strategy allowing existing connections to survive failures. However,
// such techniques typically incur nontrivial run-time and recovery-time
// overhead ... trading off performance for reliability."
//
// This bench implements that option and measures both sides of the trade:
// saturated throughput vs checkpoint interval, and the fraction of a
// crashed replica's connections that survive.
#include "bench_util.hpp"

using namespace neat;
using namespace neat::bench;

int main(int argc, char** argv) {
  header("Extension: stateful recovery via checkpointing — the paper's "
         "discussed trade-off, measured");
  std::string trace = trace_out_arg(argc, argv);
  JsonWriter json;
  std::vector<RecoveryEvent> all_events;

  struct Row {
    const char* label;
    const char* slug;
    sim::SimTime interval;
  };
  const Row rows[] = {
      {"stateless (paper default)", "stateless", 0},
      {"checkpoint every 50 ms", "ckpt50ms", 50 * sim::kMillisecond},
      {"checkpoint every 5 ms", "ckpt5ms", 5 * sim::kMillisecond},
      {"checkpoint every 500 us", "ckpt500us", 500 * sim::kMicrosecond},
  };

  std::printf("%-28s %12s %14s %16s\n", "recovery strategy", "kreq/s",
              "conns lost", "conns restored");
  for (const auto& row : rows) {
    Testbed::Config cfg;
    cfg.seed = 2121;
    Testbed tb(cfg);
    enable_trace(tb.sim, trace);
    NeatServerOptions so;
    so.replicas = 1;  // saturate the one replica: overhead is visible
    so.webs = 4;
    so.host.checkpoint_interval = row.interval;
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 4;
    co.concurrency_per_gen = 24;
    co.requests_per_conn = 1000;  // long-lived connections worth saving
    ClientRig client = build_client(tb, co, 4);
    prepopulate_arp(server, client);

    // Measure saturated throughput.
    tb.sim.run_for(kWarmup);
    client.mark();
    tb.sim.run_for(kMeasure);
    const auto agg = client.aggregate(kMeasure);

    // Crash the replica; count survivors.
    std::uint64_t errors_before = 0;
    for (auto& g : client.gens) errors_before += g->report().error_conns;
    server.neat->inject_crash(server.neat->replica(0), Component::kWhole);
    tb.sim.run_for(500 * sim::kMillisecond);
    std::uint64_t errors_after = 0;
    for (auto& g : client.gens) errors_after += g->report().error_conns;
    const auto& ev = server.neat->recovery_log().back();

    std::printf("%-28s %12.1f %14llu %16llu\n", row.label, agg.krps,
                (unsigned long long)(errors_after - errors_before),
                (unsigned long long)ev.connections_restored);
    std::fflush(stdout);
    write_trace(tb.sim, trace);
    trace.clear();  // trace only the first row
    const auto& log = server.neat->recovery_log();
    all_events.insert(all_events.end(), log.begin(), log.end());
    const std::string prefix = std::string(row.slug) + "_";
    json.add(prefix + "krps", agg.krps);
    json.add(prefix + "conns_lost", errors_after - errors_before);
    json.add(prefix + "conns_restored", ev.connections_restored);
    json.add(prefix + "latency_mean_ms", agg.mean_latency_ms);
    json.add(prefix + "latency_p50_ms", agg.p50_latency_ms);
    json.add(prefix + "latency_p95_ms", agg.p95_latency_ms);
    json.add(prefix + "latency_p99_ms", agg.p99_latency_ms);
    json.add(prefix + "latency_p999_ms", agg.p999_latency_ms);
  }
  add_recovery(json, all_events);
  json.write("ext_stateful_recovery");
  std::printf("\n=> tighter checkpoint intervals save more connections and "
              "cost more throughput — the paper's reliability/performance "
              "trade-off, quantified. NEaT's replicated stateless design "
              "avoids the trade entirely by shrinking the blast radius "
              "(1/N of connections) instead of preserving state.\n");
  return 0;
}
