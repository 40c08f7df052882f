// The paper's §6 evaluation: every figure and table, one declaration each.
//
//   paper                      every entry, in DESIGN.md §4 order
//   paper <name>...            the named ones (e.g. fig7_amd_scaling)
//   paper <name> --trace-out=FILE
//                              also writes that entry's traced run
//
// Each entry prints its table next to the paper's numbers and writes
// BENCH_<name>.json. The sweeps share one memo, so a point two entries
// declare (calibration's anchors are fig7/fig9/fig11 points) simulates once.
// Table 2 and Table 3 measure more than a run's aggregate and keep their own
// loops.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/injector.hpp"
#include "sweep.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

Run neat_run(Machine m, Stack s, int replicas, int webs, bool ht = false) {
  return {.stack = s, .machine = m, .replicas = replicas, .ht = ht,
          .webs = webs};
}

Run linux_run(Machine m, int webs) {
  return {.stack = Stack::kLinux, .machine = m, .webs = webs};
}

/// One line of a grid: a stack configuration.
struct Series {
  const char* name;
  const char* slug;
  Stack stack;
  int replicas;
  bool ht{false};
};

/// One x point of a grid: lighttpd instances, and for Figure 12 the total
/// number of concurrent connections.
struct X {
  std::string label;
  std::string slug;
  int webs;
  std::size_t conns{0};
};

std::vector<X> webs_axis(std::initializer_list<int> webs) {
  std::vector<X> xs;
  for (const int w : webs) {
    xs.push_back({std::to_string(w), "w" + std::to_string(w), w});
  }
  return xs;
}

/// A grid of one krps cell per x and series, keyed `<slug>_<x slug>_`;
/// `cell(s, x)` gives its run, or nothing where the point does not fit.
template <class Cell>
void grid(Figure& f, const char* x_name, const std::vector<Series>& series,
          const std::vector<X>& xs, const Cell& cell) {
  f.cols = {x_name};
  for (const Series& s : series) f.cols.emplace_back(s.name);
  for (const X& x : xs) {
    std::vector<Point>& row = f.grid.emplace_back();
    for (const Series& s : series) {
      row.push_back({x.label, std::string(s.slug) + "_" + x.slug + "_",
                     cell(s, x), kKrps});
    }
  }
}

/// Prints `label`: how far `num`'s krps is above `den`'s.
std::function<void(const Results&, Gates&)> gap(std::string label,
                                                std::string num,
                                                std::string den,
                                                std::string paper) {
  return [=](const Results& r, Gates&) {
    std::printf("%s: %+.1f%% (paper: %s)\n", label.c_str(),
                (r.at(num).krps / r.at(den).krps - 1.0) * 100.0,
                paper.c_str());
  };
}

// Table 1 (paper: 12-core AMD, 12 httperf x 1000 conns x 1000 req/conn,
// 20 B file): the Linux request rate as each tuning option is added.
Figure table1() {
  Figure f{"table1_linux_tuning",
           "Table 1: request rate breakdown per Linux option tuned (AMD)"};
  baseline::LinuxTuning tuning;  // defaults, then each option on top
  const auto row = [&](const char* label, const char* key) {
    Run r = linux_run(Machine::kAmd, 12);
    r.tuning = tuning;
    r.requests_per_conn = 1000;  // Table 1 used 1000 requests per connection
    f.list.push_back({label, key, r});
  };
  row("defaults", "defaults_");
  tuning.deadline_sched = true;
  tuning.tso = true;
  row("sched+eth", "sched_eth_");
  tuning.irq_affinity = true;
  row("sched+eth+irqAff", "irq_");
  tuning.rx_affinity = true;
  row("sched+eth+irqAff+rxAff", "rx_");
  tuning.pin_servers = true;
  row("sched+eth+irqAff+rxAff+serv", "serv_");
  tuning.rfs = true;
  row("  + RFS", "rfs_");
  f.list[0].traced = true;
  f.notes = {"paper [kreq/s]: defaults 184.118, sched+eth+irqAff+rxAff "
             "186.667, +serv 223.987; rxAff without serv slightly lowered "
             "the rate, and RFS brought no observable benefit"};
  f.after = [](const Results& r, Gates& g) {
    // The paper's shape: defaults < rxAff-without-serv < +serv.
    g.check("rx_krps", r.at("rx_").krps, ">", r.at("defaults_").krps);
    g.check("serv_krps", r.at("serv_").krps, ">", r.at("rx_").krps);
  };
  return f;
}

// Figures 4 and 5: Linux (optimal configuration) vs requested file size:
// latency, requests (Figure 4), request rate and throughput (Figure 5).
Figure fig4_5() {
  Figure f{"fig4_5_filesize",
           "Figures 4+5: Linux optimal config - latency/requests/throughput "
           "vs file size"};
  const std::pair<const char*, std::size_t> sizes[] = {
      {"1B", 1},      {"10B", 10},     {"100B", 100}, {"1K", 1024},
      {"10K", 10240}, {"100K", 102400}, {"1M", 1048576},
      {"10M", 10485760},
  };
  for (const auto& [label, bytes] : sizes) {
    Run r = linux_run(Machine::kAmd, 12);
    r.path = "/file";
    r.file_bytes = bytes;
    // Fewer, longer transfers for the big files (as httperf effectively
    // does once the link is the bottleneck): a multi-megabyte transfer per
    // connection takes hundreds of milliseconds, so the measurement window
    // must cover several of them.
    if (bytes >= 1048576) {
      r.concurrency_per_gen = 4;
      r.warmup = 500 * sim::kMillisecond;
      r.measure = 1500 * sim::kMillisecond;
    }
    f.list.push_back(
        {label, std::string("linux_") + label + "_", r, kLatency | kMbps});
  }
  f.list[0].traced = true;
  f.notes = {"paper landmarks: request rate flat until ~1K, link saturates "
             "(~1.2 GB/s) above ~7KB, latency explodes for >=100K files, "
             "errors appear at saturation"};
  return f;
}

// Figure 7: the 12-core AMD over 1..6 lighttpd instances (20-byte file,
// 100 requests per persistent connection).
Figure fig7() {
  Figure f{"fig7_amd_scaling",
           "Figure 7: AMD - scaling lighttpd and the network stack [kreq/s]"};
  grid(f, "webs",
       {{"Multi 1x", "multi1x", Stack::kMulti, 1},
        {"Multi 2x", "multi2x", Stack::kMulti, 2},
        {"NEaT 2x", "neat2x", Stack::kNeat, 2},
        {"NEaT 3x", "neat3x", Stack::kNeat, 3}},
       webs_axis({1, 2, 3, 4, 5, 6}),
       [](const Series& s, const X& x) -> std::optional<Run> {
         // Core budget: 3 system cores + stack cores + web cores <= 12.
         const int stack_cores =
             s.stack == Stack::kMulti ? 2 * s.replicas : s.replicas;
         if (3 + stack_cores + x.webs > 12) return std::nullopt;
         return neat_run(Machine::kAmd, s.stack, s.replicas, x.webs);
       });
  f.list = {{"Linux best (all 12 cores)", "linux_best_",
             linux_run(Machine::kAmd, 12)},
            {"NEaT 3x, 6 lighttpd", "neat3x_best_",
             neat_run(Machine::kAmd, Stack::kNeat, 3, 6), kLatency, {}, true}};
  f.notes = {"paper landmarks: Multi 1x scales linearly to 4 instances, then "
             "the stack saturates; Multi 2x / NEaT 2x reach ~250 krps at 5 "
             "instances; NEaT 3x scales to 6 instances (~302 krps); Linux "
             "best 224 krps"};
  f.after = gap("NEaT 3x advantage over Linux", "neat3x_best_", "linux_best_",
                "+34.8%");
  return f;
}

// Figure 9: the multi-component stack on the 8-core/16-thread Xeon. Multi
// 2x HT colocates both replicas on sibling threads (Figure 8c). Beyond the
// dedicated cores, lighttpd runs on the hyper-threads of the stack cores.
Figure fig9() {
  Figure f{"fig9_xeon_multi",
           "Figure 9: Xeon - scaling the multi-component stack [kreq/s]"};
  grid(f, "webs",
       {{"Multi 1x", "multi1x", Stack::kMulti, 1, false},
        {"Multi 2x", "multi2x", Stack::kMulti, 2, false},
        {"Multi 2x HT", "multi2x_ht", Stack::kMulti, 2, true}},
       webs_axis({1, 2, 3, 4, 6, 8}),
       [](const Series& s, const X& x) -> std::optional<Run> {
         // Hardware threads: 3 system ones (os+syscall, driver), the
         // stack's (a pair per core under HT, else a whole core each) and
         // one per lighttpd, out of 16.
         const int stack_threads = 2 * s.replicas;
         if (3 + (s.ht ? (stack_threads + 1) / 2 * 2 : stack_threads * 2) +
                 x.webs >
             16) {
           return std::nullopt;
         }
         return neat_run(Machine::kXeon, s.stack, s.replicas, x.webs, s.ht);
       });
  // The paper's headline point, with its latency columns.
  f.list = {{"Multi 2x HT, 8 lighttpd", "multi2x_ht_peak_",
             neat_run(Machine::kXeon, Stack::kMulti, 2, 8, true), kLatency,
             {}, true}};
  f.notes = {"paper landmarks: Multi 1x peaks at 4 webs (~240); "
             "Multi 2x HT peaks at 8 webs (~322)"};
  return f;
}

// Figure 11: the single-component stack on the Xeon, core-only and
// hyper-threaded placements (Figures 8b and 10).
Figure fig11() {
  Figure f{"fig11_xeon_single",
           "Figure 11: Xeon - scaling the single-component stack [kreq/s]"};
  grid(f, "webs",
       {{"NEaT 1x", "neat1x", Stack::kNeat, 1, false},
        {"NEaT 1x HT", "neat1x_ht", Stack::kNeat, 1, true},
        {"NEaT 2x", "neat2x", Stack::kNeat, 2, false},
        {"NEaT 2x HT", "neat2x_ht", Stack::kNeat, 2, true},
        {"NEaT 4x HT", "neat4x_ht", Stack::kNeat, 4, true}},
       webs_axis({1, 2, 3, 4, 5, 8, 9}),
       [](const Series& s, const X& x) -> std::optional<Run> {
         // Budget: ht -> os 1 + drv/sys core 2 + replicas (packed) + webs;
         // core-only -> os+sys 1, drv 1, one core per replica, webs fill
         // the rest of the 16 hardware threads.
         int used_threads;
         if (s.ht) {
           used_threads = 1 + 2 + ((s.replicas + 1) / 2) * 2;
         } else {
           used_threads = 1 + 1 + 2 * s.replicas;  // dedicated cores (both
                                                   // threads blocked for
                                                   // webs only partially)
         }
         if (used_threads + x.webs > 16) return std::nullopt;
         return neat_run(Machine::kXeon, s.stack, s.replicas, x.webs, s.ht);
       });
  f.list = {{"Linux best (16 lighttpd)", "linux_best_",
             linux_run(Machine::kXeon, 16)},
            {"NEaT 4x HT (9 lighttpd)", "neat4x_ht_best_",
             neat_run(Machine::kXeon, Stack::kNeat, 4, 9, true), kLatency,
             {}, true}};
  f.notes = {"paper: Linux best (16 lighttpd) 328 krps; NEaT 4x HT "
             "(9 lighttpd) 372 krps"};
  f.after = gap("NEaT advantage", "neat4x_ht_best_", "linux_best_", "+13.4%");
  return f;
}

// Figure 12: the AMD under a connection-churn workload (one request per
// connection, stressing connection setup and teardown): 1 lighttpd with
// 8/16/32/64 concurrent connections, 2 with 32 and 4 with 64.
Figure fig12() {
  Figure f{"fig12_config_compare",
           "Figure 12: AMD - configurations under 1-request-per-connection "
           "load [kreq/s]"};
  grid(f, "point",
       {{"NEaT 1x", "neat1x", Stack::kNeat, 1},
        {"NEaT 2x", "neat2x", Stack::kNeat, 2},
        {"NEaT 3x", "neat3x", Stack::kNeat, 3},
        {"Multi 1x", "multi1x", Stack::kMulti, 1},
        {"Multi 2x", "multi2x", Stack::kMulti, 2}},
       {{"8", "c8", 1, 8},
        {"16", "c16", 1, 16},
        {"32", "c32", 1, 32},
        {"64", "c64", 1, 64},
        {"2srv,32", "s2c32", 2, 32},
        {"4srv,64", "s4c64", 4, 64}},
       [](const Series& s, const X& x) {
         Run r = neat_run(Machine::kAmd, s.stack, s.replicas, x.webs);
         r.requests_per_conn = 1;  // the modified single-request test
         r.generators = x.webs;
         r.concurrency_per_gen = x.conns / static_cast<std::size_t>(x.webs);
         return std::optional<Run>(r);
       });
  // Latency matters most at the light-load points (the figure's whole
  // story is wake-up latency): full percentiles for the 8-conn row.
  for (Point& p : f.grid[0]) p.keys |= kLatency;
  f.grid[0][0].traced = true;
  f.notes = {"paper landmark: at 8 connections Multi 1x > Multi 2x "
             "(sleep/wake latency); at 4srv,64 all multi-replica configs "
             "beat single-replica ones"};
  return f;
}

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
int table2(Points&, std::string trace) {
  header("Table 2: 10G driver CPU usage breakdown (Xeon, 3 replicas)");
  JsonWriter json;

  struct Row {
    double target_krps;
    std::size_t conc_per_gen;
    sim::SimTime think;
  };
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
    const double load_pct = 100.0 * active / budget;
    const double kernel_pct = active > 0 ? 100.0 * kern / active : 0.0;
    const double polling_pct = active > 0 ? 100.0 * poll / active : 0.0;
    std::printf("%8.1f%% %8.1f%% %14.1f%% %10.1f %10.0f\n", load_pct,
                kernel_pct, polling_pct, agg.krps, row.target_krps);
    std::fflush(stdout);
    write_trace(tb.sim, trace);
    trace.clear();  // trace only the first row

    char tag[32];
    std::snprintf(tag, sizeof(tag), "target%.0f_", row.target_krps);
    const std::string prefix = tag;
    json.add(prefix + "cpu_load_pct", load_pct);
    json.add(prefix + "kernel_pct", kernel_pct);
    json.add(prefix + "polling_pct", polling_pct);
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

// Table 3: fault-injection experiment.
//
// 100 runs; each injects a fault at a random (code-size-weighted) point in
// the stack of a running system under the scalability workload, then lets
// NEaT's recovery proceed. Paper results:
//   fully transparent recovery : 53.8%
//   TCP connections lost       : 46.2%
// Only TCP faults lose visible state; after every recovery the server must
// be reachable again (new connections accepted).
int table3(Points&, std::string trace) {
  header("Table 3: fault injection (100 failing runs, multi-component)");

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
    const auto tcp_total = [&](std::uint64_t net::TcpStats::*counter) {
      std::uint64_t n = 0;
      for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
        n += server.neat->replica(i).tcp().stats().*counter;
      }
      return n;
    };
    const std::uint64_t accepted_before =
        tcp_total(&net::TcpStats::conns_accepted);
    tb.sim.run_for(120 * sim::kMillisecond);
    if (tcp_total(&net::TcpStats::conns_accepted) > accepted_before) {
      ++reachable_after;
    }

    if (outcome.tcp_state_lost) {
      ++tcp_lost;
      conns_lost_total += outcome.connections_lost;
    } else {
      ++transparent;
    }

    const auto& sup = server.neat->supervisor().stats();
    detections_total += sup.detections;
    restarts_total += sup.restarts + sup.driver_restarts;
    detection_ms_total += sup.mean_detection_ms() * sup.detections;
    retransmits_total += tcp_total(&net::TcpStats::retransmits);
    for (const auto& g : client.gens) all_latency.merge(g->report().latency);
    const auto& log = server.neat->recovery_log();
    all_events.insert(all_events.end(), log.begin(), log.end());
    write_trace(tb.sim, trace);
    trace.clear();  // trace only the first run
  }

  const double lost_per_fault =
      tcp_lost ? static_cast<double>(conns_lost_total) / tcp_lost : 0.0;
  const double mean_detection_ms =
      detections_total
          ? detection_ms_total / static_cast<double>(detections_total)
          : 0.0;
  std::printf("%-34s %8s %8s\n", "", "paper", "measured");
  std::printf("%-34s %7.1f%% %7.1f%%\n", "fully transparent recovery", 53.8,
              100.0 * transparent / kRuns);
  std::printf("%-34s %7.1f%% %7.1f%%\n", "TCP connections lost", 46.2,
              100.0 * tcp_lost / kRuns);
  std::printf("\nserver reachable after recovery: %d/%d runs "
              "(paper: always)\n", reachable_after, kRuns);
  std::printf("avg connections lost per TCP fault: %.1f (one replica's "
              "share only — the other replica is untouched)\n",
              lost_per_fault);
  std::printf("supervision: %llu watchdog detections (mean %.2f ms), "
              "%llu restarts across %d runs\n",
              static_cast<unsigned long long>(detections_total),
              mean_detection_ms,
              static_cast<unsigned long long>(restarts_total), kRuns);

  JsonWriter json;
  json.add("runs", kRuns);
  json.add("transparent_pct", 100.0 * transparent / kRuns);
  json.add("tcp_lost_pct", 100.0 * tcp_lost / kRuns);
  json.add("reachable_after", reachable_after);
  json.add("avg_conns_lost_per_tcp_fault", lost_per_fault);
  json.add("detections", detections_total);
  json.add("mean_detection_ms", mean_detection_ms);
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

// Figure 13: expected fraction of state preserved after a failure vs
// maximum throughput, across the Xeon configurations.
//
// The expected preserved fraction assumes (as the paper does) a uniform
// fault probability across the stack's code: a component fails with
// probability proportional to its code size, and only the TCP state of the
// affected replica is irrecoverable under stateless recovery. With N
// replicas, a TCP fault loses 1/N of the connections; in a
// single-component replica the whole process is TCP-stateful.
double p_state_loss_per_fault(bool multi) {
  double total = 0.0;
  double lossy = 0.0;
  for (const auto& w : fault::default_weights()) {
    total += w.weight;
    if (w.is_driver) continue;  // driver faults never lose TCP state
    if (multi) {
      if (w.component == Component::kTcp) lossy += w.weight;
    } else {
      lossy += w.weight;  // single-component: the whole stack is one
                          // process holding the TCP state
    }
  }
  return lossy / total;
}

Figure fig13() {
  Figure f{"fig13_reliability",
           "Figure 13: expected % of state preserved after a failure vs max "
           "throughput (Xeon)"};
  struct Config {
    const char* name;
    const char* slug;
    Stack stack;
    int replicas;
    bool ht;
    int webs;  // enough instances to reach the configuration's peak
  };
  const Config configs[] = {
      {"NEaT 1x  (1 core)", "neat1x", Stack::kNeat, 1, false, 8},
      {"Multi 1x (2 cores)", "multi1x", Stack::kMulti, 1, false, 4},
      {"NEaT 2x  (2 cores)", "neat2x", Stack::kNeat, 2, false, 6},
      {"NEaT 3x  (3 cores)", "neat3x", Stack::kNeat, 3, false, 5},
      {"Multi 2x (4 cores)", "multi2x", Stack::kMulti, 2, false, 4},
      {"Multi 2x (2c/4t HT)", "multi2x_ht", Stack::kMulti, 2, true, 8},
      {"NEaT 4x  (2c/4t HT)", "neat4x_ht", Stack::kNeat, 4, true, 9},
  };
  for (const Config& c : configs) {
    const double preserved =
        1.0 - p_state_loss_per_fault(c.stack == Stack::kMulti) / c.replicas;
    f.list.push_back(
        {c.name, std::string(c.slug) + "_",
         neat_run(Machine::kXeon, c.stack, c.replicas, c.webs, c.ht),
         kLatency, {{"state_preserved_pct", 100.0 * preserved}}});
  }
  f.list[0].traced = true;
  f.notes = {"paper shape: both axes increase with replica count; "
             "multi-component configs sit higher on reliability, "
             "single-component higher on throughput per core"};
  return f;
}

// Calibration probe: the headline throughput of each stack configuration
// next to the paper's measured value, for tuning the cost model in
// src/neat/costs.hpp and src/baseline/linux.hpp. Every anchor is a point of
// Figure 7, 9 or 11.
Figure calibration() {
  Figure f{"calibration", "calibration: headline configurations"};
  const auto row = [&](const char* label, const char* slug, double paper,
                       const Run& r) {
    f.list.push_back({label, std::string(slug) + "_", r, kLatency,
                      {{"paper_krps", paper}}});
  };
  const Machine amd = Machine::kAmd;
  const Machine xeon = Machine::kXeon;
  row("AMD  Linux best (12 srv)", "amd_linux_best", 224.0,
      linux_run(amd, 12));
  row("AMD  NEaT 3x, 6 webs", "amd_neat3x", 302.0,
      neat_run(amd, Stack::kNeat, 3, 6));
  row("AMD  NEaT 2x, 5 webs", "amd_neat2x", 250.0,
      neat_run(amd, Stack::kNeat, 2, 5));
  row("AMD  Multi 1x, 4 webs", "amd_multi1x", 200.0,
      neat_run(amd, Stack::kMulti, 1, 4));
  row("AMD  Multi 2x, 5 webs", "amd_multi2x", 250.0,
      neat_run(amd, Stack::kMulti, 2, 5));
  row("Xeon Linux best (16 srv)", "xeon_linux_best", 328.0,
      linux_run(xeon, 16));
  row("Xeon NEaT 4x HT, 9 webs", "xeon_neat4x_ht", 372.0,
      neat_run(xeon, Stack::kNeat, 4, 9, true));
  row("Xeon Multi 1x, 4 webs", "xeon_multi1x", 240.0,
      neat_run(xeon, Stack::kMulti, 1, 4));
  row("Xeon Multi 2x HT, 8 webs", "xeon_multi2x_ht", 322.0,
      neat_run(xeon, Stack::kMulti, 2, 8, true));
  f.list[0].traced = true;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Entry> entries = {
      sweep(table1()), sweep(fig4_5()), sweep(fig7()),
      sweep(fig9()),   sweep(fig11()),  sweep(fig12()),
      {"table2_driver_cpu", table2},
      {"table3_fault_injection", table3},
      sweep(fig13()),  sweep(calibration()),
  };
  Points points;
  return paper_main(argc, argv, entries, points);
}
