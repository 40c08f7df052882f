// Ablations for the design choices DESIGN.md calls out.
//
// A) MWAIT fast wake vs kernel-assisted wake — the dedicated-core fast
//    channels (§4) matter exactly at light load (Figure 12's regime).
// B) NIC steering: per-flow tracking filters vs pure RSS during a
//    scale-down — the paper's proposed hardware extension is what makes
//    lazy termination safe.
// C) TSO on/off for bulk transfers — why the paper enables it ("greatly
//    improves performance", §6).
// D) Delayed ACKs on/off — packet-count reduction on the wire.
#include "bench_util.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

void ablation_wake(JsonWriter& json, std::string trace) {
  header("Ablation A: wake-up cost at light load (NEaT 1x, 8 connections, "
         "1 req/conn)");
  std::printf("%-28s %12s %14s\n", "wake latency (fast/kernel)", "kreq/s",
              "mean lat [us]");
  struct P {
    sim::SimTime fast, kern;
  };
  for (const auto& p :
       {P{1 * sim::kMicrosecond, 5 * sim::kMicrosecond},
        P{25 * sim::kMicrosecond, 25 * sim::kMicrosecond},
        P{60 * sim::kMicrosecond, 120 * sim::kMicrosecond}}) {
    Testbed::Config cfg;
    cfg.seed = 42;
    cfg.server_machine.wake_fast_latency = p.fast;
    cfg.server_machine.wake_kernel_latency = p.kern;
    cfg.client_machine.wake_fast_latency = p.fast;
    cfg.client_machine.wake_kernel_latency = p.kern;
    Testbed tb(cfg);
    enable_trace(tb.sim, trace);
    NeatServerOptions so;
    so.replicas = 1;
    so.webs = 1;
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 1;
    co.concurrency_per_gen = 8;
    co.requests_per_conn = 1;
    ClientRig client = build_client(tb, co, 1);
    prepopulate_arp(server, client);
    const auto r = run_window(tb, client, kWarmup, kMeasure);
    std::printf("%9.0f / %-16.0f %12.1f %14.1f\n",
                sim::to_micros(p.fast), sim::to_micros(p.kern), r.krps,
                r.mean_latency_ms * 1000.0);
    write_trace(tb.sim, trace);
    trace.clear();  // trace only the first point
    char tag[48];
    std::snprintf(tag, sizeof(tag), "wake_%.0fus_", sim::to_micros(p.fast));
    add_latency(json, tag, r);
  }
  std::printf("=> sleepy-component wake latency directly caps light-load "
              "throughput (the Figure 12 effect)\n");
}

void ablation_steering(JsonWriter& json) {
  header("Ablation B: scale-down with vs without per-flow tracking filters");
  std::printf("%-26s %16s %16s\n", "NIC mode", "errors", "verdict");
  for (bool tracking : {true, false}) {
    Testbed::Config cfg;
    cfg.seed = 43;
    cfg.server_nic.tracking_filters = tracking;
    Testbed tb(cfg);
    NeatServerOptions so;
    so.replicas = 2;
    so.webs = 2;
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 2;
    co.concurrency_per_gen = 16;
    co.requests_per_conn = 50;
    ClientRig client = build_client(tb, co, 2);
    prepopulate_arp(server, client);

    tb.sim.run_for(150 * sim::kMillisecond);
    for (auto& g : client.gens) g->mark();
    if (tracking) {
      server.neat->begin_scale_down(server.neat->replica(1));
    } else {
      // begin_scale_down() now refuses to drain a loaded replica without
      // tracking filters (it would be this ablation's broken arm in
      // production). Perform the raw steering change it would have made —
      // point every RSS bucket at replica 0 — to measure the breakage.
      const int q0 = server.neat->replica(0).queue();
      tb.server_nic.set_indirection(
          std::vector<int>(tb.server_nic.indirection().size(), q0));
    }
    tb.sim.run_for(400 * sim::kMillisecond);
    std::uint64_t errs = 0;
    for (auto& g : client.gens) errs += g->report().error_conns;
    std::printf("%-26s %16llu %16s\n",
                tracking ? "tracking filters" : "pure RSS",
                (unsigned long long)errs,
                errs == 0 ? "no conn broken" : "connections DIED");
    json.add(std::string(tracking ? "tracking_" : "pure_rss_") +
                 "scale_down_errors",
             errs);
  }
  std::printf("=> without the NIC extension, re-steering moves live flows "
              "to the wrong replica (paper SS4)\n");
}

void ablation_tso(JsonWriter& json) {
  header("Ablation C: TSO on/off, 1MB file transfers (Linux best config)");
  std::printf("%-10s %12s %14s\n", "TSO", "thpt [MB/s]", "mean lat [ms]");
  for (bool tso : {true, false}) {
    Run r;
    r.stack = Stack::kLinux;
    r.webs = 12;
    r.path = "/file";
    r.file_bytes = 1048576;
    r.concurrency_per_gen = 4;
    r.warmup = 500 * sim::kMillisecond;
    r.measure = 1200 * sim::kMillisecond;
    r.tuning.tso = tso;
    const auto res = run(r);
    std::printf("%-10s %12.1f %14.1f\n", tso ? "on" : "off", res.mbps,
                res.mean_latency_ms);
    const std::string prefix = tso ? "tso_on_" : "tso_off_";
    add_latency(json, prefix, res);
    json.add(prefix + "mbps", res.mbps);
  }
  std::printf("=> TSO lets smaller configurations reach full 10Gb/s "
              "utilization (paper SS6)\n");
}

void ablation_delack(JsonWriter& json) {
  header("Ablation D: delayed ACKs on/off (NEaT 2x, 20B requests)");
  std::printf("%-14s %12s %18s\n", "delayed ACK", "kreq/s",
              "pure ACKs/request");
  for (bool delack : {true, false}) {
    net::TcpConfig tcp;
    if (!delack) tcp.delayed_ack = 0;
    Testbed::Config cfg;
    cfg.seed = 44;
    Testbed tb(cfg);
    NeatServerOptions so;
    so.replicas = 2;
    so.webs = 4;
    so.host.tcp = tcp;
    ServerRig server = build_neat_server(tb, so);
    ClientOptions co;
    co.generators = 4;
    co.concurrency_per_gen = 24;
    co.tcp = tcp;
    ClientRig client = build_client(tb, co, 4);
    prepopulate_arp(server, client);
    const auto res = run_window(tb, client, kWarmup, kMeasure);
    std::uint64_t acks = 0;
    for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
      acks += server.neat->replica(i).tcp().stats().pure_acks_out;
    }
    std::printf("%-14s %12.1f %18.2f\n", delack ? "on" : "off", res.krps,
                static_cast<double>(acks) /
                    static_cast<double>(res.requests ? res.requests : 1));
    const std::string prefix = delack ? "delack_on_" : "delack_off_";
    add_latency(json, prefix, res);
    json.add(prefix + "pure_acks_per_request",
             static_cast<double>(acks) /
                 static_cast<double>(res.requests ? res.requests : 1));
  }
  std::printf("=> immediate acking doubles the server's TX packet load\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonWriter json;
  ablation_wake(json, trace_out_arg(argc, argv));
  ablation_steering(json);
  ablation_tso(json);
  ablation_delack(json);
  json.write("ablation_design_choices");
  return 0;
}
