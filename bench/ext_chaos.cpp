// Extension bench: a randomized chaos campaign against the NEaT stack.
//
// A fixed-seed schedule of composite faults — replica/driver/component
// crashes, crash storms, crashes timed into handshakes and lazy
// termination, concurrent failures, link blips — runs on top of a
// persistently lossy, reordering link while an HTTP workload with
// byte-for-byte payload verification stays up. The exit code reflects the
// end-of-run invariants: 0 only if the supervision audit passes and no
// client ever observed corrupted payload bytes.
//
// All robustness counters (TCP retransmits/checksum drops/backlog SYN
// drops, watchdog detection latency, restarts, backoff, quarantines) are
// emitted to BENCH_ext_chaos.json.
#include "bench_util.hpp"
#include "fault/chaos.hpp"

using namespace neat;
using namespace neat::bench;

int main(int argc, char** argv) {
  header("Chaos campaign: randomized multi-fault schedule under load");
  const std::string trace = trace_out_arg(argc, argv);

  Testbed::Config cfg;
  cfg.seed = 777;
  // Persistent baseline impairment: >=1% loss plus reordering for the
  // whole run — the RTO/fast-retransmit paths never get a quiet moment.
  cfg.link.impairment.drop_probability = 0.01;
  cfg.link.impairment.reorder_probability = 0.02;
  cfg.link.impairment.reorder_window = 100 * sim::kMicrosecond;
  Testbed tb(cfg);

  NeatServerOptions so;
  so.multi_component = false;
  so.replicas = 3;
  so.webs = 3;
  so.files = {{"/file2048", 2048}};
  ServerRig server = build_neat_server(tb, so);

  ClientOptions co;
  co.generators = 6;
  co.concurrency_per_gen = 16;
  co.requests_per_conn = 20;
  co.path = "/file2048";
  ClientRig client = build_client(tb, co, so.webs);
  prepopulate_arp(server, client);

  // Byte-for-byte payload verification on every response body.
  const auto* body = server.files->lookup("/file2048");
  for (auto& g : client.gens) g->config().expect_body = body;

  tb.sim.run_for(100 * sim::kMillisecond);  // warm up under load

  fault::ChaosConfig cc;
  cc.seed = 4242;
  cc.duration = 1500 * sim::kMillisecond;
  cc.mean_fault_gap = 50 * sim::kMillisecond;
  cc.w_scale_down_crash = 2.5;  // make the rarest composite fault show up
  fault::ChaosCampaign campaign(*server.neat, tb.link, cc);
  campaign.start();
  tb.sim.run_for(campaign.span() + 100 * sim::kMillisecond);
  const auto& rep = campaign.audit();

  // Aggregate workload-side results.
  std::uint64_t mismatches = 0;
  std::uint64_t committed = 0;
  std::uint64_t error_conns = 0;
  std::uint64_t clean_conns = 0;
  obs::Histogram latency;
  for (const auto& g : client.gens) {
    mismatches += g->report().payload_mismatches;
    committed += g->report().committed_requests;
    error_conns += g->report().error_conns;
    clean_conns += g->report().sessions_completed;
    latency.merge(g->report().latency);
  }

  // Aggregate server-side robustness counters.
  net::TcpStats tcp{};
  for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
    const auto& s = server.neat->replica(i).tcp().stats();
    tcp.retransmits += s.retransmits;
    tcp.checksum_drops += s.checksum_drops;
    tcp.syns_dropped_backlog += s.syns_dropped_backlog;
    tcp.conns_accepted += s.conns_accepted;
    tcp.ooo_segments += s.ooo_segments;
  }
  const auto& sup = server.neat->supervisor().stats();
  const auto& drv = server.neat->driver().driver_stats();

  std::printf("faults injected: %zu (replica %zu, component %zu, driver %zu,"
              " concurrent %zu, storms %zu, handshake %zu, scale-down %zu,"
              " blips %zu)\n",
              rep.faults_injected, rep.replica_crashes,
              rep.component_crashes, rep.driver_crashes,
              rep.concurrent_faults, rep.crash_storms, rep.handshake_crashes,
              rep.scale_down_crashes, rep.link_blips);
  std::printf("supervision: %llu detections (mean %.2f ms), %llu restarts, "
              "%llu driver restarts, %llu quarantines, %llu replacements, "
              "max backoff level %d\n",
              static_cast<unsigned long long>(sup.detections),
              sup.mean_detection_ms(),
              static_cast<unsigned long long>(sup.restarts),
              static_cast<unsigned long long>(sup.driver_restarts),
              static_cast<unsigned long long>(sup.quarantines),
              static_cast<unsigned long long>(sup.replacements),
              sup.max_backoff_level);
  std::printf("tcp robustness: %llu retransmits, %llu checksum drops, "
              "%llu SYNs dropped (backlog), %llu out-of-order segments\n",
              static_cast<unsigned long long>(tcp.retransmits),
              static_cast<unsigned long long>(tcp.checksum_drops),
              static_cast<unsigned long long>(tcp.syns_dropped_backlog),
              static_cast<unsigned long long>(tcp.ooo_segments));
  std::printf("workload: %llu committed requests, %llu clean conns, "
              "%llu error conns, %llu payload mismatches\n",
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(clean_conns),
              static_cast<unsigned long long>(error_conns),
              static_cast<unsigned long long>(mismatches));
  for (const auto& v : rep.violations) {
    std::printf("INVARIANT VIOLATION: %s\n", v.c_str());
  }
  Gates gates;
  gates.check("invariant_violations", rep.violations.size(), "<=", 0);
  gates.check("payload_mismatches", mismatches, "<=", 0);
  gates.check("committed_requests", committed, ">", 0);

  JsonWriter json;
  json.add("faults_injected", rep.faults_injected);
  json.add("replica_crashes", rep.replica_crashes);
  json.add("component_crashes", rep.component_crashes);
  json.add("driver_crashes", rep.driver_crashes);
  json.add("concurrent_faults", rep.concurrent_faults);
  json.add("crash_storms", rep.crash_storms);
  json.add("handshake_crashes", rep.handshake_crashes);
  json.add("scale_down_crashes", rep.scale_down_crashes);
  json.add("link_blips", rep.link_blips);
  json.add("detections", sup.detections);
  json.add("mean_detection_ms", sup.mean_detection_ms());
  json.add("max_detection_ms",
           static_cast<double>(sup.detection_latency_max) / 1e6);
  json.add("restarts", sup.restarts);
  json.add("driver_restarts", sup.driver_restarts);
  json.add("quarantines", sup.quarantines);
  json.add("replacements", sup.replacements);
  json.add("scale_down_collects", sup.scale_down_collects);
  json.add("max_backoff_level", sup.max_backoff_level);
  json.add("driver_restart_count", drv.restarts);
  json.add("tcp_retransmits", tcp.retransmits);
  json.add("tcp_checksum_drops", tcp.checksum_drops);
  json.add("tcp_syns_dropped_backlog", tcp.syns_dropped_backlog);
  json.add("tcp_ooo_segments", tcp.ooo_segments);
  json.add("tcp_conns_accepted", tcp.conns_accepted);
  json.add("committed_requests", committed);
  json.add("clean_conns", clean_conns);
  json.add("error_conns", error_conns);
  json.add("payload_mismatches", mismatches);
  json.add("invariant_violations", rep.violations.size());
  json.add("latency_mean_ms", latency.mean() / 1e6);
  json.add("latency_p50_ms", static_cast<double>(latency.quantile(0.50)) / 1e6);
  json.add("latency_p95_ms", static_cast<double>(latency.quantile(0.95)) / 1e6);
  json.add("latency_p99_ms", static_cast<double>(latency.quantile(0.99)) / 1e6);
  json.add("latency_p999_ms",
           static_cast<double>(latency.quantile(0.999)) / 1e6);
  add_recovery(json, server.neat->recovery_log());
  json.add(gates);
  json.write("ext_chaos");

  write_trace(tb.sim, trace);
  return gates.exit_code();
}
