// Table 1: Linux request-rate breakdown per tuning option.
//
// Paper (12-core AMD, 12 httperf x 1000 conns x 1000 req/conn, 20 B file):
//   defaults                          184.118 kreq/s
//   sched+eth+irqAff+rxAff            186.667 kreq/s
//   sched+eth+irqAff+rxAff+serv       223.987 kreq/s
//
// The paper also notes that rxAff *without* serv pinning slightly lowered
// the rate (lighttpd scheduled away from its receive queues) and that RFS
// brought no observable benefit.
#include "bench_util.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

ClientRig::Aggregate with(baseline::LinuxTuning t,
                          const std::string& trace = {}) {
  LinuxRun r;
  r.tuning = t;
  r.webs = 12;
  r.requests_per_conn = 1000;  // Table 1 used 1000 requests per connection
  r.trace_out = trace;
  return run_linux(r);
}

}  // namespace

int main(int argc, char** argv) {
  header("Table 1: request rate breakdown per Linux option tuned (AMD)");
  const std::string trace = trace_out_arg(argc, argv);

  baseline::LinuxTuning t;  // defaults
  const auto defaults = with(t, trace);

  t.deadline_sched = true;
  t.tso = true;
  const auto sched_eth = with(t);

  t.irq_affinity = true;
  const auto irq = with(t);

  t.rx_affinity = true;
  const auto rx = with(t);

  t.pin_servers = true;
  const auto serv = with(t);

  t.rfs = true;
  const auto rfs = with(t);

  std::printf("%-36s %10s %10s\n", "option tuned", "paper", "measured");
  std::printf("%-36s %10.3f %10.3f\n", "defaults", 184.118, defaults.krps);
  std::printf("%-36s %10s %10.3f\n", "sched+eth", "-", sched_eth.krps);
  std::printf("%-36s %10s %10.3f\n", "sched+eth+irqAff", "-", irq.krps);
  std::printf("%-36s %10.3f %10.3f\n", "sched+eth+irqAff+rxAff", 186.667,
              rx.krps);
  std::printf("%-36s %10.3f %10.3f\n", "sched+eth+irqAff+rxAff+serv",
              223.987, serv.krps);
  std::printf("%-36s %10s %10.3f   (no observable benefit, as in paper)\n",
              "  + RFS", "-", rfs.krps);

  // The paper's shape: defaults < rxAff-without-serv < +serv.
  std::printf("\n");
  Gates gates;
  gates.check("rx_krps", rx.krps, ">", defaults.krps);
  gates.check("serv_krps", serv.krps, ">", rx.krps);

  JsonWriter json;
  add_latency(json, "defaults_", defaults);
  add_latency(json, "sched_eth_", sched_eth);
  add_latency(json, "irq_", irq);
  add_latency(json, "rx_", rx);
  add_latency(json, "serv_", serv);
  add_latency(json, "rfs_", rfs);
  json.add(gates);
  json.write("table1_linux_tuning");
  return gates.exit_code();
}
