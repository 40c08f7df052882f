// ext_perf: wall-clock performance of the simulator's data path.
//
// Every other bench in this directory reports *simulated* quantities
// (krps, latency percentiles at virtual time). This one is different: it
// measures how fast the simulator itself runs on the host — simulated
// packets per host-CPU-second — because that is what bounds every sweep in
// the repo. The macro section re-runs the paper's headline fig9
// configuration (Multi 2x HT, 8 web instances on the Xeon) and times it
// with a host clock; the micro section isolates the three hot mechanisms
// the data-path fast paths target: packet buffer allocation (PacketPool),
// stream buffering (ByteRing), and event scheduling (EventQueue).
//
// The committed BENCH_ext_perf.json is the perf trajectory every later
// change is judged against: a full run gates itself on it (host throughput,
// peak RSS, simulated krps) and exits non-zero on a breach. The `baseline_*`
// keys record the pre-fast-path measurement (same host class) so the
// speedup is auditable from the JSON alone.
#include <sys/resource.h>

#include <chrono>
#include <cstring>

#include "bench_util.hpp"
#include "ipc/byte_ring.hpp"
#include "ipc/channel.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"

using namespace neat;
using namespace neat::bench;

namespace {

// Pre-PR wall-clock measurement of the same fig9 configuration, recorded
// on the container this repo's benches run in (see EXPERIMENTS.md). These
// are the `baseline_` keys the acceptance gate compares against; they are
// the committed level BEFORE the flat-per-packet-overhead PR (intrusive
// packet refcounts, coalesced wakeups, fused completion, staged TX).
constexpr double kBaselineFig9PktsPerHostSec = 174532.0;
constexpr double kBaselineFig9WallSec = 1.87;
constexpr double kBaselineFig9Krps = 316.097;
// Pre-PR simulated request p99 (deterministic — independent of host
// speed): the latency gate fails if batching ever trades >20% of request
// p99 for throughput.
constexpr double kBaselineFig9P99Ms = 1.44179;  // simulated, pre-PR HEAD
// Pre-PR IPC producer-side batch fill: transports emitted segments one
// job at a time, so bursts shredded into ~2-message slivers by the time
// they hit the channels. Staged TX fixed the producer side; the current
// fig9_ipc_batch_mean is judged against this.
constexpr double kBaselineFig9IpcBatchMean = 1.72446;

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// --- micro: packet allocation ---------------------------------------------

void micro_packets(JsonWriter& json, bool pooled, std::size_t iters) {
  net::PacketPool pool;
  std::optional<net::PacketPool::Use> use;
  if (pooled) use.emplace(pool);
  std::uint8_t payload[1460];
  std::memset(payload, 0xab, sizeof payload);
  const std::size_t sizes[] = {64, 256, 1460};
  const auto t0 = Clock::now();
  std::uint64_t made = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    for (const std::size_t sz : sizes) {
      auto p = net::Packet::of({payload, sz});
      p->push(54);  // typical eth+ip+tcp header push
      ++made;
    }
  }
  const double dt = secs_since(t0);
  const char* tag = pooled ? "micro_packet_pooled" : "micro_packet_heap";
  std::printf("%-28s %12.0f packets/s\n", tag,
              static_cast<double>(made) / dt);
  json.add(std::string(tag) + "_per_sec", static_cast<double>(made) / dt);
  if (pooled) {
    const auto& st = pool.stats();
    json.add("micro_pool_fresh", st.fresh);
    json.add("micro_pool_reused", st.reused);
    json.add("micro_pool_recycled", st.recycled);
  }
}

// --- micro: stream ring ----------------------------------------------------

void micro_ring(JsonWriter& json, std::size_t iters) {
  ipc::ByteRing ring(96 * 1024);
  std::uint8_t chunk[1460];
  std::uint8_t out[1460];
  std::memset(chunk, 0x5a, sizeof chunk);
  const auto t0 = Clock::now();
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    // Fill-then-drain in MSS chunks: the TcpSocket stream pattern.
    while (ring.writable() >= sizeof chunk) bytes += ring.write(chunk);
    while (ring.readable() > 0) ring.read(out);
  }
  const double dt = secs_since(t0);
  const double gbps = static_cast<double>(bytes) / dt / 1e9;
  std::printf("%-28s %12.2f GB/s\n", "micro_ring_fill_drain", gbps);
  json.add("micro_ring_gb_per_sec", gbps);
}

// --- micro: event queue ----------------------------------------------------

void micro_events(JsonWriter& json, std::size_t iters) {
  sim::EventQueue q;
  const auto t0 = Clock::now();
  std::uint64_t fired = 0;
  for (std::size_t round = 0; round < iters; ++round) {
    sim::EventHandle handles[64];
    for (int i = 0; i < 64; ++i) {
      handles[i] =
          q.schedule(static_cast<sim::SimTime>(i + 1), [&fired] { ++fired; });
    }
    for (int i = 0; i < 64; i += 2) handles[i].cancel();  // half cancelled
    q.run();
  }
  const double dt = secs_since(t0);
  const double rate = static_cast<double>(iters) * 64.0 / dt;
  std::printf("%-28s %12.0f sched+fire/s (%llu fired)\n", "micro_event_queue",
              rate, static_cast<unsigned long long>(fired));
  json.add("micro_events_per_sec", rate);
}

// --- macro: the fig9 headline configuration -------------------------------

/// One fig9 pass worth of measurements. Simulated quantities (krps, p99,
/// batch statistics) are seed-deterministic and identical across reps;
/// host-time quantities vary with machine load.
struct Fig9Run {
  ClientRig::Aggregate res;
  double wall{0.0};
  double pkts{0.0};
  double pkts_per_host_sec{0.0};
  double events_per_host_sec{0.0};
  double mallocs_per_pkt{0.0};
  double reuse_frac{0.0};
  net::PacketPool::Stats pool{};
  // Per-batch vs per-packet amortization: units of work (frames/messages)
  // against the jobs that carried them.
  double nic_batch_mean{0.0};
  std::uint64_t nic_batch_jobs{0};
  double ipc_batch_mean{0.0};
  std::uint64_t ipc_batch_jobs{0};
  double tcp_batch_mean{0.0};
  std::uint64_t tcp_batch_jobs{0};
  std::uint64_t ipc_msgs_delivered{0};
  std::uint64_t ipc_batches{0};
  /// Job completions fused past the event heap (EventQueue::fused()):
  /// back-to-back jobs on one HwThread that never re-entered the heap.
  std::uint64_t events_fused{0};
  std::uint64_t events_executed{0};
};

Fig9Run run_fig9_once(sim::SimTime warmup, sim::SimTime measure) {
  Testbed::Config cfg;
  cfg.seed = 12345;
  cfg.server_machine = sim::intel_xeon_e5520();
  // RX interrupt moderation (ethtool rx-usecs style): batch frames per
  // doorbell on both ends so the burst path is exercised end-to-end.
  cfg.server_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
  cfg.client_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
  Testbed tb(cfg);  // installs its own PacketPool for the simulation

  NeatServerOptions so;
  so.multi_component = true;
  so.replicas = 2;
  so.webs = 8;
  so.files = {{"/file20", 20}};
  so.placement = xeon_placement(true, 2, 8, /*ht=*/true);
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = 12;
  co.concurrency_per_gen = 24;
  co.requests_per_conn = 100;
  co.path = "/file20";
  ClientRig client = build_client(tb, co, 8);
  prepopulate_arp(server, client);

  Fig9Run r;
  const auto t0 = Clock::now();
  r.res = run_window(tb, client, warmup, measure);
  r.wall = secs_since(t0);

  const auto& nic = tb.server_nic.stats();
  r.pkts =
      static_cast<double>(nic.rx_frames) + static_cast<double>(nic.tx_frames);
  r.pkts_per_host_sec = r.pkts / r.wall;
  r.events_per_host_sec =
      static_cast<double>(tb.sim.queue().executed()) / r.wall;
  r.events_fused = tb.sim.queue().fused();
  r.events_executed = tb.sim.queue().executed();
  r.pool = tb.pool.stats();
  r.mallocs_per_pkt =
      r.pkts > 0 ? static_cast<double>(r.pool.fresh) / r.pkts : 0.0;
  r.reuse_frac = r.pool.fresh + r.pool.reused > 0
                     ? static_cast<double>(r.pool.reused) /
                           static_cast<double>(r.pool.fresh + r.pool.reused)
                     : 0.0;

  const auto batch_stats = [&tb](const char* hname, double& mean,
                                 std::uint64_t& jobs) {
    if (const auto* h = tb.sim.metrics().find_histogram(hname)) {
      mean = h->mean();
      jobs = h->count();
    }
  };
  batch_stats("nic.rx_batch_size", r.nic_batch_mean, r.nic_batch_jobs);
  batch_stats("ipc.batch_size", r.ipc_batch_mean, r.ipc_batch_jobs);
  batch_stats("tcp.rx_batch_size", r.tcp_batch_mean, r.tcp_batch_jobs);
  // Registry sweep (before the testbed dies): every channel in the sim,
  // messages delivered vs delivery jobs posted.
  for (const ipc::ChannelBase* ch : ipc::channel_registry()) {
    r.ipc_msgs_delivered += ch->channel_stats().delivered;
    r.ipc_batches += ch->channel_stats().batches;
  }
  return r;
}

void macro_fig9(JsonWriter& json, Gates& gates, sim::SimTime warmup,
                sim::SimTime measure, int reps, bool quick) {
  // Host wall-clock numbers are noisy on a shared machine: run the whole
  // configuration `reps` times and report the best pass (standard practice
  // for wall-clock benches — the minimum-interference run is the one that
  // reflects the code). Simulated quantities are identical across reps.
  Fig9Run best;
  for (int i = 0; i < reps; ++i) {
    Fig9Run r = run_fig9_once(warmup, measure);
    std::printf("  rep %d/%d: %.0f pkts/host-sec (wall %.2f s)\n", i + 1,
                reps, r.pkts_per_host_sec, r.wall);
    if (r.pkts_per_host_sec > best.pkts_per_host_sec) best = r;
  }
  const Fig9Run& r = best;
  // Process-wide peak resident set (Linux reports KiB). The fig9 passes
  // dominate it; a full run gates it so per-connection buffer memory cannot
  // silently come back.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("\nfig9 Multi 2x HT, 8 webs (%.0f ms simulated, best of %d):\n",
              static_cast<double>(warmup + measure) / 1e6, reps);
  std::printf("  krps                 %12.1f\n", r.res.krps);
  std::printf("  request p99          %12.3f ms\n", r.res.p99_latency_ms);
  std::printf("  wall                 %12.2f s\n", r.wall);
  std::printf("  sim packets          %12.0f\n", r.pkts);
  std::printf("  pkts / host-sec      %12.0f\n", r.pkts_per_host_sec);
  std::printf("  events / host-sec    %12.0f\n", r.events_per_host_sec);
  std::printf("  peak RSS             %12.1f MB\n", peak_rss_mb);
  std::printf("  nic rx batches       %12llu jobs (mean %.2f frames/job)\n",
              (unsigned long long)r.nic_batch_jobs, r.nic_batch_mean);
  std::printf("  ipc batches          %12llu jobs (mean %.2f msgs/job)\n",
              (unsigned long long)r.ipc_batch_jobs, r.ipc_batch_mean);
  std::printf("  tcp rx batches       %12llu jobs (mean %.2f segs/job)\n",
              (unsigned long long)r.tcp_batch_jobs, r.tcp_batch_mean);
  std::printf("  ipc delivered/batch  %12.2f (%llu msgs / %llu jobs)\n",
              r.ipc_batches > 0 ? static_cast<double>(r.ipc_msgs_delivered) /
                                      static_cast<double>(r.ipc_batches)
                                : 0.0,
              (unsigned long long)r.ipc_msgs_delivered,
              (unsigned long long)r.ipc_batches);
  std::printf("  buffer mallocs/pkt   %12.3f (pool reuse %.1f%%)\n",
              r.mallocs_per_pkt, r.reuse_frac * 100.0);
  std::printf("  fused completions    %12llu (%.1f%% of %llu jobs)\n",
              (unsigned long long)r.events_fused,
              r.events_executed > 0
                  ? 100.0 * static_cast<double>(r.events_fused) /
                        static_cast<double>(r.events_executed)
                  : 0.0,
              (unsigned long long)r.events_executed);

  json.add("fig9_reps", reps);
  json.add("fig9_krps", r.res.krps);
  json.add("fig9_requests", r.res.requests);
  json.add("fig9_p99_latency_ms", r.res.p99_latency_ms);
  json.add("fig9_wall_sec", r.wall);
  json.add("fig9_sim_packets", r.pkts);
  json.add("fig9_pkts_per_host_sec", r.pkts_per_host_sec);
  json.add("fig9_events_per_host_sec", r.events_per_host_sec);
  json.add("fig9_peak_rss_mb", peak_rss_mb);
  json.add("fig9_buffer_mallocs_per_packet", r.mallocs_per_pkt);
  json.add("fig9_pool_reuse_fraction", r.reuse_frac);
  json.add("pool_fresh", r.pool.fresh);
  json.add("pool_reused", r.pool.reused);
  json.add("pool_recycled", r.pool.recycled);
  json.add("pool_dropped_full", r.pool.dropped_full);

  // Per-batch vs per-packet accounting: how many work units each delivery
  // job amortizes, per layer.
  json.add("fig9_nic_rx_batch_jobs", r.nic_batch_jobs);
  json.add("fig9_nic_rx_batch_mean", r.nic_batch_mean);
  json.add("fig9_ipc_batch_jobs", r.ipc_batch_jobs);
  json.add("fig9_ipc_batch_mean", r.ipc_batch_mean);
  json.add("fig9_tcp_rx_batch_jobs", r.tcp_batch_jobs);
  json.add("fig9_tcp_rx_batch_mean", r.tcp_batch_mean);
  json.add("fig9_ipc_msgs_delivered", r.ipc_msgs_delivered);
  json.add("fig9_ipc_delivery_jobs", r.ipc_batches);
  json.add("fig9_events_fused", r.events_fused);
  json.add("fig9_events_executed", r.events_executed);

  json.add("baseline_fig9_pkts_per_host_sec", kBaselineFig9PktsPerHostSec);
  json.add("baseline_fig9_wall_sec", kBaselineFig9WallSec);
  json.add("baseline_fig9_krps", kBaselineFig9Krps);
  json.add("baseline_fig9_p99_latency_ms", kBaselineFig9P99Ms);
  json.add("baseline_fig9_ipc_batch_mean", kBaselineFig9IpcBatchMean);
  if (kBaselineFig9PktsPerHostSec > 0) {
    const double speedup =
        r.pkts_per_host_sec / kBaselineFig9PktsPerHostSec;
    std::printf("  speedup vs baseline  %12.2fx (pre-PR %0.0f pkts/host-s)\n",
                speedup, kBaselineFig9PktsPerHostSec);
    json.add("fig9_speedup_vs_baseline", speedup);
  }

  // Simulated, so both modes gate them: batching may not trade more than
  // 20% of the request p99, nor fall back to per-frame NIC doorbells.
  gates.check("fig9_p99_latency_ms", r.res.p99_latency_ms, "<=",
              1.20 * kBaselineFig9P99Ms);
  gates.check("fig9_nic_rx_batch_mean", r.nic_batch_mean, ">=", 1.5);
  if (quick) return;  // the committed values are full-length runs
  // Host throughput: <10% below the committed run, and above a floor that
  // ignores committed drift (the flat-overhead change measured 217k-224k
  // on this host class; 180k still catches a return to the earlier 174k).
  gates.check("fig9_pkts_per_host_sec", r.pkts_per_host_sec, ">=",
              committed("ext_perf", "fig9_pkts_per_host_sec").scaled(0.90));
  gates.check("fig9_pkts_per_host_sec_floor", r.pkts_per_host_sec, ">=",
              180000);
  // krps is seed-deterministic: a drift over 5% of the committed value
  // means the data path changed behavior, not just speed.
  const Operand krps = committed("ext_perf", "fig9_krps");
  gates.within("fig9_krps", r.res.krps, krps, 0, 0.05 * krps.value);
  // Socket rings pay only for the bytes they hold (DESIGN.md §5m): >20%
  // over the committed peak RSS means per-connection memory came back.
  gates.check("fig9_peak_rss_mb", peak_rss_mb, "<=",
              committed("ext_perf", "fig9_peak_rss_mb").scaled(1.20));
}

}  // namespace

int main(int argc, char** argv) {
  header("ext_perf: simulator wall-clock throughput (host-time measured)");
  // --quick: one short pass (sanitizer runs); full mode sizes the micro
  // loops for stable wall-clock numbers.
  const bool quick = has_flag(argc, argv, "--quick");
  JsonWriter json;
  json.add("quick_mode", quick);

  const std::size_t pkt_iters = quick ? 20'000 : 400'000;
  const std::size_t ring_iters = quick ? 2'000 : 40'000;
  const std::size_t ev_iters = quick ? 5'000 : 100'000;

  micro_packets(json, /*pooled=*/false, pkt_iters);
  micro_packets(json, /*pooled=*/true, pkt_iters);
  micro_ring(json, ring_iters);
  micro_events(json, ev_iters);

  const sim::SimTime warmup = quick ? 50 * sim::kMillisecond : kWarmup;
  const sim::SimTime measure = quick ? 50 * sim::kMillisecond : kMeasure;
  Gates gates;
  macro_fig9(json, gates, warmup, measure, /*reps=*/quick ? 1 : 3, quick);

  json.add(gates);
  json.write("ext_perf");
  return gates.exit_code();
}
