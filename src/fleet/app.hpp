// Fleet workload applications.
//
// PingServer: the backend application — accepts connections on a set of
// ports and answers fixed 16-byte requests with fixed 16-byte responses
// that carry the serving host's id. Frames are consumed only when all 16
// bytes are buffered, so a request stream cut at any byte by a cross-host
// migration resumes byte-exactly on the adopting host (the partial frame
// rides the moved TCP receive buffer); the embedded host id is what lets
// clients attribute every response (and hence latency sample) to the
// backend that actually served it.
//
// FleetClient: the client application — ramps up a large population of
// connections to the VIP (paced, to respect the SYSCALL channel depth),
// then drives a sampled subset of them as "pingers" that measure
// request/response latency per serving backend. The unsampled majority
// sit established and idle: they are the million-connection ballast that
// makes host crash/drain experiments meaningful without needing a million
// concurrent request streams.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fleet/cluster.hpp"
#include "sim/flat_map.hpp"
#include "sim/process.hpp"
#include "socklib/socklib.hpp"

namespace neat::fleet {

/// Both directions speak fixed 16-byte frames: request carries a client
/// cookie in bytes [8,16); response echoes it and stamps the serving
/// host's id into bytes [0,4).
inline constexpr std::size_t kPingFrame = 16;

class PingServer : public sim::Process {
 public:
  struct Stats {
    std::uint64_t accepted{0};
    std::uint64_t requests{0};
    std::uint64_t adopted{0};        ///< sockets taken over from another host
    std::uint64_t migrated_away{0};  ///< husk fds dropped after a drain
    std::uint64_t closed{0};
  };

  /// `host_id` is stamped into every response (clients attribute by it).
  PingServer(sim::Simulator& sim, std::string name, NeatHost& host,
             int host_id);
  ~PingServer() override;

  /// listen() on every port (call once, before the simulation runs).
  void start(const std::vector<std::uint16_t>& ports,
             std::size_t backlog = 1024);

  /// Receiving side of a cross-host drain: wrap each adopted TCP socket in
  /// a fresh fd and resume serving it (FleetCluster adoption handler).
  void adopt(StackReplica& replica,
             const std::vector<net::TcpSocketPtr>& sockets);

  [[nodiscard]] const Stats& app_stats() const { return stats_; }
  [[nodiscard]] socklib::SockLib& lib() { return *lib_; }

 private:
  void on_acceptable(socklib::Fd listen_fd);
  /// Serve every complete frame currently buffered on `fd`.
  void service(socklib::Fd fd);

  int host_id_;
  /// Every connection's callbacks (declared before lib_: it outlives the
  /// sockets).
  socklib::ConnCallbacks conn_cb_;
  std::unique_ptr<socklib::SockLib> lib_;
  /// Open fds (a set: the value is unused). Never iterated.
  sim::FlatMap<socklib::Fd, bool, sim::IntHash> conns_;
  Stats stats_;
};

class FleetClient : public sim::Process {
 public:
  struct Config {
    net::Ipv4Addr vip;
    std::vector<std::uint16_t> ports;  ///< server ports, round-robined
    std::uint64_t total_conns{1000};   ///< connections to ramp up
    /// Pacing: up to `ramp_batch` connects per `ramp_interval`, but never
    /// more than kMaxInflightConnects (app.cpp) awaiting their handshake.
    std::uint64_t ramp_batch{256};
    sim::SimTime ramp_interval{1 * sim::kMillisecond};
    /// Every sample_every-th connection becomes a pinger.
    std::uint64_t sample_every{64};
    sim::SimTime ping_interval{10 * sim::kMillisecond};
  };

  struct Stats {
    std::uint64_t attempted{0};
    std::uint64_t connected{0};
    std::uint64_t connect_failures{0};  ///< refused (port space exhausted)
    std::uint64_t responses{0};
    std::uint64_t retries{0};
    std::uint64_t closed_reset{0};     ///< RST / stack failure
    std::uint64_t closed_migrated{0};  ///< kMigratedAway (never expected on
                                       ///< the client side of a drain)
    std::uint64_t closed_other{0};
    /// Responses per serving backend host id (crash-isolation accounting).
    std::map<int, std::uint64_t> per_host_responses;
  };

  FleetClient(sim::Simulator& sim, std::string name, NeatHost& host,
              Config cfg);
  ~FleetClient() override;

  void start();

  /// Open a measurement window: the per-host window counters restart from
  /// zero (totals in app_stats() keep running).
  void mark();
  [[nodiscard]] const Stats& app_stats() const { return stats_; }
  [[nodiscard]] const std::map<int, std::uint64_t>& window_responses() const {
    return window_responses_;
  }
  [[nodiscard]] std::uint64_t live_connections() const { return live_conns_; }
  [[nodiscard]] socklib::SockLib& lib() { return *lib_; }

 private:
  struct Pinger {
    sim::SimTime sent_at{0};
    bool outstanding{false};
    std::uint64_t cookie{0};
  };

  void ramp_tick();
  void open_one();
  void on_connected(socklib::Fd fd, bool pinger);
  void on_closed(socklib::Fd fd, socklib::CloseReason r);
  void ping_tick(socklib::Fd fd);
  void send_ping(socklib::Fd fd, Pinger& p);
  void on_readable(socklib::Fd fd);
  [[nodiscard]] obs::Histogram& rtt_histogram(int host_id);

  NeatHost& host_;
  Config cfg_;
  /// Connection callbacks: every sample_every-th connection is a pinger.
  /// Declared before lib_: they outlive the sockets.
  socklib::ConnCallbacks pinger_cb_;
  socklib::ConnCallbacks plain_cb_;
  std::unique_ptr<socklib::SockLib> lib_;
  /// Never iterated; no reference into it is held across an insert/erase.
  sim::FlatMap<socklib::Fd, Pinger, sim::IntHash> pingers_;
  std::unordered_map<int, obs::Histogram*> rtt_by_host_;
  /// RTT histograms record only after mark(): warmup runs the ramp at the
  /// stack's saturation point, and those queueing delays are not what the
  /// measure-window percentiles are about.
  bool measuring_{false};
  std::uint64_t live_conns_{0};
  std::uint64_t next_port_{0};
  Stats stats_;
  std::map<int, std::uint64_t> window_responses_;
};

}  // namespace neat::fleet
