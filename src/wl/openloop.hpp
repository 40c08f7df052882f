// The HTTP client engine: every simulated client, open loop and closed.
//
// Sessions start according to an ArrivalModel. Open models (Poisson, MMPP,
// diurnal, flash crowd) draw arrival epochs from a schedule and never wait
// for the server: a slow server faces a growing connection backlog exactly
// as a real one would. `ArrivalModel::closed(users)` is the paper's httperf
// (§6): a fixed set of users, each opening its next keep-alive session as
// soon as the previous one ends, `requests_per_session` GETs per session.
//
// Latency is measured from each request's *intended* send time — the
// session's arrival epoch (plus think time) for the first request, so
// connect time is inside, and previous-completion + think-time for the
// rest — not from the moment the bytes left. A stalled server therefore
// cannot hide its stall by delaying the measurement clock (the
// coordinated-omission trap that makes closed-loop p99s look flat under
// overload). Abandoned or failed open sessions record their waited time
// as a lower-bound sample for the same reason. Closed users have no
// schedule: their requests are intended when sent, so `latency` equals
// `raw_latency`, and a failed closed session is discarded the httperf way
// (its in-window requests leave `committed_requests`, no lower bound).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/http.hpp"
#include "obs/metrics.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "socklib/socket_api.hpp"
#include "wl/arrival.hpp"
#include "wl/session.hpp"

namespace neat::wl {

class OpenLoopClient : public sim::Process {
 public:
  struct Config {
    std::string tenant{"t0"};
    net::SockAddr server;
    ArrivalModel arrival;
    SessionModel session;
    /// Paths a session may fetch (one chosen uniformly per session). The
    /// scenario builder populates this from a SizeModel so the byte mix is
    /// heavy-tailed while the server's FileStore stays finite.
    std::vector<std::string> catalog{{"/file20"}};
    /// Back-pressure valve: arrivals beyond this many live sessions are
    /// shed (counted, not silently dropped) so an overloaded run keeps
    /// bounded memory instead of accumulating unbounded sockets.
    std::size_t max_in_flight{4096};
    /// Stop opening sessions after this many in total (0 = never stop).
    std::uint64_t max_conns{0};
    /// Per-request latency budget; responses above it count as violations
    /// (0 = no SLO).
    sim::SimTime slo{0};
    /// When set, every 200-response body is compared byte-for-byte against
    /// this content (the served file); mismatches are counted in
    /// Report::payload_mismatches. The pointee must outlive the client.
    const std::vector<std::uint8_t>* expect_body{nullptr};

    sim::Cycles connect_cost{3500};  ///< a closed user opening a session
    sim::Cycles send_cost{2800};
    sim::Cycles recv_cost{2600};
    sim::Cycles per_16_bytes{2};
    sim::Cycles arrival_cost{200};  ///< an open-loop arrival
  };

  struct Report {
    std::uint64_t sessions_started{0};
    std::uint64_t sessions_completed{0};
    std::uint64_t sessions_failed{0};     ///< connection error mid-session
    std::uint64_t sessions_abandoned{0};  ///< user gave up waiting
    std::uint64_t sessions_shed{0};       ///< max_in_flight valve
    std::uint64_t requests_completed{0};
    std::uint64_t bytes_received{0};
    /// httperf's counts (§6.1): requests and body bytes of sessions that
    /// have not failed; a failed session takes its in-window share back.
    std::uint64_t committed_requests{0};
    std::uint64_t committed_bytes{0};
    /// Always equal to sessions_failed; kept under httperf's name only
    /// because perfbench/ reads it.
    std::uint64_t error_conns{0};
    std::uint64_t bad_status{0};
    /// Body bytes that differed from Config::expect_body (0 = integrity
    /// held end-to-end, the chaos campaign's core data invariant).
    std::uint64_t payload_mismatches{0};
    std::uint64_t slo_violations{0};
    /// CO-corrected: measured from intended send times (+ abandonment
    /// lower bounds). The honest distribution under overload.
    obs::Histogram latency;
    /// Wire-clock latency (send -> response) for comparison; the gap
    /// between the two distributions *is* the coordinated omission.
    obs::Histogram raw_latency;
  };

  OpenLoopClient(sim::Simulator& sim, std::string name, Config config);

  void attach_api(std::unique_ptr<socklib::SocketApi> api);
  /// Begin generating sessions: closed users open theirs now, open
  /// arrivals start after the current time.
  void start();
  /// Stop opening sessions; in-flight sessions drain naturally.
  void stop();
  /// Begin a fresh measurement window.
  void mark();

  [[nodiscard]] const Report& report() const { return report_; }
  [[nodiscard]] Config& config() { return config_; }
  [[nodiscard]] std::size_t in_flight_sessions() const {
    return sessions_.size();
  }

 protected:
  void on_restart() override {}

 private:
  struct Session {
    apps::HttpResponseParser parser;
    /// Index into the catalog (and requests_) of the path it fetches.
    std::uint32_t request{0};
    std::uint32_t remaining{1};
    /// Intended send time of the in-flight request (CO clock).
    sim::SimTime intended_at{0};
    sim::SimTime request_sent_at{0};
    std::uint64_t prev_body_total{0};
    /// Completed inside the current measurement window.
    std::uint64_t window_requests{0};
    std::uint64_t window_bytes{0};
    /// Bumped whenever the in-flight request resolves; stale abandonment
    /// timers compare against it and stand down.
    std::uint64_t wait_seq{0};
    bool request_outstanding{false};
  };

  [[nodiscard]] bool closed_loop() const {
    return config_.arrival.kind == ArrivalModel::Kind::kClosed;
  }
  [[nodiscard]] bool budget_spent() const {
    return config_.max_conns != 0 && sessions_opened_ >= config_.max_conns;
  }
  void schedule_next_arrival();
  void on_arrival(sim::SimTime epoch);
  void user_next_session();
  void open_session(sim::SimTime epoch);
  void issue_request(socklib::Fd fd, sim::SimTime from);
  void send_request(socklib::Fd fd, sim::SimTime intended);
  void arm_abandonment(socklib::Fd fd);
  void on_readable(socklib::Fd fd);
  void on_closed(socklib::Fd fd, socklib::CloseReason reason);
  void count_failure();
  void finish_session(socklib::Fd fd);
  void record_latency(sim::SimTime intended, sim::SimTime sent);
  void record_latency_sample(sim::SimTime co);

  Config config_;
  Report report_;
  /// Every session's callbacks (declared before api_: it outlives the
  /// sockets).
  socklib::ConnCallbacks conn_cb_;
  std::unique_ptr<socklib::SocketApi> api_;
  std::unique_ptr<ArrivalSampler> sampler_;
  /// The request bytes of each catalog path, built once by start().
  std::vector<std::vector<std::uint8_t>> requests_;
  sim::Rng rng_;
  std::unordered_map<socklib::Fd, Session> sessions_;
  obs::Histogram* hub_latency_{nullptr};
  obs::Counter* hub_requests_{nullptr};
  sim::SimTime last_epoch_{0};
  std::uint64_t sessions_opened_{0};  ///< all-time, against max_conns
  bool running_{false};
};

}  // namespace neat::wl
