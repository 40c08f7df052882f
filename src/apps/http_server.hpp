// The benchmark web server — the paper's lighttpd stand-in.
//
// Event-driven, serves in-memory static files over keep-alive HTTP/1.1,
// deliberately minimal so measurements exercise the network stack rather
// than the application (§6.2). Programmed strictly against SocketApi: the
// same binary logic runs on the NEaT stack and on the Linux baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "apps/http.hpp"
#include "obs/metrics.hpp"
#include "sim/process.hpp"
#include "socklib/socket_api.hpp"

namespace neat::apps {

class HttpServer : public sim::Process {
 public:
  /// Application-side CPU costs per operation (include the user-space part
  /// of the socket library, as lighttpd's profile would).
  struct Costs {
    sim::Cycles accept{2500};
    sim::Cycles read_parse{6500};   ///< per readable event + request parse
    sim::Cycles respond{30400};     ///< per request: dispatch + headers
    sim::Cycles per_16_bytes{2};    ///< body copy
  };

  struct Stats {
    std::uint64_t conns_accepted{0};
    std::uint64_t requests{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t not_found{0};
    std::uint64_t conn_errors{0};
    /// Connections closed by the slowloris header deadlines.
    std::uint64_t deadline_closes{0};
  };

  HttpServer(sim::Simulator& sim, std::string name, const FileStore& files,
             std::uint16_t port);

  /// The server owns its socket API instance (its libc, so to speak).
  void attach_api(std::unique_ptr<socklib::SocketApi> api);

  /// Open the listening socket and start serving.
  void start();

  [[nodiscard]] const Stats& app_stats() const { return stats_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] socklib::SocketApi& api() { return *api_; }

  /// Keep-alive request limit per connection (paper tuned lighttpd to
  /// 1000).
  int max_requests_per_conn{1000};

  /// Slowloris defense. `first_byte_deadline` bounds accept() -> first
  /// byte; `header_deadline` bounds the time from a request's first byte
  /// to its complete header (it deliberately does NOT reset on trickled
  /// bytes — that trickle is the attack). Completing a request resets the
  /// clock for the next one. 0 disables (the undefended baseline).
  sim::SimTime first_byte_deadline{0};
  sim::SimTime header_deadline{0};

 protected:
  void on_restart() override;

 private:
  struct Conn {
    HttpRequestParser parser;
    /// Pending response bytes; serialized in place, so its capacity
    /// carries from response to response.
    std::vector<std::uint8_t> out;
    std::size_t out_off{0};
    int served{0};
    bool closing{false};
    bool respond_pending{0};
    std::vector<HttpRequest> queue;  // pipelined/waiting requests
    std::vector<sim::SimTime> queue_at;  // arrival stamp per queued request
    sim::SimTime accepted_at{0};
    bool got_bytes{false};          // any data ever received
    /// First byte of the in-progress request's header (0 = no partial
    /// request outstanding); the header deadline measures from here.
    sim::SimTime header_start_at{0};
  };

  void accept_loop();
  void on_readable(socklib::Fd fd);
  void serve_next(socklib::Fd fd);
  void continue_write(socklib::Fd fd);
  void finish(socklib::Fd fd);
  void deadline_sweep();

  const FileStore& files_;
  std::uint16_t port_;
  const Costs costs_{};
  Stats stats_;
  /// Every connection's callbacks (declared before api_: it outlives the
  /// sockets).
  socklib::ConnCallbacks conn_cb_;
  std::unique_ptr<socklib::SocketApi> api_;
  socklib::Fd listen_fd_{socklib::kBadFd};
  std::unordered_map<socklib::Fd, Conn> conns_;
  obs::Histogram* req_latency_{nullptr};
  sim::EventHandle sweep_timer_;
};

}  // namespace neat::apps
