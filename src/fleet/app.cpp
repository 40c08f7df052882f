#include "fleet/app.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>
#include <string>
#include <utility>

namespace neat::fleet {

namespace {

/// FleetClient ramp cap: connects awaiting their handshake, so the ramp
/// self-paces to the stack's establishment throughput. The SYSCALL channel
/// holds 4096 in-flight submissions and *drops silently* when full; the
/// in-flight cap (plus ping traffic) must stay well below that.
constexpr std::uint64_t kMaxInflightConnects = 1536;
/// A pinger unanswered for this many ping intervals resends; the resent
/// frame is also what flushes out a dead backend (the tier re-steers it to
/// a survivor, whose stack answers with a RST).
constexpr int kRetryIntervals = 3;

void put_u32(std::uint8_t* dst, std::uint32_t v) {
  dst[0] = static_cast<std::uint8_t>(v >> 24);
  dst[1] = static_cast<std::uint8_t>(v >> 16);
  dst[2] = static_cast<std::uint8_t>(v >> 8);
  dst[3] = static_cast<std::uint8_t>(v);
}

[[nodiscard]] std::uint32_t read_u32(const std::uint8_t* src) {
  return (static_cast<std::uint32_t>(src[0]) << 24) |
         (static_cast<std::uint32_t>(src[1]) << 16) |
         (static_cast<std::uint32_t>(src[2]) << 8) |
         static_cast<std::uint32_t>(src[3]);
}

/// Pull exactly one frame. Caller guarantees readable(fd) >= kPingFrame,
/// so the inner loop terminates within this event.
void read_frame(socklib::SockLib& lib, socklib::Fd fd,
                std::array<std::uint8_t, kPingFrame>& frame) {
  std::size_t have = 0;
  while (have < kPingFrame) {
    have += lib.recv(fd, std::span(frame.data() + have, kPingFrame - have));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PingServer
// ---------------------------------------------------------------------------

PingServer::PingServer(sim::Simulator& sim, std::string name, NeatHost& host,
                       int host_id)
    : sim::Process(sim, std::move(name)), host_id_(host_id) {
  conn_cb_.on_readable = [this](socklib::Fd fd) { service(fd); };
  conn_cb_.on_closed = [this](socklib::Fd fd, socklib::CloseReason r) {
    if (r == socklib::CloseReason::kMigratedAway) ++stats_.migrated_away;
    ++stats_.closed;
    lib_->close(fd);
    conns_.erase(fd);
  };
  lib_ = std::make_unique<socklib::SockLib>(*this, host);
}

PingServer::~PingServer() = default;

void PingServer::start(const std::vector<std::uint16_t>& ports,
                       std::size_t backlog) {
  for (const auto port : ports) {
    // The accept callback needs the listen fd that listen() returns.
    auto lfd = std::make_shared<socklib::Fd>(socklib::kBadFd);
    *lfd = lib_->listen(port, backlog, [this, lfd] { on_acceptable(*lfd); });
  }
}

void PingServer::on_acceptable(socklib::Fd listen_fd) {
  for (;;) {
    const socklib::Fd fd = lib_->accept(listen_fd, &conn_cb_);
    if (fd == socklib::kBadFd) return;
    conns_.try_emplace(fd);
    ++stats_.accepted;
  }
}

void PingServer::service(socklib::Fd fd) {
  while (lib_->readable(fd) >= kPingFrame) {
    std::array<std::uint8_t, kPingFrame> req;
    read_frame(*lib_, fd, req);
    std::array<std::uint8_t, kPingFrame> resp{};
    put_u32(resp.data(), static_cast<std::uint32_t>(host_id_));
    std::copy(req.begin() + 8, req.end(), resp.begin() + 8);
    lib_->send(fd, resp);
    ++stats_.requests;
  }
}

void PingServer::adopt(StackReplica& replica,
                       const std::vector<net::TcpSocketPtr>& sockets) {
  for (const auto& s : sockets) {
    const socklib::Fd fd = lib_->adopt_socket(replica, s, &conn_cb_);
    if (fd == socklib::kBadFd) continue;
    conns_.try_emplace(fd);
    ++stats_.adopted;
    // Requests (or partial frames completed by capture replay) may already
    // sit in the adopted receive buffer; the on_readable edge for those
    // bytes fired on the old host, so serve them explicitly once.
    service(fd);
  }
}

// ---------------------------------------------------------------------------
// FleetClient
// ---------------------------------------------------------------------------

FleetClient::FleetClient(sim::Simulator& sim, std::string name,
                         NeatHost& host, Config cfg)
    : sim::Process(sim, std::move(name)), host_(host), cfg_(std::move(cfg)) {
  assert(!cfg_.ports.empty());
  assert(cfg_.ramp_batch < 4096 && "batch must fit the SYSCALL channel");
  pinger_cb_.on_connected = [this](socklib::Fd fd) { on_connected(fd, true); };
  plain_cb_.on_connected = [this](socklib::Fd fd) { on_connected(fd, false); };
  for (auto* cb : {&pinger_cb_, &plain_cb_}) {
    cb->on_readable = [this](socklib::Fd fd) { on_readable(fd); };
    cb->on_closed = [this](socklib::Fd fd, socklib::CloseReason r) {
      on_closed(fd, r);
    };
  }
  lib_ = std::make_unique<socklib::SockLib>(*this, host_);
}

FleetClient::~FleetClient() = default;

void FleetClient::start() { ramp_tick(); }

void FleetClient::mark() {
  window_responses_.clear();
  measuring_ = true;
}

void FleetClient::ramp_tick() {
  // Self-pacing: never hold more than max_inflight_connects handshakes
  // open, so the ramp tracks whatever rate the stack can actually
  // establish at (and the SYSCALL channel never silently overflows).
  const std::uint64_t inflight =
      stats_.attempted - stats_.connected - stats_.connect_failures;
  std::uint64_t batch = std::min<std::uint64_t>(
      cfg_.ramp_batch, cfg_.total_conns - stats_.attempted);
  if (inflight >= kMaxInflightConnects) {
    batch = 0;
  } else {
    batch = std::min<std::uint64_t>(batch,
                                    kMaxInflightConnects - inflight);
  }
  while (batch-- > 0) open_one();
  if (stats_.attempted < cfg_.total_conns) {
    sim().queue().post(cfg_.ramp_interval, [this] { ramp_tick(); });
  }
}

void FleetClient::open_one() {
  ++stats_.attempted;
  const bool pinger = (stats_.attempted % cfg_.sample_every) == 0;
  const std::uint16_t port =
      cfg_.ports[next_port_++ % cfg_.ports.size()];

  lib_->connect(net::SockAddr{cfg_.vip, port},
                pinger ? &pinger_cb_ : &plain_cb_);
}

void FleetClient::on_connected(socklib::Fd fd, bool pinger) {
  ++stats_.connected;
  ++live_conns_;
  if (pinger) {
    pingers_.try_emplace(fd);
    ping_tick(fd);
  }
}

void FleetClient::on_closed(socklib::Fd fd, socklib::CloseReason r) {
  switch (r) {
    case socklib::CloseReason::kRefused:
      ++stats_.connect_failures;
      break;
    case socklib::CloseReason::kReset:
    case socklib::CloseReason::kStackFailure:
      ++stats_.closed_reset;
      if (live_conns_ > 0) --live_conns_;
      break;
    case socklib::CloseReason::kMigratedAway:
      ++stats_.closed_migrated;
      if (live_conns_ > 0) --live_conns_;
      break;
    default:
      ++stats_.closed_other;
      if (live_conns_ > 0) --live_conns_;
      break;
  }
  lib_->close(fd);
  pingers_.erase(fd);
}

void FleetClient::send_ping(socklib::Fd fd, Pinger& p) {
  p.sent_at = sim().now();
  p.outstanding = true;
  ++p.cookie;
  std::array<std::uint8_t, kPingFrame> req{};
  put_u32(req.data() + 8, static_cast<std::uint32_t>(p.cookie >> 32));
  put_u32(req.data() + 12, static_cast<std::uint32_t>(p.cookie));
  lib_->send(fd, req);
}

void FleetClient::ping_tick(socklib::Fd fd) {
  auto it = pingers_.find(fd);
  if (it == pingers_.end()) return;  // connection closed; stop the loop
  Pinger& p = it->second;
  if (!p.outstanding) {
    send_ping(fd, p);
  } else if (sim().now() - p.sent_at >=
             kRetryIntervals * cfg_.ping_interval) {
    // Unanswered for too long: the backend is likely dead. Resend — the
    // tier (its conntrack purged) re-steers the frame to a survivor whose
    // stack RSTs it, which is how this husk finally closes.
    ++stats_.retries;
    send_ping(fd, p);
  }
  sim().queue().post(cfg_.ping_interval, [this, fd] { ping_tick(fd); });
}

obs::Histogram& FleetClient::rtt_histogram(int host_id) {
  auto it = rtt_by_host_.find(host_id);
  if (it == rtt_by_host_.end()) {
    obs::Histogram& h = host_.metrics().histogram(
        "fleet.rtt.host" + std::to_string(host_id) + "_ns");
    it = rtt_by_host_.emplace(host_id, &h).first;
  }
  return *it->second;
}

void FleetClient::on_readable(socklib::Fd fd) {
  auto it = pingers_.find(fd);
  if (it == pingers_.end()) {
    // Ballast connections never send, so nothing should arrive here.
    return;
  }
  Pinger& p = it->second;
  while (lib_->readable(fd) >= kPingFrame) {
    std::array<std::uint8_t, kPingFrame> resp;
    read_frame(*lib_, fd, resp);
    const int host_id = static_cast<int>(read_u32(resp.data()));
    p.outstanding = false;
    ++stats_.responses;
    ++stats_.per_host_responses[host_id];
    ++window_responses_[host_id];
    if (measuring_) {
      const auto rtt = static_cast<std::uint64_t>(sim().now() - p.sent_at);
      host_.metrics().histogram("fleet.rtt_ns").record(rtt);
      rtt_histogram(host_id).record(rtt);
    }
  }
}

}  // namespace neat::fleet
