#include "wl/adversary.hpp"

#include <algorithm>
#include <cassert>

#include "net/packet.hpp"

namespace neat::wl {

using socklib::CloseReason;
using socklib::Fd;
using socklib::kBadFd;

// ---------------------------------------------------------------------------
// SynFlood
// ---------------------------------------------------------------------------

SynFlood::SynFlood(sim::Simulator& sim, std::string name, nic::Nic& nic,
                   Config config)
    : sim::Process(sim, std::move(name)),
      nic_(nic),
      config_(config),
      rng_(sim.rng().split(0x5f1d)) {}

void SynFlood::start() {
  if (running_) return;
  running_ = true;
  fire();
}

void SynFlood::stop() { running_ = false; }

void SynFlood::fire() {
  if (!running_) return;
  const double mean_gap_ns = 1e9 / std::max(config_.rate, 1.0);
  const auto gap = std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(rng_.exponential(mean_gap_ns)));
  after(gap, config_.per_syn_cost, [this] {
    if (!running_) return;
    const net::Ipv4Addr src{static_cast<std::uint32_t>(
        config_.spoof_base.value + rng_.below(config_.spoof_pool))};
    net::PacketPtr pkt = net::Packet::make(0);
    net::TcpHeader th;
    th.src_port = static_cast<std::uint16_t>(1024 + rng_.below(64512));
    th.dst_port = config_.target.port;
    th.seq = static_cast<std::uint32_t>(rng_());
    th.syn = true;
    th.window = 65535;
    th.mss_option = 1460;
    th.encode(*pkt, src, config_.target.ip);
    net::Ipv4Header ih;
    ih.src = src;
    ih.dst = config_.target.ip;
    ih.proto = net::IpProto::kTcp;
    ih.encode(*pkt);
    net::EthernetHeader eh;
    eh.dst = config_.target_mac;
    eh.src = nic_.mac();
    eh.type = net::EtherType::kIpv4;
    eh.encode(*pkt);
    nic_.transmit(std::move(pkt));
    ++stats_.syns_sent;
    fire();
  });
}

// ---------------------------------------------------------------------------
// Slowloris
// ---------------------------------------------------------------------------

Slowloris::Slowloris(sim::Simulator& sim, std::string name, Config config)
    : sim::Process(sim, std::move(name)), config_(std::move(config)) {
  conn_cb_.on_connected = [this](Fd fd) {
    if (!held_.contains(fd)) return;
    // A request line that never ends: the server's parser buffers it
    // forever, waiting for the blank line that never comes.
    static constexpr char kStub[] = "GET /file20 HTTP/1.1\r\nX-A: ";
    post(config_.send_cost, [this, fd] {
      if (!held_.contains(fd)) return;
      const auto* p = reinterpret_cast<const std::uint8_t*>(kStub);
      api_->send(fd, {p, sizeof(kStub) - 1});
      trickle(fd);
    });
  };
  conn_cb_.on_readable = [this](Fd fd) {
    if (!held_.contains(fd)) return;
    std::uint8_t buf[256];
    while (api_->recv(fd, buf) > 0) {
    }
    if (api_->eof(fd)) {
      // The server shed us with an orderly close; reconnect to keep the
      // pressure constant (what a real attack tool's event loop does).
      // The close runs from a fresh job, after this delivery is done.
      held_.erase(fd);
      ++stats_.conns_lost;
      post(0, [this, fd] {
        api_->close(fd);
        open_one();
      });
    }
  };
  conn_cb_.on_closed = [this](Fd fd, CloseReason) {
    if (held_.erase(fd) == 0) return;
    ++stats_.conns_lost;
    open_one();  // keep the pressure constant
  };
}

void Slowloris::attach_api(std::unique_ptr<socklib::SocketApi> api) {
  api_ = std::move(api);
}

void Slowloris::start() {
  assert(api_ && "attach_api() before start()");
  running_ = true;
  for (std::size_t i = 0; i < config_.connections; ++i) open_one();
}

void Slowloris::stop() {
  running_ = false;
  for (const Fd fd : held_) api_->close(fd);
  held_.clear();
}

void Slowloris::open_one() {
  if (!running_) return;
  post(config_.connect_cost, [this] {
    if (!running_) return;
    const Fd fd = api_->connect(config_.server, &conn_cb_);
    if (fd == kBadFd) {
      ++stats_.conns_lost;
      return;
    }
    held_.insert(fd);
    ++stats_.conns_opened;
  });
}

void Slowloris::trickle(Fd fd) {
  after(config_.trickle_every, config_.send_cost, [this, fd] {
    if (!running_ || !held_.contains(fd)) return;
    static constexpr std::uint8_t kByte[] = {'a'};
    api_->send(fd, kByte);
    ++stats_.bytes_trickled;
    trickle(fd);
  });
}

}  // namespace neat::wl
