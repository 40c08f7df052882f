#include "wl/openloop.hpp"

#include <algorithm>
#include <cassert>

namespace neat::wl {

using socklib::CloseReason;
using socklib::ConnCallbacks;
using socklib::Fd;
using socklib::kBadFd;

OpenLoopClient::OpenLoopClient(sim::Simulator& sim, std::string name,
                               Config config)
    : sim::Process(sim, std::move(name)),
      config_(std::move(config)),
      rng_(sim.rng().split(0x0917c ^ std::hash<std::string>{}(config_.tenant))) {
}

void OpenLoopClient::attach_api(std::unique_ptr<socklib::SocketApi> api) {
  api_ = std::move(api);
}

void OpenLoopClient::start() {
  assert(api_ && "attach_api() before start()");
  running_ = true;
  last_epoch_ = sim().now();
  hub_latency_ = &sim().metrics().histogram("wl." + config_.tenant +
                                            ".request_latency_ns");
  hub_requests_ =
      &sim().metrics().counter("wl." + config_.tenant + ".requests");
  if (closed_loop()) {
    for (std::size_t u = 0; u < config_.arrival.users; ++u) {
      user_next_session();
    }
    return;
  }
  sampler_ = std::make_unique<ArrivalSampler>(config_.arrival,
                                              rng_.split(0xa441));
  schedule_next_arrival();
}

void OpenLoopClient::stop() { running_ = false; }

void OpenLoopClient::mark() {
  report_ = Report{};
  for (auto& [fd, s] : sessions_) {
    s.window_requests = 0;
    s.window_bytes = 0;
  }
}

void OpenLoopClient::schedule_next_arrival() {
  if (!running_) return;
  const sim::SimTime epoch = sampler_->next_after(last_epoch_);
  last_epoch_ = epoch;
  const sim::SimTime now = sim().now();
  const sim::SimTime delay = epoch > now ? epoch - now : 0;
  after(delay, config_.arrival_cost, [this, epoch] {
    on_arrival(epoch);
    schedule_next_arrival();
  });
}

void OpenLoopClient::on_arrival(sim::SimTime epoch) {
  if (!running_ || budget_spent()) return;
  if (sessions_.size() >= config_.max_in_flight) {
    ++report_.sessions_shed;
    return;
  }
  ++sessions_opened_;
  open_session(epoch);
}

void OpenLoopClient::user_next_session() {
  if (!closed_loop() || !running_ || budget_spent()) return;
  ++sessions_opened_;
  post(config_.connect_cost, [this] { open_session(sim().now()); });
}

void OpenLoopClient::open_session(sim::SimTime epoch) {
  ++report_.sessions_started;

  ConnCallbacks cb;
  cb.on_connected = [this](Fd fd) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) return;
    // First request's CO clock starts at the arrival epoch: connect time
    // (SYN backlog queueing included) is part of what the user waited.
    issue_request(fd, it->second.intended_at);
  };
  cb.on_readable = [this](Fd fd) { on_readable(fd); };
  cb.on_closed = [this](Fd fd, CloseReason r) { on_closed(fd, r); };

  const Fd fd = api_->connect(config_.server, std::move(cb));
  if (fd == kBadFd) {
    count_failure();
    return;
  }
  Session& s = sessions_[fd];
  s.path = config_.catalog[rng_.below(config_.catalog.size())];
  s.remaining = config_.session.sample_requests(rng_);
  s.intended_at = epoch;
  if (config_.expect_body != nullptr) {
    // Element addresses in an unordered_map are stable; the sink dies
    // with the Session it points at.
    Session* sp = &s;
    s.parser.set_body_sink(
        [this, sp](std::size_t off, std::span<const std::uint8_t> chunk) {
          if (sp->parser.last_status() != 200) return;
          const auto& want = *config_.expect_body;
          if (off + chunk.size() > want.size() ||
              !std::equal(chunk.begin(), chunk.end(), want.begin() + off)) {
            ++report_.payload_mismatches;
          }
        });
  }
  // The user's patience clock runs from arrival, covering connect too: a
  // SYN that the server never answers must surface as abandonment, not
  // vanish because no request was ever "outstanding".
  arm_abandonment(fd);
}

void OpenLoopClient::issue_request(Fd fd, sim::SimTime from) {
  // Think time precedes every request, a session's first included. It is
  // user behavior, not server queueing, so the CO clock excludes it.
  const sim::SimTime think = config_.session.think_time;
  auto send = [this, fd, intended = from + think] {
    send_request(fd, intended);
  };
  if (think > 0) {
    after(think, config_.send_cost, std::move(send));
  } else {
    post(config_.send_cost, std::move(send));
  }
}

void OpenLoopClient::send_request(Fd fd, sim::SimTime intended) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  const auto req = apps::build_request(s.path);
  const std::size_t n = api_->send(fd, req);
  // Requests are tiny; a short write here means the connection is dying.
  if (n != req.size()) {
    api_->close(fd);
    on_closed(fd, CloseReason::kReset);
    return;
  }
  s.request_outstanding = true;
  s.request_sent_at = sim().now();
  // A closed user has no schedule: its request is intended when sent.
  s.intended_at = closed_loop() ? s.request_sent_at : intended;
  arm_abandonment(fd);
}

void OpenLoopClient::arm_abandonment(Fd fd) {
  if (config_.session.abandon_after == 0) return;
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  const std::uint64_t seq = it->second.wait_seq;
  after(config_.session.abandon_after, config_.recv_cost, [this, fd, seq] {
    auto sit = sessions_.find(fd);
    if (sit == sessions_.end() || sit->second.wait_seq != seq) return;
    // Still waiting on the same request: the user walks away. The time
    // already waited goes in as a latency lower bound — the request *at
    // least* took this long, and omitting it would censor the tail.
    const sim::SimTime waited = sim().now() - sit->second.intended_at;
    record_latency_sample(waited);
    ++report_.sessions_abandoned;
    finish_session(fd);
  });
}

void OpenLoopClient::on_readable(Fd fd) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  const std::size_t avail = api_->readable(fd);
  post(config_.recv_cost + config_.per_16_bytes * (avail / 16), [this, fd] {
    auto cit = sessions_.find(fd);
    if (cit == sessions_.end()) return;
    Session& s = cit->second;

    std::uint8_t buf[8192];
    std::size_t done = 0;
    while (true) {
      const std::size_t n = api_->recv(fd, buf);
      if (n == 0) break;
      done += s.parser.feed({buf, n});
      if (s.parser.error()) break;
    }

    if (s.parser.error()) {
      api_->close(fd);
      on_closed(fd, CloseReason::kReset);
      return;
    }

    for (std::size_t i = 0; i < done; ++i) {
      if (!s.request_outstanding) break;
      s.request_outstanding = false;
      ++s.wait_seq;  // retires the pending abandonment timer
      if (s.parser.last_status() != 200) ++report_.bad_status;

      record_latency(s.intended_at, s.request_sent_at);
      ++report_.requests_completed;
      hub_requests_->inc();
      const std::uint64_t nb =
          s.parser.body_bytes_total() - s.prev_body_total;
      s.prev_body_total = s.parser.body_bytes_total();
      report_.bytes_received += nb;
      // Committed optimistically; on_closed() takes the window's share
      // back if the session later fails.
      ++s.window_requests;
      ++report_.committed_requests;
      s.window_bytes += nb;
      report_.committed_bytes += nb;

      if (--s.remaining == 0) {
        ++report_.sessions_completed;
        finish_session(fd);
        return;
      }
      issue_request(fd, sim().now());
    }

    if (api_->eof(fd)) {
      api_->close(fd);
      on_closed(fd, CloseReason::kReset);
    }
  });
}

void OpenLoopClient::on_closed(Fd fd, CloseReason) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.request_outstanding && !closed_loop()) {
    // The in-flight request died with the connection; record the waited
    // time as a lower bound so failures don't launder the tail.
    record_latency_sample(sim().now() - s.intended_at);
  }
  // httperf semantics: a session with an error is dismissed from the
  // reported request rate and throughput.
  report_.committed_requests -=
      std::min(report_.committed_requests, s.window_requests);
  report_.committed_bytes -= std::min(report_.committed_bytes, s.window_bytes);
  sessions_.erase(it);
  count_failure();
}

// The one place sessions_failed and its alias error_conns move.
void OpenLoopClient::count_failure() {
  ++report_.sessions_failed;
  ++report_.error_conns;
  user_next_session();
}

void OpenLoopClient::finish_session(Fd fd) {
  // Erase before close() so a reentrant on_closed finds nothing and the
  // session is not double-counted as failed.
  sessions_.erase(fd);
  api_->close(fd);
  user_next_session();
}

void OpenLoopClient::record_latency(sim::SimTime intended,
                                    sim::SimTime sent) {
  const sim::SimTime now = sim().now();
  const sim::SimTime co = now > intended ? now - intended : 0;
  const sim::SimTime raw = now > sent ? now - sent : 0;
  record_latency_sample(co);
  report_.raw_latency.record(raw);
}

void OpenLoopClient::record_latency_sample(sim::SimTime co) {
  report_.latency.record(co);
  hub_latency_->record(co);
  if (config_.slo > 0 && co > config_.slo) ++report_.slo_violations;
}

}  // namespace neat::wl
