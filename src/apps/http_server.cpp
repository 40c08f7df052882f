#include "apps/http_server.hpp"

#include <algorithm>
#include <cassert>

#include "sim/simulator.hpp"

namespace neat::apps {

using socklib::CloseReason;
using socklib::Fd;
using socklib::kBadFd;

HttpServer::HttpServer(sim::Simulator& sim, std::string name,
                       const FileStore& files, std::uint16_t port)
    : sim::Process(sim, std::move(name)), files_(files), port_(port) {
  conn_cb_.on_readable = [this](Fd fd) { on_readable(fd); };
  conn_cb_.on_writable = [this](Fd fd) { continue_write(fd); };
  conn_cb_.on_closed = [this](Fd fd, CloseReason r) {
    if (r != CloseReason::kNormal) ++stats_.conn_errors;
    finish(fd);
  };
}

void HttpServer::attach_api(std::unique_ptr<socklib::SocketApi> api) {
  api_ = std::move(api);
}

void HttpServer::start() {
  assert(api_ && "attach_api() before start()");
  listen_fd_ = api_->listen(port_, 1024, [this] { accept_loop(); });
  sweep_timer_.cancel();
  if (first_byte_deadline > 0 || header_deadline > 0) deadline_sweep();
}

void HttpServer::accept_loop() {
  // One accept per job so each new connection pays its cost; chain while
  // more are pending.
  post(costs_.accept, [this] {
    const Fd fd = api_->accept(listen_fd_, &conn_cb_);
    if (fd == kBadFd) return;
    ++stats_.conns_accepted;
    Conn c;
    c.accepted_at = sim().now();
    conns_.emplace(fd, std::move(c));
    accept_loop();  // maybe more queued
  });
}

void HttpServer::on_readable(Fd fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const std::size_t avail = api_->readable(fd);
  post(costs_.read_parse + costs_.per_16_bytes * (avail / 16), [this, fd] {
    auto cit = conns_.find(fd);
    if (cit == conns_.end()) return;
    Conn& c = cit->second;

    std::uint8_t buf[4096];
    std::size_t got = 0;
    std::size_t completed = 0;
    while (true) {
      const std::size_t n = api_->recv(fd, buf);
      if (n == 0) break;
      got += n;
      const std::size_t reqs = c.parser.feed({buf, n}, c.queue);
      completed += reqs;
      c.queue_at.insert(c.queue_at.end(), reqs, sim().now());
    }
    if (got > 0) {
      c.got_bytes = true;
      if (completed > 0) {
        // Finishing a request is real progress: the header clock restarts
        // for whatever partial request the parser still buffers.
        c.header_start_at = c.parser.partial() ? sim().now() : 0;
      } else if (c.header_start_at == 0) {
        c.header_start_at = sim().now();
      }
      // else: trickled header bytes — deliberately NOT progress.
    }
    if (c.parser.error()) {
      api_->close(fd);
      finish(fd);
      return;
    }
    if (api_->eof(fd) && c.queue.empty() && c.out.empty()) {
      api_->close(fd);
      finish(fd);
      return;
    }
    serve_next(fd);
  });
}

void HttpServer::serve_next(Fd fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.respond_pending || c.queue.empty() || !c.out.empty()) return;
  c.respond_pending = true;

  // The response job needs only the body and keep-alive flag, not the
  // request: a small capture keeps the job inline (no heap closure, no
  // string copies).
  const std::vector<std::uint8_t>* body = files_.lookup(c.queue.front().path);
  const bool keep_alive = c.queue.front().keep_alive;
  c.queue.erase(c.queue.begin());
  const sim::SimTime arrived_at = c.queue_at.front();
  c.queue_at.erase(c.queue_at.begin());
  const std::size_t body_size = body ? body->size() : 0;

  post(costs_.respond + costs_.per_16_bytes * (body_size / 16),
       [this, fd, keep_alive, body, arrived_at] {
         auto cit = conns_.find(fd);
         if (cit == conns_.end()) return;
         Conn& c = cit->second;
         c.respond_pending = false;

         if (body != nullptr) {
           serialize_response(c.out, 200, *body, keep_alive);
           ++stats_.requests;
           const sim::SimTime lat = sim().now() - arrived_at;
           if (req_latency_ == nullptr) {
             req_latency_ = &sim().metrics().histogram("http.request_latency_ns");
           }
           req_latency_->record(lat);
           sim().tracer().emit(
               {arrived_at, lat ? lat : 1, "http", "request_served", 0, fd, ""});
         } else {
           serialize_response(c.out, 404, {});
           ++stats_.not_found;
         }
         c.out_off = 0;
         ++c.served;
         if (!keep_alive || c.served >= max_requests_per_conn) {
           c.closing = true;
         }
         continue_write(fd);
       });
}

void HttpServer::continue_write(Fd fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.out.empty()) {
    serve_next(fd);
    return;
  }
  const std::size_t n = api_->send(
      fd, std::span<const std::uint8_t>{c.out}.subspan(c.out_off));
  c.out_off += n;
  stats_.bytes_sent += n;
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
    if (c.closing) {
      api_->close(fd);
      finish(fd);
      return;
    }
    serve_next(fd);  // pipelined request may be waiting
  }
  // else: short write — resume on on_writable
}

void HttpServer::finish(Fd fd) { conns_.erase(fd); }

void HttpServer::deadline_sweep() {
  const sim::SimTime now = sim().now();
  std::vector<Fd> stalled;
  for (auto& [fd, c] : conns_) {
    if (first_byte_deadline > 0 && !c.got_bytes &&
        now - c.accepted_at > first_byte_deadline) {
      stalled.push_back(fd);
    } else if (header_deadline > 0 && c.header_start_at > 0 &&
               now - c.header_start_at > header_deadline) {
      stalled.push_back(fd);
    }
  }
  for (Fd fd : stalled) {
    ++stats_.deadline_closes;
    api_->close(fd);
    finish(fd);
  }
  if (!stalled.empty()) {
    sim().metrics().counter("http.deadline_closes").inc(stalled.size());
  }
  // Sweep at a quarter of the tightest configured deadline: a holder
  // overstays by at most 25%.
  sim::SimTime tight = 0;
  if (first_byte_deadline > 0) tight = first_byte_deadline;
  if (header_deadline > 0 && (tight == 0 || header_deadline < tight)) {
    tight = header_deadline;
  }
  if (tight == 0) return;
  const sim::SimTime period = std::max<sim::SimTime>(tight / 4, sim::kMillisecond);
  sweep_timer_ = after(period, 0, [this] { deadline_sweep(); });
}

void HttpServer::on_restart() {
  conns_.clear();
  if (api_ && listen_fd_ != kBadFd) start();
}

}  // namespace neat::apps
