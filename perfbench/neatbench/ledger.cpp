#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "apps/http.hpp"
#include "fleet/obs_merge.hpp"
#include "fleet/maglev.hpp"
#include "ipc/channel.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "neat/replica.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace neat::perfbench {

namespace {

double to_d(std::uint64_t v) { return static_cast<double>(v); }

/// Table 2's buckets for one role: simulated cycles (processing + polling +
/// kernel), jobs and wake-ups, summed over the role's processes.
struct RoleTotals {
  double cycles{0.0};
  double jobs{0.0};
  double wakeups{0.0};

  void add(const sim::ProcStats& s) {
    cycles += to_d(s.total_active());
    jobs += to_d(s.jobs);
    wakeups += to_d(s.wakeups);
  }
};

void add_role(Values& out, const std::string& role, const RoleTotals& t,
              double requests) {
  out.emplace_back(role + ".sim_cycles_per_req", ratio(t.cycles, requests));
  out.emplace_back(role + ".jobs_per_req", ratio(t.jobs, requests));
  out.emplace_back(role + ".wakeups_per_req", ratio(t.wakeups, requests));
}

}  // namespace

void layer_counts(const LayerInputs& in, Result& r) {
  Values& c = r.counts;
  const double reqs = in.requests;
  const double frames = to_d(in.frames);
  c.emplace_back("requests_served", reqs);
  c.emplace_back("frames", frames);

  // sim: engine work per simulated frame.
  const auto& q = in.sim->queue();
  c.emplace_back("sim.events_executed", to_d(q.executed()));
  c.emplace_back("sim.events_per_pkt", ratio(to_d(q.executed()), frames));
  c.emplace_back("sim.fused_frac", ratio(to_d(q.fused()), to_d(q.executed())));

  // nic: the server-side NICs.
  nic::NicStats ns;
  for (const auto* n : in.server_nics) {
    const auto& s = n->stats();
    ns.rx_dropped_queue_full += s.rx_dropped_queue_full;
    ns.filters_installed += s.filters_installed;
    ns.filters_retired += s.filters_retired;
    ns.filters_refaulted += s.filters_refaulted;
  }
  net::TcpStats ts;
  RoleTotals drv;
  RoleTotals ip;
  RoleTotals tcp;
  RoleTotals sys;
  for (NeatHost* h : in.server_hosts) {
    drv.add(h->driver().stats());
    sys.add(h->syscall().stats());
    for (std::size_t i = 0; i < h->replica_count(); ++i) {
      StackReplica& rep = h->replica(i);
      sim::Process* tcp_proc = rep.component(Component::kTcp);
      sim::Process* ip_proc = rep.component(Component::kIp);
      tcp.add(tcp_proc->stats());
      // Single-component replicas run IP inside the TCP process; their
      // cycles are attributed to net.tcp only.
      if (ip_proc != tcp_proc) ip.add(ip_proc->stats());
      const auto& st = rep.tcp().stats();
      ts.segments_in += st.segments_in;
      ts.segments_out += st.segments_out;
      ts.pure_acks_out += st.pure_acks_out;
      ts.retransmits += st.retransmits;
      ts.conns_accepted += st.conns_accepted;
    }
  }
  const double conns = to_d(ts.conns_accepted);
  const auto hist = [&in](const char* name) {
    return fleet::merged_histogram(in.hubs, name);
  };
  const obs::Histogram nic_batch = hist("nic.rx_batch_size");
  c.emplace_back("nic.rx_batch_mean", nic_batch.mean());
  c.emplace_back("nic.rx_dropped_queue_full", to_d(ns.rx_dropped_queue_full));
  c.emplace_back("nic.filters_installed_per_conn",
                 ratio(to_d(ns.filters_installed), conns));
  c.emplace_back("nic.filters_retired_per_conn",
                 ratio(to_d(ns.filters_retired), conns));
  c.emplace_back("nic.filter_refaults", to_d(ns.filters_refaulted));
  c.emplace_back("net.tcp.conns_accepted", conns);

  // Table 2 roles of the system under test.
  RoleTotals app;
  for (const auto* p : in.apps) app.add(p->stats());
  add_role(c, "drv", drv, reqs);
  add_role(c, "net.ip", ip, reqs);
  add_role(c, "net.tcp", tcp, reqs);
  add_role(c, "neat.syscall", sys, reqs);
  add_role(c, "apps.web", in.apps_are_fleet ? RoleTotals{} : app, reqs);
  add_role(c, "fleet.app", in.apps_are_fleet ? app : RoleTotals{}, reqs);

  // ipc: every channel alive in the simulation, via the registry.
  std::uint64_t dropped_full = 0;
  std::uint64_t delivered = 0;
  std::size_t hwm = 0;
  std::size_t broken = 0;
  std::string first_broken;
  for (const ipc::ChannelBase* ch : ipc::channel_registry()) {
    const auto& st = ch->channel_stats();
    dropped_full += st.dropped_full;
    delivered += st.delivered;
    hwm = std::max(hwm, st.in_flight_hwm);
    // The accounting identity, with the messages still staged inside their
    // transfer latency (at most the channel's in-flight count) as the
    // remainder: sent == delivered + dropped_full + dropped_dead + staged.
    const std::uint64_t accounted =
        st.delivered + st.dropped_full + st.dropped_dead;
    if (st.sent < accounted || st.sent - accounted > ch->channel_in_flight()) {
      if (broken++ == 0) first_broken = ch->describe();
    }
  }
  r.check("channel_accounting_identity", broken == 0,
          std::to_string(broken) + " of " +
              std::to_string(ipc::channel_registry().size()) +
              " channels broken" +
              (first_broken.empty() ? "" : " (first: " + first_broken + ")"));
  const obs::Histogram ipc_batch = hist("ipc.batch_size");
  const obs::Histogram ipc_delay = hist("ipc.queue_delay_ns");
  c.emplace_back("ipc.messages_delivered", to_d(delivered));
  c.emplace_back("ipc.batch_mean", ipc_batch.mean());
  c.emplace_back("ipc.queue_delay_p50_us",
                 interp_quantile(ipc_delay, 0.50) / 1e3);
  c.emplace_back("ipc.queue_delay_p99_us",
                 interp_quantile(ipc_delay, 0.99) / 1e3);
  c.emplace_back("ipc.dropped_full", to_d(dropped_full));
  c.emplace_back("ipc.in_flight_hwm", to_d(hwm));

  // net: server-side TCP and the packet pool.
  c.emplace_back("net.tcp.segs_per_req",
                 ratio(to_d(ts.segments_in + ts.segments_out), reqs));
  c.emplace_back("net.tcp.pure_ack_frac",
                 ratio(to_d(ts.pure_acks_out), to_d(ts.segments_out)));
  c.emplace_back("net.tcp.retransmits", to_d(ts.retransmits));
  c.emplace_back("net.tcp.rx_batch_mean",
                 hist("tcp.rx_batch_size").mean());
  const auto& ps = in.pool->stats();
  c.emplace_back("net.pool.fresh_per_pkt", ratio(to_d(ps.fresh), frames));
  c.emplace_back("net.pool.reuse_frac",
                 ratio(to_d(ps.reused), to_d(ps.fresh + ps.reused)));
  // Pool accounting: every packet handed out (fresh or reused) is returned
  // to the freelist, refused by a full bucket, or still live; the freelist
  // never hands out more than it took back.
  const std::uint64_t out = ps.fresh + ps.reused;
  const std::uint64_t back = ps.recycled + ps.dropped_full;
  c.emplace_back("net.pool.live", out >= back ? to_d(out - back) : -1.0);
  r.check("pool_accounting_closes", out >= back && ps.reused <= ps.recycled,
          "fresh " + std::to_string(ps.fresh) + " reused " +
              std::to_string(ps.reused) + " recycled " +
              std::to_string(ps.recycled) + " refused " +
              std::to_string(ps.dropped_full));

  c.emplace_back("socklib.wakeups_coalesced_per_req",
                 ratio(to_d(fleet::summed_counter(in.hubs,
                                                  "socklib.wakeups_coalesced")),
                       reqs));
}

// ---------------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------------

namespace {

struct Timed {
  std::uint64_t ops{0};
  double secs{0.0};
};

/// Repeat a self-timing pass until it has run ~0.15 s (at least 3 passes)
/// and return the median cost per operation in host nanoseconds.
double median_ns_per_op(const std::function<Timed()>& pass) {
  std::vector<double> per_op;
  double total = 0.0;
  while ((total < 0.15 || per_op.size() < 3) && per_op.size() < 200) {
    const Timed t = pass();
    if (t.ops == 0) return 0.0;
    total += t.secs;
    per_op.push_back(t.secs * 1e9 / static_cast<double>(t.ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

std::vector<net::PacketPtr> copies(const Capture& cap, bool inbound_only) {
  std::vector<net::PacketPtr> out;
  out.reserve(cap.frames.size());
  for (const Frame& f : cap.frames) {
    if (inbound_only && !f.inbound) continue;
    out.push_back(net::Packet::of(f.bytes));
  }
  return out;
}

double replay_nic(const Capture& cap, const ReplayTarget& t) {
  return median_ns_per_op([&]() -> Timed {
    sim::Simulator s(1);
    nic::NicParams p = t.nic_params;
    p.rx_coalesce_usecs = 0;
    nic::Nic n(s, t.mac, t.ip, p);
    n.set_active_queues(t.queues);
    std::vector<net::PacketPtr> pkts = copies(cap, /*inbound_only=*/true);
    const auto drain = [&] {
      for (const int q : t.queues) {
        while (n.poll_rx(q)) {
        }
      }
    };
    const auto t0 = Clock::now();
    std::size_t k = 0;
    for (auto& f : pkts) {
      n.receive(std::move(f));
      if (++k % 64 == 0) drain();
    }
    drain();
    return {pkts.size(), seconds_since(t0)};
  });
}

double replay_ip(const Capture& cap, const ReplayTarget& t) {
  return median_ns_per_op([&]() -> Timed {
    IpLayer ip(t.mac, t.ip, [](net::PacketPtr) {});
    std::vector<net::PacketPtr> pkts = copies(cap, /*inbound_only=*/true);
    std::uint64_t datagrams = 0;
    const auto t0 = Clock::now();
    for (const auto& f : pkts) {
      if (ip.rx_frame(f)) ++datagrams;
    }
    const double secs = seconds_since(t0);
    return {datagrams > 0 ? pkts.size() : 0, secs};
  });
}

double replay_codec(const Capture& cap, bool& all_valid) {
  all_valid = true;
  return median_ns_per_op([&]() -> Timed {
    std::vector<net::PacketPtr> pkts = copies(cap, /*inbound_only=*/false);
    std::uint64_t bad = 0;
    const auto t0 = Clock::now();
    for (auto& f : pkts) {
      const auto eth = net::EthernetHeader::decode(*f);
      if (!eth || eth->type != net::EtherType::kIpv4) continue;
      const auto ih = net::Ipv4Header::decode(*f);
      if (!ih) {
        ++bad;
        continue;
      }
      if (ih->proto != net::IpProto::kTcp) continue;
      // TcpHeader::decode verifies the pseudo-header checksum
      // (verify_transport_checksum) before parsing.
      if (!net::TcpHeader::decode(*f, ih->src, ih->dst)) ++bad;
    }
    const double secs = seconds_since(t0);
    if (bad > 0) all_valid = false;
    return {pkts.size(), secs};
  });
}

/// One direction of one TCP connection, reassembled from the capture.
struct Stream {
  bool request_side{false};  ///< client -> server (HTTP requests)
  std::vector<std::pair<std::size_t, std::size_t>> chunks;  // arena spans
};

struct Streams {
  std::vector<std::uint8_t> arena;
  std::vector<Stream> all;
};

/// Split the captured TCP payloads into per-direction byte streams, in
/// sequence order (a segment that does not continue its stream — a
/// retransmission — is skipped). A SYN starts a new stream for its 4-tuple.
Streams reassemble(const Capture& cap, const ReplayTarget& t) {
  Streams out;
  struct Active {
    std::size_t idx;
    std::uint32_t next_seq;
  };
  using Key = std::tuple<std::uint32_t, std::uint16_t, std::uint32_t,
                         std::uint16_t>;
  std::map<Key, Active> active;
  for (const Frame& f : cap.frames) {
    auto p = net::Packet::of(f.bytes);
    const auto eth = net::EthernetHeader::decode(*p);
    if (!eth || eth->type != net::EtherType::kIpv4) continue;
    const auto ih = net::Ipv4Header::decode(*p);
    if (!ih || ih->proto != net::IpProto::kTcp) continue;
    const auto th = net::TcpHeader::decode(*p, ih->src, ih->dst);
    if (!th) continue;
    const Key key{ih->src.value, th->src_port, ih->dst.value, th->dst_port};
    if (th->syn) {
      Stream s;
      s.request_side = th->dst_port >= t.http_base_port &&
                       th->dst_port < t.http_base_port + t.http_ports;
      out.all.push_back(std::move(s));
      active[key] = Active{out.all.size() - 1, th->seq + 1};
      continue;
    }
    const auto it = active.find(key);
    if (it == active.end() || p->size() == 0) continue;
    if (th->seq != it->second.next_seq) continue;
    const auto bytes = p->bytes();
    out.all[it->second.idx].chunks.emplace_back(out.arena.size(), bytes.size());
    out.arena.insert(out.arena.end(), bytes.begin(), bytes.end());
    it->second.next_seq += static_cast<std::uint32_t>(bytes.size());
  }
  return out;
}

double replay_http(const Capture& cap, const ReplayTarget& t,
                   std::uint64_t& requests, std::uint64_t& responses,
                   std::uint64_t& errors) {
  const Streams st = reassemble(cap, t);
  return median_ns_per_op([&]() -> Timed {
    requests = responses = errors = 0;
    const auto t0 = Clock::now();
    for (const Stream& s : st.all) {
      if (s.request_side) {
        apps::HttpRequestParser parser;
        for (const auto& [off, len] : s.chunks) {
          requests += parser.feed({st.arena.data() + off, len}).size();
        }
        if (parser.error()) ++errors;
      } else {
        apps::HttpResponseParser parser;
        for (const auto& [off, len] : s.chunks) {
          responses += parser.feed({st.arena.data() + off, len});
        }
        if (parser.error() || (parser.last_status() != 200 &&
                               parser.last_status() != 0)) {
          ++errors;
        }
      }
    }
    return {requests, seconds_since(t0)};
  });
}

/// TcpEnv for a stack pair wired back to back: a bench-owned event queue
/// supplies the clock and timers, and tx() hands each segment to the peer
/// stack after one simulated microsecond.
class PairEnv final : public net::TcpEnv {
 public:
  PairEnv(sim::EventQueue& q, std::uint64_t seed, std::uint64_t& segments)
      : q_(q), rng_(seed), segments_(segments) {}

  void set_peer(net::TcpStack* peer) { peer_ = peer; }

  sim::SimTime now() override { return q_.now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               std::function<void()> fn) override {
    return q_.schedule(delay, [fn = std::move(fn)] { fn(); });
  }
  void tx(net::PacketPtr segment, net::Ipv4Addr src,
          net::Ipv4Addr dst) override {
    ++segments_;
    q_.post(sim::kMicrosecond,
            [peer = peer_, seg = std::move(segment), src, dst]() mutable {
              peer->rx(src, dst, std::move(seg));
            });
  }
  std::uint32_t random_u32() override {
    return static_cast<std::uint32_t>(rng_());
  }

 private:
  sim::EventQueue& q_;
  sim::Rng rng_;
  std::uint64_t& segments_;
  net::TcpStack* peer_{nullptr};
};

/// Per-connection state of the pair's request/response loop.
struct PairConn {
  net::TcpSocketPtr client;
  net::TcpSocketPtr server;
  std::size_t client_got{0};
  std::size_t server_got{0};
  int completed{0};
};

double replay_tcp_pair(const TcpShape& shape, std::uint64_t& conns_done) {
  constexpr int kConnsPerPass = 64;
  constexpr std::uint16_t kPort = 80;
  const std::vector<std::uint8_t> request(shape.request_bytes, 'q');
  const std::vector<std::uint8_t> response(shape.response_bytes, 'r');
  return median_ns_per_op([&]() -> Timed {
    net::PacketPool pool;
    net::PacketPool::Use use(pool);
    sim::EventQueue q;
    std::uint64_t segments = 0;
    const auto server_ip = net::Ipv4Addr::of(10, 0, 0, 1);
    const auto client_ip = net::Ipv4Addr::of(10, 0, 0, 2);
    net::TcpConfig cfg;
    cfg.tso = shape.tso;
    cfg.send_buf = cfg.recv_buf = shape.buf_bytes;
    PairEnv server_env(q, 1, segments);
    PairEnv client_env(q, 2, segments);
    net::TcpStack server(server_env, server_ip, cfg);
    net::TcpStack client(client_env, client_ip, cfg);
    server_env.set_peer(&client);
    client_env.set_peer(&server);
    std::deque<PairConn> conns;
    std::vector<std::uint8_t> buf(std::max<std::size_t>(shape.response_bytes,
                                                        shape.request_bytes) +
                                  4096);
    std::uint64_t done = 0;

    const auto drain = [&buf](net::TcpSocket& s) {
      std::size_t n = 0;
      while (const std::size_t k = s.recv(buf)) n += k;
      return n;
    };
    net::TcpListener* l = server.listen(kPort, 1024);
    l->set_accept_ready([&] {
      while (net::TcpSocketPtr s = l->accept()) {
        // Match the accepted socket to its client half by port.
        PairConn* pc = nullptr;
        const std::uint16_t client_port = s->flow().remote_port;
        for (auto& c : conns) {
          if (!c.server && c.client->flow().local_port == client_port) {
            pc = &c;
            break;
          }
        }
        if (pc == nullptr) continue;
        pc->server = s;
        net::TcpSocket::Callbacks cb;
        cb.on_readable = [pc, &drain, &request, &response] {
          net::TcpSocket& so = *pc->server;
          pc->server_got += drain(so);
          while (pc->server_got >= request.size() && !request.empty()) {
            pc->server_got -= request.size();
            so.send(response);
          }
          if (so.eof()) so.close();
        };
        cb.on_closed = [](net::TcpCloseReason) {};
        s->set_callbacks(std::move(cb));
      }
    });

    const auto t0 = Clock::now();
    for (int i = 0; i < kConnsPerPass; ++i) {
      PairConn& pc = conns.emplace_back();
      pc.client = client.connect(net::SockAddr{server_ip, kPort});
      net::TcpSocket::Callbacks cb;
      cb.on_established = [&pc, &request] { pc.client->send(request); };
      cb.on_readable = [&pc, &drain, &request, &response, &shape, &done] {
        net::TcpSocket& so = *pc.client;
        pc.client_got += drain(so);
        while (pc.client_got >= response.size() && !response.empty()) {
          pc.client_got -= response.size();
          if (++pc.completed >= shape.requests_per_conn) {
            ++done;
            so.close();
            return;
          }
          so.send(request);
        }
      };
      cb.on_closed = [](net::TcpCloseReason) {};
      pc.client->set_callbacks(std::move(cb));
    }
    q.run();
    const double secs = seconds_since(t0);
    conns_done += done;
    return {done == kConnsPerPass ? segments : 0, secs};
  });
}

double replay_ipc(double batch) {
  const auto burst = static_cast<std::size_t>(std::max(1.0, batch + 0.5));
  return median_ns_per_op([&]() -> Timed {
    sim::Simulator s(1);
    sim::Machine& m = s.add_machine(sim::MachineParams{});
    sim::Process sink(s, "sink");
    sink.pin(m.thread(0));
    std::uint64_t got = 0;
    ipc::Channel<net::PacketPtr> ch(sink, 1024, ipc::kDefaultChannelLatency,
                                    sim::Cycles{100},
                                    [&got](net::PacketPtr&&) { ++got; });
    const net::PacketPtr pkt = net::Packet::make(64);
    constexpr std::size_t kMessages = 32768;
    const auto t0 = Clock::now();
    for (std::size_t sent = 0; sent < kMessages; sent += burst) {
      for (std::size_t k = 0; k < burst; ++k) ch.send(pkt);
      s.run();
    }
    const double secs = seconds_since(t0);
    return {got, secs};
  });
}

double replay_maglev_lookup(const Capture& cap, const ReplayTarget& t) {
  fleet::MaglevTable table(t.maglev_table_size);
  for (int b = 0; b < t.maglev_backends; ++b) table.add_backend(b);
  std::vector<net::FlowKey> flows;
  for (const Frame& f : cap.frames) {
    if (!f.inbound) continue;
    auto p = net::Packet::of(f.bytes);
    if (const auto pf = nic::Nic::peek_flow(*p, t.ip); pf && pf->is_tcp) {
      flows.push_back(pf->key);
    }
  }
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op([&]() -> Timed {
    const auto t0 = Clock::now();
    for (const auto& k : flows) {
      sink += static_cast<std::uint64_t>(table.lookup(k));
    }
    return {flows.size(), seconds_since(t0)};
  });
  return sink == ~std::uint64_t{0} ? -1.0 : ns;
}

double maglev_build_ms(const ReplayTarget& t) {
  std::vector<double> ms;
  for (int i = 0; i < 7; ++i) {
    const auto t0 = Clock::now();
    fleet::MaglevTable table(t.maglev_table_size);
    for (int b = 0; b < t.maglev_backends; ++b) table.add_backend(b);
    ms.push_back(seconds_since(t0) * 1e3 + (table.size() == 0 ? 1.0 : 0.0));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

void replay_layers(const Capture& cap, const ReplayTarget& t, Result& r) {
  net::PacketPool pool;
  net::PacketPool::Use use(pool);
  Values& h = r.host;
  h.emplace_back("trace.frames_tapped", static_cast<double>(cap.seen));
  h.emplace_back("trace.frames_kept", static_cast<double>(cap.frames.size()));
  h.emplace_back("nic.host_ns_per_frame", replay_nic(cap, t));
  h.emplace_back("net.ip_host_ns_per_frame", replay_ip(cap, t));
  bool frames_valid = true;
  h.emplace_back("net.codec_host_ns_per_frame",
                 replay_codec(cap, frames_valid));
  r.check("captured_frames_decode", frames_valid && !cap.frames.empty(),
          std::to_string(cap.frames.size()) + " frames replayed");
  std::uint64_t pair_conns = 0;
  h.emplace_back("net.tcp_host_ns_per_seg", replay_tcp_pair(t.tcp, pair_conns));
  r.check("tcp_pair_completes", pair_conns > 0,
          std::to_string(pair_conns) + " back-to-back connections");
  h.emplace_back("ipc.host_ns_per_msg", replay_ipc(t.ipc_batch));
  if (t.http) {
    std::uint64_t reqs = 0;
    std::uint64_t resps = 0;
    std::uint64_t errors = 0;
    h.emplace_back("apps.http_host_ns_per_req",
                   replay_http(cap, t, reqs, resps, errors));
    r.check("http_replay_parses", reqs > 0 && errors == 0,
            std::to_string(reqs) + " requests, " + std::to_string(resps) +
                " responses, " + std::to_string(errors) + " parse errors");
  } else {
    h.emplace_back("apps.http_host_ns_per_req", 0.0);
  }
  if (t.maglev_backends > 0) {
    h.emplace_back("fleet.maglev_host_ns_per_lookup",
                   replay_maglev_lookup(cap, t));
    h.emplace_back("fleet.maglev_build_ms", maglev_build_ms(t));
  } else {
    h.emplace_back("fleet.maglev_host_ns_per_lookup", 0.0);
    h.emplace_back("fleet.maglev_build_ms", 0.0);
  }
}

}  // namespace neat::perfbench
