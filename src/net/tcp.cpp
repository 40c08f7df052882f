#include "net/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <type_traits>
#include <utility>

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "net/wire.hpp"

namespace neat::net {

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

void TcpHeader::encode(Packet& pkt, Ipv4Addr src, Ipv4Addr dst) const {
  const std::size_t opts = mss_option ? 4 : 0;
  const std::size_t hlen = kMinSize + opts;
  auto b = pkt.push(hlen);
  put_u16(b, 0, src_port);
  put_u16(b, 2, dst_port);
  put_u32(b, 4, seq);
  put_u32(b, 8, ack_flag ? ack : 0);
  put_u8(b, 12, static_cast<std::uint8_t>((hlen / 4) << 4));
  std::uint8_t flags = 0;
  if (fin) flags |= 0x01;
  if (syn) flags |= 0x02;
  if (rst) flags |= 0x04;
  if (psh) flags |= 0x08;
  if (ack_flag) flags |= 0x10;
  put_u8(b, 13, flags);
  put_u16(b, 14, window);
  put_u16(b, 16, 0);  // checksum placeholder
  put_u16(b, 18, 0);  // urgent pointer
  if (mss_option) {
    put_u8(b, 20, 2);  // kind: MSS
    put_u8(b, 21, 4);  // length
    put_u16(b, 22, *mss_option);
  }
  put_u16(pkt.bytes(), 16,
          transport_checksum(src, dst, static_cast<std::uint8_t>(IpProto::kTcp),
                             pkt.bytes()));
}

std::optional<TcpHeader> TcpHeader::decode(Packet& pkt, Ipv4Addr src,
                                           Ipv4Addr dst) {
  if (pkt.size() < kMinSize) return std::nullopt;
  if (!verify_transport_checksum(
          src, dst, static_cast<std::uint8_t>(IpProto::kTcp), pkt.bytes())) {
    return std::nullopt;
  }
  auto whole = pkt.bytes();
  const std::size_t hlen = static_cast<std::size_t>(whole[12] >> 4) * 4;
  if (hlen < kMinSize || hlen > pkt.size()) return std::nullopt;

  TcpHeader h;
  h.src_port = get_u16(whole, 0);
  h.dst_port = get_u16(whole, 2);
  h.seq = get_u32(whole, 4);
  h.ack = get_u32(whole, 8);
  const std::uint8_t flags = whole[13];
  h.fin = flags & 0x01;
  h.syn = flags & 0x02;
  h.rst = flags & 0x04;
  h.psh = flags & 0x08;
  h.ack_flag = flags & 0x10;
  h.window = get_u16(whole, 14);

  // Parse options (we understand MSS; skip the rest).
  std::size_t off = kMinSize;
  while (off < hlen) {
    const std::uint8_t kind = whole[off];
    if (kind == 0) break;   // end of options
    if (kind == 1) {        // NOP
      ++off;
      continue;
    }
    if (off + 1 >= hlen) break;
    const std::uint8_t len = whole[off + 1];
    if (len < 2 || off + len > hlen) break;
    if (kind == 2 && len == 4) h.mss_option = get_u16(whole, off + 2);
    off += len;
  }
  pkt.pull(hlen);
  return h;
}

// ---------------------------------------------------------------------------
// SYN cookies
// ---------------------------------------------------------------------------

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// 26-bit keyed MAC binding the cookie to the full (unmasked) counter, so
/// a stale cookie fails even when its 3-bit tag aliases a current period.
std::uint32_t cookie_mac(std::uint64_t secret, const FlowKey& flow,
                         std::uint32_t client_isn, std::uint32_t count,
                         unsigned mss_idx) {
  std::uint64_t h = mix64(secret ^ 0x4e4561547631ULL);  // "NEaTv1"
  h = mix64(h ^ (static_cast<std::uint64_t>(flow.local_ip.value) << 32 |
                 flow.remote_ip.value));
  h = mix64(h ^ (static_cast<std::uint64_t>(flow.local_port) << 48 |
                 static_cast<std::uint64_t>(flow.remote_port) << 32 |
                 client_isn));
  h = mix64(h ^ (static_cast<std::uint64_t>(count) << 3 | mss_idx));
  return static_cast<std::uint32_t>(h) & 0x03ffffffu;
}

}  // namespace

unsigned syn_cookie_mss_index(std::uint16_t mss) {
  unsigned idx = 0;
  for (unsigned i = 0; i < kSynCookieMss.size(); ++i) {
    if (kSynCookieMss[i] <= mss) idx = i;
  }
  return idx;
}

std::uint32_t syn_cookie_make(std::uint64_t secret, const FlowKey& flow,
                              std::uint32_t client_isn, std::uint32_t count,
                              unsigned mss_idx) {
  mss_idx &= 7u;
  return (count & 7u) << 29 | static_cast<std::uint32_t>(mss_idx) << 26 |
         cookie_mac(secret, flow, client_isn, count, mss_idx);
}

std::optional<std::uint16_t> syn_cookie_check(std::uint64_t secret,
                                              const FlowKey& flow,
                                              std::uint32_t client_isn,
                                              std::uint32_t cookie,
                                              std::uint32_t now_count) {
  const std::uint32_t tag = cookie >> 29;
  const unsigned mss_idx = (cookie >> 26) & 7u;
  const std::uint32_t mac = cookie & 0x03ffffffu;
  // Accept the current and the previous rotation period only.
  for (std::uint32_t age = 0; age <= 1; ++age) {
    if (age > now_count) break;
    const std::uint32_t cand = now_count - age;
    if ((cand & 7u) != tag) continue;
    if (cookie_mac(secret, flow, client_isn, cand, mss_idx) == mac) {
      return kSynCookieMss[mss_idx];
    }
  }
  return std::nullopt;
}

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

namespace {

/// Liveness of every TCB in the process, for the timer jobs that hold a
/// bare TCB pointer: each TCB takes a slot at construction and bumps the
/// slot's generation when it dies, so a job armed with (slot, generation)
/// finds its TCB alive exactly when the weak_ptr it used to hold would
/// have locked. Slots are reused LIFO; a generation would need 2^32 deaths
/// in one slot to wrap. Like the rest of the simulator, single-threaded.
class TcbLiveness {
 public:
  std::uint32_t acquire() {
    if (free_.empty()) {
      gen_.push_back(0);
      return static_cast<std::uint32_t>(gen_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void release(std::uint32_t slot) {
    ++gen_[slot];
    free_.push_back(slot);
  }
  [[nodiscard]] std::uint32_t generation(std::uint32_t slot) const {
    return gen_[slot];
  }

 private:
  std::vector<std::uint32_t> gen_;
  std::vector<std::uint32_t> free_;
};

/// Never destroyed: a TCB that dies during static destruction still
/// finds its slot.
TcbLiveness& tcb_liveness() {
  static auto* const table = new TcbLiveness;
  return *table;
}

}  // namespace

template <void (TcpSocket::*Fire)()>
auto TcpSocket::timer_job() {
  // A bare pointer plus the liveness token: 16 B and trivially copyable,
  // so the std::function of TcpEnv::start_timer stores it inline — arming
  // a timer allocates nothing. The TCB need not be kept alive for the
  // call: no timer handler can drop its last reference before it returns
  // (enter_closed() holds its own).
  auto job = [sock = this, slot = live_slot_,
              gen = tcb_liveness().generation(live_slot_)] {
    if (tcb_liveness().generation(slot) == gen) (sock->*Fire)();
  };
  static_assert(sizeof(job) <= 16 &&
                    std::is_trivially_copyable_v<decltype(job)>,
                "a TCP timer job must fit std::function's inline buffer");
  return job;
}

TcpSocket::TcpSocket(TcpStack& stack, FlowKey flow)
    : stack_(stack),
      flow_(flow),
      send_ring_(stack.config().send_buf),
      recv_ring_(stack.config().recv_buf),
      // Effectively "infinite" until the first loss.
      ssthresh_(stack.config().recv_buf * 64),
      rto_(stack.config().rto_initial),
      live_slot_(tcb_liveness().acquire()) {
  cwnd_ = cfg().initial_cwnd_segments * cfg().mss;
  state_entered_ = stack_.env().now();
}

const TcpConfig& TcpSocket::cfg() const { return stack_.config(); }

void TcpSocket::set_state(TcpState next) {
  if (next == state_) return;
  const sim::SimTime now = stack_.env().now();
  stack_.record_dwell(state_, now - state_entered_);
  state_ = next;
  state_entered_ = now;
}

TcpSocket::~TcpSocket() {
  rto_timer_.cancel();
  ack_timer_.cancel();
  time_wait_timer_.cancel();
  drop_callback_owner();
  tcb_liveness().release(live_slot_);
}

namespace {

/// set_callbacks()'s owner: the closures, in their own heap block so a
/// socket with an owner object carries none of their bytes.
struct CallbackOwner final : TcpSocket::Owner {
  explicit CallbackOwner(TcpSocket::Callbacks c) : cb(std::move(c)) {}

  void on_tcp_event(TcpEvent ev, TcpCloseReason reason) override {
    switch (ev) {
      case TcpEvent::kEstablished: cb.on_established(); return;
      case TcpEvent::kReadable: cb.on_readable(); return;
      case TcpEvent::kWritable: cb.on_writable(); return;
      case TcpEvent::kClosed: cb.on_closed(reason); return;
    }
  }

  TcpSocket::Callbacks cb;
};

}  // namespace

void TcpSocket::set_owner(Owner* owner) {
  drop_callback_owner();
  owner_ = owner;
  wants_ = owner == nullptr ? 0 : kAllEvents;
}

void TcpSocket::set_callbacks(Callbacks cb) {
  // An unset closure is an event the socket does not want.
  wants_ = static_cast<std::uint8_t>(
      (cb.on_established ? event_bit(TcpEvent::kEstablished) : 0) |
      (cb.on_readable ? event_bit(TcpEvent::kReadable) : 0) |
      (cb.on_writable ? event_bit(TcpEvent::kWritable) : 0) |
      (cb.on_closed ? event_bit(TcpEvent::kClosed) : 0));
  if (owner_is_callbacks_) {
    static_cast<CallbackOwner*>(owner_)->cb = std::move(cb);
  } else {
    owner_ = new CallbackOwner(std::move(cb));
    owner_is_callbacks_ = true;
  }
}

void TcpSocket::drop_callback_owner() {
  if (!owner_is_callbacks_) return;
  delete static_cast<CallbackOwner*>(owner_);
  owner_ = nullptr;
  wants_ = 0;
  owner_is_callbacks_ = false;
}

std::size_t TcpSocket::send_space() const { return send_ring_.writable(); }

std::size_t TcpSocket::effective_mss() const {
  return std::min<std::size_t>(cfg().mss, peer_mss_);
}

std::uint16_t TcpSocket::advertised_window() const {
  return static_cast<std::uint16_t>(
      std::min<std::size_t>(recv_ring_.writable(), 65535));
}

void TcpSocket::start_active_open() {
  iss_ = stack_.env().random_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  set_state(TcpState::kSynSent);
  ++stack_.stats_.conns_initiated;
  emit_segment(iss_, 0, /*fin=*/false, /*syn=*/true, /*force_ack=*/false);
  arm_rto();
}

void TcpSocket::start_passive_open(const TcpHeader& syn) {
  irs_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  peer_mss_ = syn.mss_option.value_or(536);
  snd_wnd_ = syn.window;
  iss_ = stack_.env().random_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  set_state(TcpState::kSynRcvd);
  emit_segment(iss_, 0, /*fin=*/false, /*syn=*/true, /*force_ack=*/true);
  arm_rto();
}

std::size_t TcpSocket::send(std::span<const std::uint8_t> data) {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kSynSent && state_ != TcpState::kSynRcvd) {
    return 0;
  }
  if (fin_queued_) return 0;  // sending after close() is an app bug
  const std::size_t n = send_ring_.write(data);
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_output();
  }
  return n;
}

std::size_t TcpSocket::recv(std::span<std::uint8_t> dst) {
  const std::size_t before = recv_ring_.writable();
  const std::size_t n = recv_ring_.read(dst);
  // Window may have re-opened: let the peer know if it was nearly closed.
  if (n > 0 && before < effective_mss() &&
      (state_ == TcpState::kEstablished || state_ == TcpState::kFinWait1 ||
       state_ == TcpState::kFinWait2)) {
    send_ack_now();  // window update
  }
  deliver_in_order();  // stalled out-of-order data may now fit
  return n;
}

void TcpSocket::close() {
  switch (state_) {
    case TcpState::kSynSent:
      enter_closed(TcpCloseReason::kNormal);
      return;
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
      fin_queued_ = true;
      set_state(TcpState::kFinWait1);
      try_output();
      return;
    case TcpState::kCloseWait:
      fin_queued_ = true;
      set_state(TcpState::kLastAck);
      try_output();
      return;
    default:
      return;  // already closing/closed
  }
}

void TcpSocket::abort() {
  if (state_ == TcpState::kClosed) return;
  if (state_ != TcpState::kSynSent && state_ != TcpState::kListen) {
    TcpHeader h;
    h.src_port = flow_.local_port;
    h.dst_port = flow_.remote_port;
    h.seq = snd_nxt_;
    h.rst = true;
    h.ack_flag = true;
    h.ack = rcv_nxt_;
    auto pkt = Packet::make(0);
    h.encode(*pkt, flow_.local_ip, flow_.remote_ip);
    ++stack_.stats_.segments_out;
    ++stack_.stats_.rsts_out;
    stack_.env().tx(std::move(pkt), flow_.local_ip, flow_.remote_ip);
  }
  enter_closed(TcpCloseReason::kNormal);
}

void TcpSocket::on_segment(const TcpHeader& h, PacketPtr payload) {
  if (state_ == TcpState::kClosed) return;

  const std::uint32_t prev_wnd = std::exchange(snd_wnd_, h.window);

  if (h.rst) {
    // Minimal validation: the RST must be inside the receive window (or be
    // the answer to our SYN).
    if (state_ == TcpState::kSynSent) {
      if (h.ack_flag && h.ack == snd_nxt_) fail(TcpCloseReason::kRefused);
      return;
    }
    if (seq_ge(h.seq, rcv_nxt_ - 1)) fail(TcpCloseReason::kReset);
    return;
  }

  if (state_ == TcpState::kSynSent) {
    if (h.syn && h.ack_flag && h.ack == snd_nxt_) {
      irs_ = h.seq;
      rcv_nxt_ = h.seq + 1;
      peer_mss_ = h.mss_option.value_or(536);
      snd_una_ = h.ack;
      set_state(TcpState::kEstablished);
      retries_ = 0;
      disarm_rto();
      send_ack_now();
      if (wants(TcpEvent::kEstablished)) emit(TcpEvent::kEstablished);
      try_output();
    } else if (h.syn && !h.ack_flag) {
      // Simultaneous open.
      irs_ = h.seq;
      rcv_nxt_ = h.seq + 1;
      peer_mss_ = h.mss_option.value_or(536);
      set_state(TcpState::kSynRcvd);
      emit_segment(iss_, 0, false, true, true);  // re-send SYN, now with ACK
    }
    return;
  }

  if (state_ == TcpState::kSynRcvd) {
    if (h.syn && !h.ack_flag) {
      // Duplicate SYN: retransmit our SYN|ACK.
      emit_segment(iss_, 0, false, true, true);
      return;
    }
    if (h.ack_flag && h.ack == snd_nxt_) {
      snd_una_ = h.ack;
      set_state(TcpState::kEstablished);
      retries_ = 0;
      disarm_rto();
      stack_.handshake_complete(*this);
      if (wants(TcpEvent::kEstablished)) emit(TcpEvent::kEstablished);
      // Fall through: the ACK may carry data.
    } else if (!h.ack_flag) {
      return;
    } else {
      return;  // ACK for something else; drop
    }
  }

  if (h.syn) {
    // SYN in a synchronized state: ignore (the peer's SYN retransmission
    // crossing our SYN|ACK loss is handled by our own RTO).
    return;
  }

  if (h.ack_flag) on_ack(h, prev_wnd);
  if (state_ == TcpState::kClosed) return;  // on_ack may have finished us

  if (payload && payload->size() > 0) accept_data(h, payload);

  if (h.fin) {
    fin_seen_ = true;
    fin_rcv_seq_ = h.seq + static_cast<std::uint32_t>(payload ? payload->size()
                                                             : 0);
  }
  if (fin_seen_ && !fin_received_ && rcv_nxt_ == fin_rcv_seq_) {
    fin_received_ = true;
    ++rcv_nxt_;
    send_ack_now();
    switch (state_) {
      case TcpState::kEstablished:
        set_state(TcpState::kCloseWait);
        break;
      case TcpState::kFinWait1:
        // Our FIN not yet acked: simultaneous close.
        set_state(TcpState::kClosing);
        break;
      case TcpState::kFinWait2:
        enter_time_wait();
        break;
      default:
        break;
    }
    notify_readable();  // EOF is readable
  } else if (fin_received_ && h.fin) {
    send_ack_now();  // retransmitted FIN
    if (state_ == TcpState::kTimeWait) enter_time_wait();  // restart 2MSL
  }
}

void TcpSocket::on_ack(const TcpHeader& h, std::uint32_t prev_wnd) {
  if (seq_gt(h.ack, snd_nxt_)) {  // acks data we never sent
    send_ack_now();
    return;
  }

  if (seq_le(h.ack, snd_una_)) {
    // A zero-window ACK of snd_una_ is a live receiver answering a window
    // probe: probes go on for as long as it answers (RFC 1122
    // §4.2.2.17), so they do not count toward data_retries.
    if (h.ack == snd_una_ && h.window == 0) retries_ = 0;
    // Not a new ack. Count duplicates for fast retransmit.
    const bool is_dup = h.ack == snd_una_ && inflight() > 0;
    if (is_dup) {
      ++dupacks_;
      if (dupacks_ == 3 && !in_recovery_) {
        // Fast retransmit + enter fast recovery (NewReno).
        ssthresh_ = std::max(inflight() / 2, 2 * effective_mss());
        recover_ = snd_nxt_;
        in_recovery_ = true;
        ++retransmit_count_;
        ++stack_.stats_.retransmits;
        stack_.count_retransmit();
        rtt_sent_at_ = kNoRttSample;  // Karn
        const std::size_t len = std::min<std::size_t>(
            effective_mss(), send_ring_.readable());
        if (len > 0) {
          emit_segment(snd_una_, len, false, false, true);
        } else if (fin_sent_) {
          emit_segment(fin_seq_, 0, true, false, true);
        }
        cwnd_ = ssthresh_ + 3 * effective_mss();
      } else if (in_recovery_) {
        cwnd_ += effective_mss();  // inflate
        try_output();
      }
    }
    // A window update (the receiver's app drained a closed window) must
    // restart a stalled sender: no new data will be acked to do it.
    if (snd_wnd_ > prev_wnd) try_output();
    return;
  }

  // New data acked.
  std::uint32_t acked = h.ack - snd_una_;
  std::uint32_t data_acked = acked;
  if (fin_sent_ && seq_ge(h.ack, fin_seq_ + 1)) --data_acked;  // the FIN
  send_ring_.discard(std::min<std::size_t>(data_acked, send_ring_.readable()));
  snd_una_ = h.ack;
  retries_ = 0;
  dupacks_ = 0;

  if (rtt_sent_at_ != kNoRttSample && seq_ge(h.ack, rtt_seq_)) {
    update_rtt(stack_.env().now() - rtt_sent_at_);
    rtt_sent_at_ = kNoRttSample;
  }

  if (in_recovery_) {
    if (seq_ge(h.ack, recover_)) {
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    } else {
      // Partial ack: retransmit the next hole immediately.
      ++retransmit_count_;
      ++stack_.stats_.retransmits;
      stack_.count_retransmit();
      const std::size_t len =
          std::min<std::size_t>(effective_mss(), send_ring_.readable());
      if (len > 0) emit_segment(snd_una_, len, false, false, true);
      cwnd_ = cwnd_ > data_acked ? cwnd_ - data_acked + effective_mss()
                                 : effective_mss();
    }
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += std::min<std::size_t>(data_acked, effective_mss());  // slow start
  } else {
    cwnd_ += std::max<std::size_t>(
        1, effective_mss() * effective_mss() / std::max<std::size_t>(cwnd_, 1));
  }

  if (inflight() > 0) {
    arm_rto();  // restart for remaining data
  } else {
    disarm_rto();
  }

  // FIN acknowledged?
  if (fin_sent_ && seq_ge(snd_una_, fin_seq_ + 1)) {
    switch (state_) {
      case TcpState::kFinWait1:
        set_state(TcpState::kFinWait2);
        break;
      case TcpState::kClosing:
        enter_time_wait();
        break;
      case TcpState::kLastAck:
        enter_closed(TcpCloseReason::kNormal);
        return;
      default:
        break;
    }
  }

  notify_writable();
  try_output();
}

void TcpSocket::accept_data(const TcpHeader& h, const PacketPtr& payload) {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinWait1 &&
      state_ != TcpState::kFinWait2) {
    return;
  }
  const auto data = payload->bytes();
  const std::uint32_t seg_seq = h.seq;
  const auto len = static_cast<std::uint32_t>(data.size());
  stack_.stats_.bytes_in += len;

  if (seq_ge(rcv_nxt_, seg_seq + len)) {
    send_ack_now();  // entirely old; re-ack so the peer can advance
    return;
  }

  if (seq_le(seg_seq, rcv_nxt_)) {
    const std::uint32_t skip = rcv_nxt_ - seg_seq;
    const std::size_t wrote = recv_ring_.write(data.subspan(skip));
    rcv_nxt_ += static_cast<std::uint32_t>(wrote);
    // Bytes beyond our advertised window are dropped; the peer retransmits.
    deliver_in_order();
    schedule_ack(wrote);
    if (wrote > 0) notify_readable();
  } else {
    // Out of order: stash (bounded) and signal the hole with a dup ack.
    ++stack_.stats_.ooo_segments;
    if (!ooo_) ooo_ = std::make_unique<OooQueue>();
    auto& segs = ooo_->segs;
    auto it = std::lower_bound(
        segs.begin(), segs.end(), seg_seq,
        [](const OooSeg& s, std::uint32_t q) { return s.seq < q; });
    const bool have = it != segs.end() && it->seq == seg_seq;
    if (ooo_->bytes + len <= cfg().recv_buf * 2 && !have) {
      segs.insert(it, OooSeg{seg_seq, {data.begin(), data.end()}});
      ooo_->bytes += len;
    }
    send_ack_now();
  }
}

void TcpSocket::deliver_in_order() {
  if (delivering_) return;
  delivering_ = true;
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{delivering_};
  bool progressed = true;
  while (progressed && ooo_) {
    progressed = false;
    auto& segs = ooo_->segs;
    for (auto it = segs.begin(); it != segs.end();) {
      const std::uint32_t seq = it->seq;
      auto& bytes = it->bytes;
      const auto len = static_cast<std::uint32_t>(bytes.size());
      if (seq_ge(rcv_nxt_, seq + len)) {
        ooo_->bytes -= bytes.size();
        it = segs.erase(it);  // fully consumed already
        progressed = true;
        continue;
      }
      if (seq_le(seq, rcv_nxt_)) {
        const std::uint32_t skip = rcv_nxt_ - seq;
        const std::size_t wrote = recv_ring_.write(
            std::span<const std::uint8_t>{bytes}.subspan(skip));
        if (wrote == 0) return;  // receive buffer full; stall
        rcv_nxt_ += static_cast<std::uint32_t>(wrote);
        if (skip + wrote == bytes.size()) {
          ooo_->bytes -= bytes.size();
          it = segs.erase(it);
        }
        progressed = true;
        notify_readable();
        break;  // restart scan from the beginning
      }
      ++it;
    }
  }
  if (ooo_ && ooo_->segs.empty()) ooo_.reset();  // the hole is filled
}

void TcpSocket::try_output() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck &&
      state_ != TcpState::kClosing) {
    return;
  }

  const std::size_t wnd = std::min<std::size_t>(cwnd_, snd_wnd_);
  while (!fin_sent_) {
    // Data bytes in flight; the ring holds [snd_una_, snd_una_ + readable).
    const std::uint32_t sent_unacked = snd_nxt_ - snd_una_;
    const std::size_t ring_bytes = send_ring_.readable();
    assert(ring_bytes >= sent_unacked);
    const std::size_t avail = ring_bytes - sent_unacked;  // not yet sent
    if (avail == 0) break;
    if (wnd <= sent_unacked) {
      // Window closed. If nothing is in flight the RTO acts as our persist
      // timer and will push out a probe.
      if (inflight() == 0) arm_rto();
      break;
    }
    const std::size_t usable = wnd - sent_unacked;
    const std::size_t limit = cfg().tso ? cfg().tso_limit : effective_mss();
    const std::size_t len = std::min({avail, usable, limit});
    if (len == 0) break;
    emit_segment(snd_nxt_, len, false, false, true);
    if (rtt_sent_at_ == kNoRttSample) {
      rtt_seq_ = snd_nxt_ + static_cast<std::uint32_t>(len);
      rtt_sent_at_ = stack_.env().now();
    }
    snd_nxt_ += static_cast<std::uint32_t>(len);
  }

  // Emit the FIN once every byte has been sent.
  if (fin_queued_ && !fin_sent_ &&
      send_ring_.readable() == snd_nxt_ - snd_una_) {
    fin_seq_ = snd_nxt_;
    fin_sent_ = true;
    emit_segment(fin_seq_, 0, true, false, true);
    ++snd_nxt_;
  }

  if (inflight() > 0 && rto_deadline_ == 0) arm_rto();
}

void TcpSocket::emit_segment(std::uint32_t seq, std::size_t len, bool fin,
                             bool syn, bool force_ack) {
  auto pkt = Packet::make(len);
  if (len > 0) {
    const std::size_t off = seq - snd_una_;
    const std::size_t got = send_ring_.peek_at(off, pkt->bytes());
    assert(got == len && "segment data must be in the send ring");
    (void)got;
  }
  TcpHeader h;
  h.src_port = flow_.local_port;
  h.dst_port = flow_.remote_port;
  h.seq = seq;
  h.syn = syn;
  h.fin = fin;
  h.psh = len > 0;
  h.ack_flag = force_ack;
  h.ack = rcv_nxt_;
  h.window = advertised_window();
  if (syn) h.mss_option = static_cast<std::uint16_t>(cfg().mss);
  h.encode(*pkt, flow_.local_ip, flow_.remote_ip);
  pkt->tso = len > effective_mss();
  ++stack_.stats_.segments_out;
  if (len > 0) {
    ++stack_.stats_.data_segments_out;
  } else if (!syn && !fin) {
    ++stack_.stats_.pure_acks_out;
  }
  stack_.stats_.bytes_out += len;
  ack_timer_.cancel();  // any segment carries the ack
  delack_bytes_ = 0;
  stack_.env().tx(std::move(pkt), flow_.local_ip, flow_.remote_ip);
}

void TcpSocket::send_ack_now() {
  emit_segment(snd_nxt_, 0, false, false, true);
}

void TcpSocket::schedule_ack(std::size_t new_bytes) {
  if (cfg().delayed_ack == 0) {
    send_ack_now();
    return;
  }
  // RFC 1122: at most one outstanding delayed ACK, and an immediate ACK at
  // least every 2*MSS of received data (counting bytes, not segments — a
  // TSO/LRO super-segment must be acked at once or the sender's window
  // stalls against the delack timer). Any outgoing data segment (the
  // request/response case) piggybacks the ACK and cancels the timer.
  delack_bytes_ += static_cast<std::uint32_t>(new_bytes);
  if (delack_bytes_ >=
      static_cast<std::size_t>(cfg().ack_every) * effective_mss()) {
    send_ack_now();
    return;
  }
  if (ack_timer_.pending()) return;
  ack_timer_ = stack_.env().start_timer(
      cfg().delayed_ack, timer_job<&TcpSocket::send_ack_now>());
}

void TcpSocket::arm_rto() {
  const sim::SimTime now = stack_.env().now();
  rto_deadline_ = now + rto_;
  // Keep the pending event if it fires no later than the new deadline: it
  // re-checks the deadline and sleeps the remainder (rto_tick). Only a
  // deadline earlier than the pending event (rto_ shrank) reschedules.
  if (rto_timer_.pending() && rto_fire_at_ <= rto_deadline_) return;
  rto_timer_.cancel();
  rto_fire_at_ = rto_deadline_;
  rto_timer_ = stack_.env().start_timer(rto_deadline_ - now,
                                        timer_job<&TcpSocket::rto_tick>());
}

void TcpSocket::disarm_rto() { rto_deadline_ = 0; }

void TcpSocket::rto_tick() {
  if (rto_deadline_ == 0) return;  // disarmed while the event was in flight
  const sim::SimTime now = stack_.env().now();
  if (now < rto_deadline_) {
    // Re-armed since this event was scheduled: sleep the remainder.
    rto_fire_at_ = rto_deadline_;
    rto_timer_ = stack_.env().start_timer(rto_deadline_ - now,
                                          timer_job<&TcpSocket::rto_tick>());
    return;
  }
  rto_deadline_ = 0;
  on_rto();
}

void TcpSocket::on_rto() {
  ++retries_;
  rtt_sent_at_ = kNoRttSample;  // Karn: never time retransmitted data

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd) {
    if (retries_ > cfg().syn_retries) {
      fail(TcpCloseReason::kTimeout);
      return;
    }
    emit_segment(iss_, 0, false, true, state_ == TcpState::kSynRcvd);
    rto_ = std::min(rto_ * 2, cfg().rto_max);
    arm_rto();
    return;
  }

  if (retries_ > cfg().data_retries) {
    fail(TcpCloseReason::kTimeout);
    return;
  }

  // Collapse to one MSS and retransmit the first unacked segment.
  ssthresh_ = std::max(inflight() / 2, 2 * effective_mss());
  cwnd_ = effective_mss();
  in_recovery_ = false;
  dupacks_ = 0;

  const std::size_t len =
      std::min<std::size_t>(effective_mss(), send_ring_.readable());
  if (len > 0) {
    ++retransmit_count_;
    ++stack_.stats_.retransmits;
    stack_.count_retransmit();
    emit_segment(snd_una_, len, false, false, true);
    // Bytes past snd_nxt_ (with nothing in flight: a zero-window probe)
    // now count as sent, or the ACK of a receiver whose window has reopened
    // would look like it acks data never sent, and be dropped.
    const std::uint32_t end = snd_una_ + static_cast<std::uint32_t>(len);
    if (seq_lt(snd_nxt_, end)) snd_nxt_ = end;
  } else if (fin_sent_ && seq_le(fin_seq_, snd_una_)) {
    ++retransmit_count_;
    ++stack_.stats_.retransmits;
    stack_.count_retransmit();
    emit_segment(fin_seq_, 0, true, false, true);
  }
  rto_ = std::min(rto_ * 2, cfg().rto_max);
  arm_rto();
}

void TcpSocket::update_rtt(sim::SimTime measured) {
  stack_.record_rtt(measured);
  if (srtt_ == 0) {
    srtt_ = measured;
    rttvar_ = measured / 2;
  } else {
    const auto diff = srtt_ > measured ? srtt_ - measured : measured - srtt_;
    rttvar_ = (3 * rttvar_ + diff) / 4;
    srtt_ = (7 * srtt_ + measured) / 8;
  }
  rto_ = std::clamp(srtt_ + std::max<sim::SimTime>(4 * rttvar_, sim::kMillisecond),
                    cfg().rto_min, cfg().rto_max);
}

void TcpSocket::enter_time_wait() {
  set_state(TcpState::kTimeWait);
  disarm_rto();
  // TIME_WAIT only needs the connection identity and timers — holding
  // buffer memory here would pin gigabytes under connection churn.
  send_ring_.release();
  if (recv_ring_.empty()) recv_ring_.release();
  ooo_.reset();
  time_wait_timer_.cancel();
  time_wait_timer_ = stack_.env().start_timer(
      cfg().time_wait, timer_job<&TcpSocket::time_wait_expired>());
}

void TcpSocket::enter_closed(TcpCloseReason reason) {
  if (state_ == TcpState::kClosed) return;
  if (state_ == TcpState::kSynRcvd) stack_.handshake_dropped();
  set_state(TcpState::kClosed);
  disarm_rto();
  ack_timer_.cancel();
  time_wait_timer_.cancel();
  auto self = shared_from_this();  // keep alive across callback + unmap
  // Deliver any deferred readable/writable first: the application must see
  // the final bytes (and the EOF edge) before it learns the socket is gone.
  flush_notifications();
  if (wants(TcpEvent::kClosed)) emit(TcpEvent::kClosed, reason);
  stack_.socket_closed(*this);
  send_ring_.release();
  recv_ring_.release();
  ooo_.reset();
}

void TcpSocket::fail(TcpCloseReason reason) {
  if (reason == TcpCloseReason::kTimeout || reason == TcpCloseReason::kRefused)
    ++stack_.stats_.conns_failed;
  if (reason == TcpCloseReason::kReset) ++stack_.stats_.rsts_in;
  enter_closed(reason);
}

void TcpSocket::notify_readable() {
  if (!wants(TcpEvent::kReadable)) return;
  if (stack_.defer_notifications()) {
    if ((pending_notify_ & kNotifyReadable) != 0) {
      stack_.count_wakeup_coalesced();  // merged into the pending edge
      return;
    }
    const bool first_bit = pending_notify_ == 0;
    pending_notify_ |= kNotifyReadable;
    stack_.mark_dirty(*this, first_bit);
    return;
  }
  emit(TcpEvent::kReadable);
}

void TcpSocket::notify_writable() {
  if (!wants(TcpEvent::kWritable) || send_space() == 0) return;
  if (stack_.defer_notifications()) {
    if ((pending_notify_ & kNotifyWritable) != 0) {
      stack_.count_wakeup_coalesced();  // merged into the pending edge
      return;
    }
    const bool first_bit = pending_notify_ == 0;
    pending_notify_ |= kNotifyWritable;
    stack_.mark_dirty(*this, first_bit);
    return;
  }
  emit(TcpEvent::kWritable);
}

void TcpSocket::flush_notifications() {
  const std::uint8_t bits = pending_notify_;
  pending_notify_ = 0;
  if (bits == 0) return;
  if ((bits & kNotifyReadable) != 0 && wants(TcpEvent::kReadable)) {
    emit(TcpEvent::kReadable);
  }
  // Re-check the owner and the space gate at flush time: the readable
  // event above may have detached the owner or triggered an application
  // send that filled the ring again.
  if ((bits & kNotifyWritable) != 0 && wants(TcpEvent::kWritable) &&
      send_space() > 0) {
    emit(TcpEvent::kWritable);
  }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpSocketPtr TcpListener::accept() {
  while (!accept_q_.empty()) {
    TcpSocketPtr s = std::move(accept_q_.front());
    accept_q_.pop_front();
    if (s->state() != TcpState::kClosed) return s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(TcpEnv& env, Ipv4Addr local_ip, TcpConfig cfg)
    : env_(env), local_ip_(local_ip), cfg_(cfg) {
  next_ephemeral_ = static_cast<std::uint16_t>(
      kEphemeralLo + env_.random_u32() % 16000);
  cookie_secret_ =
      static_cast<std::uint64_t>(env_.random_u32()) << 32 | env_.random_u32();
}

TcpListener* TcpStack::listen(std::uint16_t port, std::size_t backlog) {
  auto [it, inserted] =
      listeners_.emplace(port, std::make_unique<TcpListener>(port, backlog));
  return inserted ? it->second.get() : nullptr;
}

void TcpStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

std::uint16_t TcpStack::ephemeral_port() {
  for (int tries = 0; tries < 16384; ++tries) {
    const std::uint16_t p = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 65535 ? kEphemeralLo : next_ephemeral_ + 1;
    if (port_use_.empty() || port_use_[p - kEphemeralLo] == 0) return p;
  }
  return 0;
}

TcpSocketPtr TcpStack::connect(SockAddr remote, std::uint16_t local_port) {
  if (local_port == 0) local_port = ephemeral_port();
  if (local_port == 0) return nullptr;
  FlowKey key{local_ip_, local_port, remote.ip, remote.port};
  if (conns_.contains(key)) return nullptr;
  auto sock = std::make_shared<TcpSocket>(*this, key);
  insert_conn(key, sock);
  sock->start_active_open();
  return sock;
}

void TcpStack::rx(Ipv4Addr src, Ipv4Addr dst, PacketPtr pkt) {
  ++stats_.segments_in;
  auto h = TcpHeader::decode(*pkt, src, dst);
  if (!h) {
    // Wire corruption caught by the transport checksum (or a mangled
    // header): drop silently, exactly like a real stack, but leave an
    // audit trail on the obs hub for the chaos campaigns.
    ++stats_.checksum_drops;
    if (obs::Hub* hub = env_.obs_hub()) {
      if (checksum_drop_counter_ == nullptr) {
        checksum_drop_counter_ = &hub->metrics.counter("tcp.checksum_drops");
      }
      checksum_drop_counter_->inc();
    }
    return;
  }
  if (h->rst) ++stats_.rsts_in;
  const FlowKey key{dst, h->dst_port, src, h->src_port};
  if (auto it = conns_.find(key); it != conns_.end()) {
    TcpSocketPtr s = it->second;  // keep alive: handler may close/erase
    s->on_segment(*h, std::move(pkt));
    return;
  }
  if (h->syn && !h->ack_flag) {
    auto lit = listeners_.find(h->dst_port);
    if (lit != listeners_.end()) {
      TcpListener& l = *lit->second;
      if (cfg_.syn_cookies) {
        // Stateless: answer with a cookie SYN|ACK and forget the SYN ever
        // happened. No TCB, no pending-handshake slot, no backlog entry —
        // a spoofed SYN costs this host nothing that outlives the reply.
        send_cookie_synack(*h, key);
        return;
      }
      if (l.accept_q_.size() + pending_handshakes_ < l.backlog_) {
        auto sock = std::make_shared<TcpSocket>(*this, key);
        insert_conn(key, sock);
        ++pending_handshakes_;
        sock->start_passive_open(*h);
      } else {
        // Silently drop the SYN (backlog overflow) — the client retries.
        ++stats_.syns_dropped_backlog;
      }
      return;
    }
  }
  if (try_cookie_accept(*h, key, pkt)) return;
  // A frame for a flow that migrated away can still be in flight through
  // this replica's RX channel when the extract runs (the NIC capture window
  // closes the NIC side, not the channel side). It is stale, not an error:
  // drop it silently — the peer's copy was captured and replayed at the
  // target. An RST here would kill the migrated connection.
  if (migrated_out_.contains(key)) return;
  if (!h->rst) {
    send_rst_for(*h, src, dst, pkt ? pkt->size() : 0);
  }
}

void TcpStack::rx_batch(std::vector<SegmentArrival>&& batch,
                        const std::function<bool()>& alive) {
  if (batch.empty()) return;
  // Per-burst (not per-segment) observability: one timestamped histogram
  // record covers the whole batch. Virtual time cannot advance inside this
  // job, so every segment in the burst shares the timestamp anyway.
  if (obs::Hub* hub = env_.obs_hub()) {
    if (rx_batch_hist_ == nullptr) {
      rx_batch_hist_ = &hub->metrics.histogram("tcp.rx_batch_size");
    }
    rx_batch_hist_->record(batch.size());
  }
  // Coalesced wakeups: while the burst drains, sockets collect their
  // readable/writable edges as pending bits instead of firing callbacks
  // per segment. One flush per dirty socket follows the loop — the
  // application sees at most one readable + one writable per socket per
  // burst, with every byte of the burst already in the receive ring.
  const bool coalesce = cfg_.coalesce_wakeups && !in_batch_;
  if (coalesce) in_batch_ = true;
  for (auto& a : batch) {
    if (alive && !alive()) break;
    rx(a.src, a.dst, std::move(a.seg));
  }
  if (coalesce) {
    in_batch_ = false;
    // flush_notifications() can close sockets and re-dirty others (an
    // application callback may send, completing another socket's ack);
    // those fire immediately now that in_batch_ is off. Dirty order is
    // first-dirty order, so delivery is deterministic.
    for (std::size_t i = 0; i < dirty_socks_.size(); ++i) {
      TcpSocketPtr s = std::move(dirty_socks_[i]);
      s->flush_notifications();
    }
    dirty_socks_.clear();
  }
}

std::uint32_t TcpStack::cookie_count() const {
  const sim::SimTime period =
      std::max<sim::SimTime>(cfg_.syn_cookie_rotate, 1);
  return static_cast<std::uint32_t>(env_.now() / period);
}

void TcpStack::send_cookie_synack(const TcpHeader& syn, const FlowKey& key) {
  const unsigned mss_idx = syn_cookie_mss_index(syn.mss_option.value_or(536));
  TcpHeader h;
  h.src_port = key.local_port;
  h.dst_port = key.remote_port;
  h.seq = syn_cookie_make(cookie_secret_, key, syn.seq, cookie_count(),
                          mss_idx);
  h.ack = syn.seq + 1;
  h.syn = true;
  h.ack_flag = true;
  h.window = static_cast<std::uint16_t>(
      std::min<std::size_t>(cfg_.recv_buf, 65535));
  h.mss_option = static_cast<std::uint16_t>(cfg_.mss);
  auto pkt = Packet::make(0);
  h.encode(*pkt, key.local_ip, key.remote_ip);
  ++stats_.segments_out;
  ++stats_.syn_cookies_sent;
  env_.tx(std::move(pkt), key.local_ip, key.remote_ip);
}

bool TcpStack::try_cookie_accept(const TcpHeader& h, const FlowKey& key,
                                 PacketPtr& pkt) {
  if (!cfg_.syn_cookies || h.syn || h.rst || !h.ack_flag) return false;
  auto lit = listeners_.find(key.local_port);
  if (lit == listeners_.end()) return false;
  // The client echoes cookie+1 in the ACK; its first segment after the
  // handshake (pure ACK or ACK+data) carries seq = client_isn + 1.
  const std::uint32_t cookie = h.ack - 1;
  const std::uint32_t client_isn = h.seq - 1;
  const std::optional<std::uint16_t> mss = syn_cookie_check(
      cookie_secret_, key, client_isn, cookie, cookie_count());
  if (!mss) {
    // Forged or expired cookie: allocate nothing, let the caller RST.
    ++stats_.syn_cookies_rejected;
    return false;
  }
  auto sock = std::make_shared<TcpSocket>(*this, key);
  insert_conn(key, sock);
  sock->iss_ = cookie;
  sock->snd_una_ = cookie + 1;
  sock->snd_nxt_ = cookie + 1;
  sock->irs_ = client_isn;
  sock->rcv_nxt_ = client_isn + 1;
  sock->peer_mss_ = *mss;
  sock->snd_wnd_ = h.window;
  sock->set_state(TcpState::kEstablished);
  ++stats_.syn_cookies_accepted;
  handshake_complete(*sock);
  // The validating ACK may carry the connection's first data bytes.
  sock->on_segment(h, std::move(pkt));
  return true;
}

void TcpStack::handshake_complete(TcpSocket& s) {
  if (pending_handshakes_ > 0) --pending_handshakes_;
  ++stats_.conns_accepted;
  if (obs::Hub* hub = env_.obs_hub()) {
    if (handshake_counter_ == nullptr) {
      handshake_counter_ = &hub->metrics.counter("tcp.handshakes");
    }
    handshake_counter_->inc();
    if (obs::FlowTracer* t = hub->tracing()) {
      t->emit({env_.now(), 0, "tcp", "handshake_done", 0, s.flow().local_port,
               "\"port\":" + std::to_string(s.flow().local_port)});
    }
  }
  auto lit = listeners_.find(s.flow().local_port);
  if (lit == listeners_.end()) {
    s.abort();  // listener vanished between SYN and ACK
    return;
  }
  lit->second->accept_q_.push_back(s.shared_from_this());
  // Deferred NIC filter install: the peer completed the handshake, so it
  // has earned a steering filter (spoofed SYNs never reach this point).
  env_.on_flow_established(s.flow());
  if (lit->second->on_ready_) lit->second->on_ready_();
}

void TcpStack::record_rtt(sim::SimTime rtt) {
  obs::Hub* hub = env_.obs_hub();
  if (hub == nullptr) return;
  if (rtt_hist_ == nullptr) rtt_hist_ = &hub->metrics.histogram("tcp.rtt_ns");
  rtt_hist_->record(rtt);
}

void TcpStack::count_retransmit() {
  obs::Hub* hub = env_.obs_hub();
  if (hub == nullptr) return;
  if (retx_counter_ == nullptr) {
    retx_counter_ = &hub->metrics.counter("tcp.retransmits");
  }
  retx_counter_->inc();
}

void TcpStack::mark_dirty(TcpSocket& s, bool first_bit) {
  // Strong ref: a socket can close (and drop out of conns_) between being
  // dirtied and the end-of-batch flush; the flush must still deliver its
  // final edges. Only the first bit enqueues — the second bit on the same
  // socket rides along with the existing entry.
  if (first_bit) dirty_socks_.push_back(s.shared_from_this());
}

void TcpStack::count_wakeup_coalesced() {
  obs::Hub* hub = env_.obs_hub();
  if (hub == nullptr) return;
  if (wakeups_coalesced_counter_ == nullptr) {
    wakeups_coalesced_counter_ =
        &hub->metrics.counter("socklib.wakeups_coalesced");
  }
  wakeups_coalesced_counter_->inc();
}

void TcpStack::record_dwell(TcpState s, sim::SimTime dwell) {
  obs::Hub* hub = env_.obs_hub();
  if (hub == nullptr) return;
  auto& slot = dwell_hist_[static_cast<std::size_t>(s)];
  if (slot == nullptr) {
    slot = &hub->metrics.histogram(std::string("tcp.state_dwell.") +
                                   to_string(s) + "_ns");
  }
  slot->record(dwell);
}

void TcpStack::send_rst_for(const TcpHeader& h, Ipv4Addr src, Ipv4Addr dst,
                            std::size_t payload_len) {
  TcpHeader rst;
  rst.src_port = h.dst_port;
  rst.dst_port = h.src_port;
  rst.rst = true;
  if (h.ack_flag) {
    rst.seq = h.ack;
  } else {
    rst.seq = 0;
    rst.ack_flag = true;
    rst.ack = h.seq + static_cast<std::uint32_t>(payload_len) +
              (h.syn ? 1 : 0) + (h.fin ? 1 : 0);
  }
  auto pkt = Packet::make(0);
  rst.encode(*pkt, dst, src);
  ++stats_.segments_out;
  ++stats_.rsts_out;
  env_.tx(std::move(pkt), dst, src);
}

void TcpStack::socket_closed(TcpSocket& s) { erase_conn(s.flow()); }

std::size_t TcpStack::active_connection_count() const {
  std::size_t n = 0;
  for (const auto& [key, sock] : conns_) {
    if (sock->state() != TcpState::kTimeWait &&
        sock->state() != TcpState::kClosed) {
      ++n;
    }
  }
  return n;
}

void TcpStack::for_each_connection(
    const std::function<void(TcpSocket&)>& fn) {
  // Copy handles first, in key order: fn may close sockets and mutate the
  // table, and callers turn the visit order into simulated work.
  std::vector<TcpSocketPtr> snapshot;
  snapshot.reserve(conns_.size());
  for (const auto* e : conns_.sorted()) snapshot.push_back(e->second);
  for (auto& s : snapshot) fn(*s);
}

TcpConnSnapshot TcpStack::capture(const TcpSocket& sock) {
  TcpConnSnapshot s;
  s.flow = sock.flow_;
  s.iss = sock.iss_;
  s.irs = sock.irs_;
  s.snd_una = sock.snd_una_;
  s.snd_nxt = sock.snd_nxt_;
  s.rcv_nxt = sock.rcv_nxt_;
  s.snd_wnd = sock.snd_wnd_;
  s.peer_mss = sock.peer_mss_;
  s.send_buf.resize(sock.send_ring_.readable());
  sock.send_ring_.peek(s.send_buf);
  s.recv_buf.resize(sock.recv_ring_.readable());
  sock.recv_ring_.peek(s.recv_buf);
  return s;
}

TcpSocketPtr TcpStack::rebuild(const TcpConnSnapshot& s,
                               std::uint32_t resume_at) {
  auto sock = std::make_shared<TcpSocket>(*this, s.flow);
  sock->state_ = TcpState::kEstablished;
  sock->state_entered_ = env_.now();
  sock->iss_ = s.iss;
  sock->irs_ = s.irs;
  sock->snd_una_ = s.snd_una;
  sock->snd_nxt_ = resume_at;
  sock->rcv_nxt_ = s.rcv_nxt;
  sock->snd_wnd_ = s.snd_wnd;
  sock->peer_mss_ = s.peer_mss;
  sock->send_ring_.write(s.send_buf);
  sock->recv_ring_.write(s.recv_buf);
  insert_conn(s.flow, sock);
  return sock;
}

void TcpStack::silence(TcpSocket& sock) {
  sock.state_ = TcpState::kClosed;
  sock.rto_timer_.cancel();
  sock.rto_deadline_ = 0;
  sock.ack_timer_.cancel();
  sock.time_wait_timer_.cancel();
}

std::vector<TcpSocketPtr> TcpStack::established() const {
  std::vector<TcpSocketPtr> out;
  for (const auto* e : conns_.sorted_if([](const auto& kv) {
         return kv.second->state_ == TcpState::kEstablished;
       })) {
    out.push_back(e->second);
  }
  return out;
}

TcpCheckpoint TcpStack::snapshot() const {
  TcpCheckpoint cp;
  cp.taken_at = env_.now();
  for (const auto& sock : established()) cp.conns.push_back(capture(*sock));
  return cp;
}

TcpCheckpoint TcpStack::extract_for_migration() {
  TcpCheckpoint cp;
  cp.taken_at = env_.now();
  // established() copies the handles out before erase_conn() shifts the
  // table under the loop.
  for (const auto& sock : established()) {
    TcpConnSnapshot s = capture(*sock);
    if (sock->ooo_) {
      for (const auto& seg : sock->ooo_->segs) {
        s.ooo.push_back({seg.seq, seg.bytes});
      }
    }
    s.fin_seen = sock->fin_seen_;
    s.fin_rcv_seq = sock->fin_rcv_seq_;
    // A connection the app never accepted lives in the listener queue; it
    // must be re-enqueued at the target, not re-homed to a socket object.
    if (auto lit = listeners_.find(sock->flow_.local_port);
        lit != listeners_.end()) {
      auto& q = lit->second->accept_q_;
      if (auto qit = std::find(q.begin(), q.end(), sock); qit != q.end()) {
        s.unaccepted = true;
        q.erase(qit);
      }
    }
    cp.conns.push_back(std::move(s));
    migrated_out_.try_emplace(sock->flow_, true);
    // Remove silently: the peer must observe nothing but a short pause —
    // the connection continues from the checkpoint at the target. Drop the
    // receive side so an app read racing the re-home cannot consume bytes
    // the checkpoint already carries (they would be delivered twice).
    sock->recv_ring_.clear();
    sock->ooo_.reset();
    silence(*sock);
    erase_conn(sock->flow_);
  }
  return cp;
}

std::vector<TcpSocketPtr> TcpStack::adopt(const TcpCheckpoint& cp) {
  std::vector<TcpSocketPtr> adopted;
  for (const auto& s : cp.conns) {
    migrated_out_.erase(s.flow);  // the flow may be migrating back here
    if (conns_.contains(s.flow)) continue;
    // Unlike checkpoint restore, migration is byte-exact: nothing was lost
    // between extract and adopt (the NIC capture buffer replays the gap),
    // so output resumes from snd_nxt. Congestion state restarts from the
    // initial window — a deliberate slow-start restart after the move.
    TcpSocketPtr sock = rebuild(s, s.snd_nxt);
    if (!s.ooo.empty()) {
      sock->ooo_ = std::make_unique<TcpSocket::OooQueue>();
      for (const auto& seg : s.ooo) {
        sock->ooo_->segs.push_back({seg.seq, seg.bytes});
        sock->ooo_->bytes += seg.bytes.size();
      }
    }
    sock->fin_seen_ = s.fin_seen;
    sock->fin_rcv_seq_ = s.fin_rcv_seq;
    if (sock->inflight() > 0) sock->arm_rto();
    // Un-transmitted send-ring bytes must not wait for an inbound event
    // that may never come (the peer could be idle, waiting for us).
    sock->try_output();
    if (s.unaccepted) {
      auto lit = listeners_.find(s.flow.local_port);
      if (lit == listeners_.end()) {
        sock->abort();  // nobody will ever accept it here
        continue;
      }
      lit->second->accept_q_.push_back(sock);
      if (lit->second->on_ready_) lit->second->on_ready_();
    } else {
      adopted.push_back(sock);
    }
  }
  return adopted;
}

std::vector<TcpSocketPtr> TcpStack::restore(const TcpCheckpoint& cp) {
  std::vector<TcpSocketPtr> restored;
  for (const auto& s : cp.conns) {
    if (conns_.contains(s.flow)) continue;
    // Everything unacked at checkpoint time counts as lost in flight:
    // resume output from snd_una so try_output() retransmits it all. Any
    // reassembly state the image carries is ignored (the peer retransmits).
    TcpSocketPtr sock = rebuild(s, s.snd_una);
    restored.push_back(sock);
    sock->try_output();
    // Tell the peer where we stand; a peer that advanced past our
    // checkpoint will answer with data/acks that resynchronize us — or
    // the connection stalls out and dies by timeout.
    sock->send_ack_now();
  }
  return restored;
}

void TcpStack::destroy_all_state() {
  auto conns = std::move(conns_);
  conns_.clear();
  dirty_socks_.clear();  // pending edges die with the crash
  in_batch_ = false;
  port_use_ = {};  // released: the restarted replica starts empty
  listeners_.clear();
  migrated_out_.clear();
  pending_handshakes_ = 0;
  // Sockets die silently: no FIN, no RST — exactly what a crash looks like
  // to the peers. Destructors cancel all timers.
  for (auto& [key, sock] : conns) silence(*sock);
}

}  // namespace neat::net
