#include "drv/driver.hpp"

#include "net/ethernet.hpp"
#include "net/wire.hpp"

namespace neat::drv {

NicDriver::NicDriver(sim::Simulator& sim, nic::Nic& nic, StackCosts costs,
                     std::string name)
    : sim::Process(sim, std::move(name)),
      nic_(nic),
      costs_(costs),
      endpoints_(static_cast<std::size_t>(nic.params().num_queues)),
      draining_(static_cast<std::size_t>(nic.params().num_queues), 0) {
  nic_.set_rx_notify([this](int queue) { rx_kick(queue); });
}

void NicDriver::announce_endpoint(int queue,
                                  ipc::Channel<net::PacketPtr>* ch) {
  auto& ep = endpoints_[static_cast<std::size_t>(queue)];
  ep.channel = ch;
  ep.active = true;
  // Catch up on anything already sitting in the ring.
  rx_kick(queue);
}

void NicDriver::deactivate_endpoint(int queue) {
  endpoints_[static_cast<std::size_t>(queue)].active = false;
}

bool NicDriver::endpoint_active(int queue) const {
  return endpoints_[static_cast<std::size_t>(queue)].active;
}

NicDriver::TxPort NicDriver::make_tx_port() {
  if (hardware_offload_) {
    return [this](net::PacketPtr pkt) {
      ++dstats_.tx_sent;
      nic_.transmit(std::move(pkt));  // the NIC is the driver
    };
  }
  // Packets sent into the channel are charged driver TX cost and
  // transmitted in driver context.
  auto ch = std::make_shared<ipc::Channel<net::PacketPtr>>(
      *this, 1024, ipc::kDefaultChannelLatency,
      [this](const net::PacketPtr&) { return costs_.drv_tx; },
      [this](net::PacketPtr&& pkt) {
        ++dstats_.tx_sent;
        nic_.transmit(std::move(pkt));
      });
  return [ch](net::PacketPtr pkt) { ch->send(std::move(pkt)); };
}

void NicDriver::control(std::function<void()> op) {
  post(costs_.drv_control, [this, op = std::move(op)] {
    ++dstats_.control_ops;
    op();
  });
}

void NicDriver::rx_kick(int queue) {
  if (hardware_offload_) {
    // The NIC dispatches to the replica channels itself, at zero driver
    // cost (it already classified the packet; "the NIC as an additional
    // processing core that runs certain parts of the stack").
    while (net::PacketPtr pkt = nic_.poll_rx(queue)) {
      auto& ep = endpoints_[static_cast<std::size_t>(queue)];
      if (ep.active && ep.channel != nullptr) {
        if (ep.channel->send(std::move(pkt))) ++dstats_.rx_forwarded;
      } else {
        ++dstats_.rx_dropped_inactive;
      }
    }
    return;
  }
  if (crashed()) return;  // interrupts fall on deaf ears
  auto& draining = draining_[static_cast<std::size_t>(queue)];
  if (draining) return;
  const std::size_t depth = nic_.rx_depth(queue);
  if (depth == 0) return;
  // One job per burst: the frames visible at doorbell time (capped at
  // kRxBurst) are drained together, charged the summed per-frame cost so
  // virtual-time accounting is identical to one-job-per-frame. Frames
  // arriving during the drain ring the (re-armed) doorbell again.
  const std::size_t budget = depth < kRxBurst ? depth : kRxBurst;
  draining = true;
  post(costs_.drv_rx * static_cast<sim::Cycles>(budget),
       [this, queue, budget] { drain_burst(queue, budget); });
}

void NicDriver::drain_burst(int queue, std::size_t budget) {
  draining_[static_cast<std::size_t>(queue)] = false;
  std::size_t drained = 0;
  for (; drained < budget; ++drained) {
    net::PacketPtr pkt = nic_.poll_rx(queue);
    if (!pkt) break;

    // ARP is not flow-steered: fan it out to every active replica so each
    // isolated ARP resolver can learn/answer independently.
    const auto b = pkt->bytes();
    const bool is_arp =
        b.size() >= net::EthernetHeader::kSize &&
        net::get_u16(b, 12) ==
            static_cast<std::uint16_t>(net::EtherType::kArp);

    if (is_arp) {
      for (auto& ep : endpoints_) {
        if (ep.active && ep.channel != nullptr) {
          if (ep.channel->send(pkt->clone())) ++dstats_.rx_forwarded;
        }
      }
    } else {
      auto& ep = endpoints_[static_cast<std::size_t>(queue)];
      if (!ep.active || ep.channel == nullptr) {
        ++dstats_.rx_dropped_inactive;
      } else if (ep.channel->send(std::move(pkt))) {
        ++dstats_.rx_forwarded;
      } else {
        ++dstats_.rx_dropped_channel_full;
      }
    }
  }
  if (drained > 0) {
    if (rx_batch_size_ == nullptr) {
      rx_batch_size_ = &sim().metrics().histogram("nic.rx_batch_size");
    }
    rx_batch_size_->record(drained);
  }

  // Keep the chain going while the ring has more.
  if (nic_.rx_depth(queue) > 0) rx_kick(queue);
}

void NicDriver::on_restart() {
  ++dstats_.restarts;
  // Fresh driver instance: forget in-progress drains, then rescan all
  // rings — the NIC kept receiving while we were down (bounded by ring
  // depth; the excess was dropped by the hardware, as on a real machine).
  for (auto& d : draining_) d = 0;
  for (int q = 0; q < nic_.params().num_queues; ++q) rx_kick(q);
}

}  // namespace neat::drv
