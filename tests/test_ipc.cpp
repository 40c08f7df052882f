// Unit and property tests for the IPC substrate: byte rings, channels,
// doorbells.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ipc/byte_ring.hpp"
#include "ipc/channel.hpp"
#include "ipc/doorbell.hpp"
#include "sim/machine.hpp"
#include "sim/process.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace neat::ipc {
namespace {

class TestProc : public sim::Process {
 public:
  using sim::Process::Process;
};

struct SimFixture : public ::testing::Test {
  SimFixture() : machine(sim.add_machine(fast_params())), proc(sim, "c") {
    proc.pin(machine.thread(0));
  }
  static sim::MachineParams fast_params() {
    sim::MachineParams p;
    p.cores = 2;
    p.freq = sim::Frequency{1.0};
    return p;
  }
  sim::Simulator sim;
  sim::Machine& machine;
  TestProc proc;
};

// ---------------------------------------------------------------------------
// ByteRing
// ---------------------------------------------------------------------------

TEST(ByteRing, BasicWriteRead) {
  ByteRing r(16);
  const std::uint8_t in[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(r.write(in), 5u);
  EXPECT_EQ(r.readable(), 5u);
  EXPECT_EQ(r.writable(), 11u);
  std::uint8_t out[5] = {};
  EXPECT_EQ(r.read(out), 5u);
  EXPECT_TRUE(std::equal(std::begin(in), std::end(in), std::begin(out)));
  EXPECT_TRUE(r.empty());
}

TEST(ByteRing, WriteBoundedByCapacity) {
  ByteRing r(4);
  std::uint8_t in[10] = {};
  EXPECT_EQ(r.write(in), 4u);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.write(in), 0u);
}

TEST(ByteRing, PeekDoesNotConsume) {
  ByteRing r(8);
  const std::uint8_t in[] = {9, 8, 7};
  r.write(in);
  std::uint8_t out[3] = {};
  EXPECT_EQ(r.peek(out), 3u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(r.readable(), 3u);
}

TEST(ByteRing, PeekAtOffset) {
  ByteRing r(8);
  const std::uint8_t in[] = {10, 11, 12, 13};
  r.write(in);
  std::uint8_t out[2] = {};
  EXPECT_EQ(r.peek_at(2, out), 2u);
  EXPECT_EQ(out[0], 12);
  EXPECT_EQ(out[1], 13);
  EXPECT_EQ(r.peek_at(4, out), 0u);  // past end
}

TEST(ByteRing, DiscardSkipsBytes) {
  ByteRing r(8);
  const std::uint8_t in[] = {1, 2, 3, 4};
  r.write(in);
  EXPECT_EQ(r.discard(2), 2u);
  std::uint8_t out[2] = {};
  r.read(out);
  EXPECT_EQ(out[0], 3);
}

TEST(ByteRing, LazyAllocationAndRelease) {
  ByteRing r(1 << 20);
  EXPECT_EQ(r.readable(), 0u);
  EXPECT_EQ(r.writable(), 1u << 20);  // capacity visible pre-allocation
  std::uint8_t b = 1;
  r.write({&b, 1});
  r.release();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.writable(), 1u << 20);
  // Usable again after release.
  r.write({&b, 1});
  EXPECT_EQ(r.readable(), 1u);
}

TEST(ByteRing, OperationsOnUnallocatedRingAreSafe) {
  ByteRing r(64);
  std::uint8_t out[4];
  EXPECT_EQ(r.read(out), 0u);
  EXPECT_EQ(r.peek(out), 0u);
  EXPECT_EQ(r.peek_at(0, out), 0u);
  EXPECT_EQ(r.discard(10), 0u);
}

/// Property: arbitrary interleavings of writes and reads deliver exactly
/// the written byte stream, in order.
class ByteRingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ByteRingProperty, StreamIntegrityUnderRandomChunking) {
  sim::Rng rng(GetParam());
  ByteRing ring(1 + rng.below(257));
  std::vector<std::uint8_t> sent, received;
  // Byte totals, counted from what write() and read() return (the ring
  // keeps none: it is 32 B).
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint8_t next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng.chance(0.5)) {
      std::vector<std::uint8_t> chunk(1 + rng.below(64));
      for (auto& c : chunk) c = next++;
      const std::size_t n = ring.write(chunk);
      bytes_in += n;
      sent.insert(sent.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
      next = static_cast<std::uint8_t>(chunk[0] + n);  // rewind unwritten
    } else {
      std::vector<std::uint8_t> buf(1 + rng.below(64));
      const std::size_t n = ring.read(buf);
      bytes_out += n;
      received.insert(received.end(), buf.begin(),
                      buf.begin() + static_cast<long>(n));
    }
    ASSERT_EQ(ring.readable(), bytes_in - bytes_out);
  }
  std::vector<std::uint8_t> drain(ring.readable());
  bytes_out += ring.read(drain);
  received.insert(received.end(), drain.begin(), drain.end());
  ASSERT_EQ(sent, received);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(bytes_in, sent.size());
  EXPECT_EQ(bytes_out, bytes_in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteRingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Bytes 0, 1, 2, ... (mod 256) starting at `first`.
std::vector<std::uint8_t> counting(std::size_t n, std::uint8_t first = 0) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), first);
  return v;
}

TEST(ByteRing, AllocationStartsSmallAndGrowsWhileNonEmpty) {
  ByteRing r(96 * 1024);
  EXPECT_EQ(r.allocated(), 0u);
  const auto a = counting(1500);
  ASSERT_EQ(r.write(a), 1500u);
  EXPECT_EQ(r.allocated(), 2048u);  // the power of two at or above 1500
  std::uint8_t head[500];
  ASSERT_EQ(r.read(head), 500u);
  // 1000 live + 2000 new > 2 KiB: doubles once, keeping the live bytes.
  const auto b = counting(2000, static_cast<std::uint8_t>(1500));
  ASSERT_EQ(r.write(b), 2000u);
  EXPECT_EQ(r.allocated(), 4096u);
  std::vector<std::uint8_t> out(3000);
  ASSERT_EQ(r.read(out), 3000u);
  EXPECT_EQ(out, counting(3000, static_cast<std::uint8_t>(500)));
}

TEST(ByteRing, FirstWriteSizesTheAllocationThenItDoublesToTheFixedRing) {
  ByteRing r(4096);
  // A 16-byte first write allocates the floor, not a fixed initial size.
  ASSERT_EQ(r.write(counting(16)), 16u);
  EXPECT_EQ(r.allocated(), ByteRing::kMinBytes);
  // Growth doubles from there: 16 live + 100 new needs 128.
  ASSERT_EQ(r.write(counting(100, 16)), 100u);
  EXPECT_EQ(r.allocated(), 128u);
  // 116 live + 1900 new: doubles to 2048 in one step (no 256/512/1024).
  ASSERT_EQ(r.write(counting(1900, 116)), 1900u);
  EXPECT_EQ(r.allocated(), 2048u);
  // Past 2048 the next doubling reaches the capacity: the fixed ring.
  ASSERT_EQ(r.write(counting(1000, static_cast<std::uint8_t>(2016))), 1000u);
  EXPECT_EQ(r.allocated(), 4096u);
  std::vector<std::uint8_t> out(3016);
  ASSERT_EQ(r.read(out), 3016u);
  EXPECT_EQ(out, counting(3016));
  // release() forgets the size: the next first write sizes it again, to
  // the power of two at or above it (300 -> 512), clamped to the capacity.
  r.release();
  ASSERT_EQ(r.write(counting(300)), 300u);
  EXPECT_EQ(r.allocated(), 512u);
  ByteRing small(40);
  ASSERT_EQ(small.write(counting(8)), 8u);
  EXPECT_EQ(small.allocated(), 40u);  // the floor clamped to the capacity
  ByteRing odd(3000);
  ASSERT_EQ(odd.write(counting(2500)), 2500u);
  EXPECT_EQ(odd.allocated(), 3000u);  // bit_ceil(2500) clamped
}

TEST(ByteRing, GrowthStopsAtCapacity) {
  ByteRing r(5000);
  ASSERT_EQ(r.write(counting(6000)), 5000u);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.allocated(), 5000u);
  std::vector<std::uint8_t> out(5000);
  ASSERT_EQ(r.read(out), 5000u);
  EXPECT_EQ(out, counting(5000));
}

TEST(ByteRing, ShortTailCompactsIntoTheConsumedHead) {
  ByteRing r(96 * 1024);
  ASSERT_EQ(r.write(counting(2000)), 2000u);
  std::uint8_t head[1500];
  ASSERT_EQ(r.read(head), 1500u);  // 500 live bytes at offset 1500
  // 500 + 1000 fits the 2 KiB allocation, but not after offset 1500: the
  // live bytes move to offset 0 instead of the buffer growing.
  ASSERT_EQ(r.write(counting(1000, static_cast<std::uint8_t>(2000))), 1000u);
  EXPECT_EQ(r.allocated(), 2048u);
  std::vector<std::uint8_t> out(1500);
  ASSERT_EQ(r.peek_at(0, out), 1500u);
  EXPECT_EQ(out, counting(1500, static_cast<std::uint8_t>(1500)));
  const auto spans = r.readable_spans();
  EXPECT_EQ(spans[0].size(), 1500u);
  EXPECT_TRUE(spans[1].empty());
  // Draining resets the offset: the next write lands at offset 0 again.
  const std::uint8_t* base = spans[0].data();
  ASSERT_EQ(r.discard(1500), 1500u);
  ASSERT_EQ(r.write(counting(10)), 10u);
  EXPECT_EQ(r.readable_spans()[0].data(), base);
}

TEST(ByteRing, SpansSplitAtTheLogicalWrapNotThePhysicalOne) {
  ByteRing r(16 * 1024);
  std::vector<std::uint8_t> sink(1500);
  for (int i = 0; i < 10; ++i) {  // logical head to 15000, buffer stays 2 KiB
    ASSERT_EQ(r.write(sink), 1500u);
    ASSERT_EQ(r.read(sink), 1500u);
  }
  // A fixed 16 KiB ring would now hold the next 2000 bytes at
  // [15000, 16384) and [0, 616); here they sit contiguously at offset 0.
  const auto in = counting(2000);
  ASSERT_EQ(r.write(in), 2000u);
  EXPECT_EQ(r.allocated(), 2048u);
  const auto spans = r.readable_spans();
  ASSERT_EQ(spans[0].size(), 1384u);
  ASSERT_EQ(spans[1].size(), 616u);
  EXPECT_EQ(spans[1].data(), spans[0].data() + spans[0].size());
  std::vector<std::uint8_t> joined(spans[0].begin(), spans[0].end());
  joined.insert(joined.end(), spans[1].begin(), spans[1].end());
  EXPECT_EQ(joined, in);
  // clear() restarts the logical ring too.
  r.clear();
  ASSERT_EQ(r.write(counting(100)), 100u);
  EXPECT_EQ(r.readable_spans()[0].size(), 100u);
  EXPECT_TRUE(r.readable_spans()[1].empty());
}

TEST(ByteRing, GrowingToCapacityBecomesTheFixedRing) {
  ByteRing r(8192);
  ASSERT_EQ(r.write(counting(1500)), 1500u);
  std::vector<std::uint8_t> sink(1000);
  ASSERT_EQ(r.read(sink), 1000u);  // 500 live bytes, logical head 1000
  // 500 + 7000 needs the whole capacity: the live bytes land at the logical
  // head and the write wraps physically exactly where the spans split.
  ASSERT_EQ(r.write(counting(7000, static_cast<std::uint8_t>(1500))), 7000u);
  EXPECT_EQ(r.allocated(), 8192u);
  EXPECT_FALSE(r.full());
  const auto spans = r.readable_spans();
  ASSERT_EQ(spans[0].size(), 7192u);
  ASSERT_EQ(spans[1].size(), 308u);
  EXPECT_EQ(spans[0].data() + spans[0].size(), spans[1].data() + 8192);
  std::vector<std::uint8_t> joined(spans[0].begin(), spans[0].end());
  joined.insert(joined.end(), spans[1].begin(), spans[1].end());
  EXPECT_EQ(joined, counting(7500, static_cast<std::uint8_t>(1000)));
  // Held near full, small writes wrap instead of compacting: the head
  // stays at the logical head, never moves back to offset 0.
  const std::uint8_t* base = spans[0].data() - 1000;
  std::size_t logical_head = 1000;
  for (int i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> out(600);
    ASSERT_EQ(r.read(out), 600u);
    ASSERT_EQ(r.write(out), 600u);
    logical_head = (logical_head + 600) % 8192;
    ASSERT_EQ(r.readable_spans()[0].data(), base + logical_head);
    ASSERT_EQ(r.allocated(), 8192u);
  }
  // Each read+write moved 600 bytes from the front to the back.
  auto expect = counting(7500, static_cast<std::uint8_t>(1000));
  std::rotate(expect.begin(), expect.begin() + (20 * 600) % 7500,
              expect.end());
  std::vector<std::uint8_t> out(7500);
  ASSERT_EQ(r.read(out), 7500u);
  EXPECT_EQ(out, expect);
}

/// Property: against a std::deque reference model, arbitrary interleavings
/// of write / read / peek / peek_at / discard / release behave identically.
/// Beyond the bytes, every step checks the span split against a fixed ring
/// of the same capacity (min(size, cap - logical head)) and bounds the
/// physical allocation by the capacity and by twice the high-water mark.
void run_ring_model(sim::Rng& rng, std::size_t cap) {
  ByteRing ring(cap);
  std::deque<std::uint8_t> model;
  std::size_t model_high_water = 0;
  std::size_t logical_head = 0;
  std::uint8_t next = 0;
  const auto consume = [&](std::size_t n) {
    model.erase(model.begin(), model.begin() + static_cast<long>(n));
    logical_head = (logical_head + n) % cap;
  };

  for (int step = 0; step < 4000; ++step) {
    switch (rng.below(6)) {
      case 0: {  // write
        std::vector<std::uint8_t> chunk(1 + rng.below(cap + 16));
        for (auto& c : chunk) c = next++;
        const std::size_t n = ring.write(chunk);
        const std::size_t expect = std::min(chunk.size(), cap - model.size());
        ASSERT_EQ(n, expect);
        model.insert(model.end(), chunk.begin(),
                     chunk.begin() + static_cast<long>(n));
        model_high_water = std::max(model_high_water, model.size());
        break;
      }
      case 1: {  // read (consumes)
        std::vector<std::uint8_t> buf(1 + rng.below(cap + 16));
        const std::size_t n = ring.read(buf);
        ASSERT_EQ(n, std::min(buf.size(), model.size()));
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], model[i]);
        consume(n);
        break;
      }
      case 2: {  // peek (does not consume)
        std::vector<std::uint8_t> buf(1 + rng.below(cap + 16));
        const std::size_t n = ring.peek(buf);
        ASSERT_EQ(n, std::min(buf.size(), model.size()));
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], model[i]);
        break;
      }
      case 3: {  // peek_at offset (retransmission path)
        const std::size_t off = rng.below(cap + 8);
        std::vector<std::uint8_t> buf(1 + rng.below(64));
        const std::size_t n = ring.peek_at(off, buf);
        const std::size_t expect =
            off >= model.size() ? 0 : std::min(buf.size(), model.size() - off);
        ASSERT_EQ(n, expect);
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], model[off + i]);
        break;
      }
      case 4: {  // discard (acked data drop)
        const std::size_t want = rng.below(cap + 8);
        const std::size_t n = ring.discard(want);
        ASSERT_EQ(n, std::min(want, model.size()));
        consume(n);
        break;
      }
      case 5: {  // release (TIME_WAIT teardown), rarely
        if (!rng.chance(0.05)) break;
        ring.release();
        ASSERT_EQ(ring.allocated(), 0u);
        model.clear();
        logical_head = 0;
        break;
      }
    }
    ASSERT_EQ(ring.readable(), model.size());
    ASSERT_EQ(ring.writable(), cap - model.size());

    const auto spans = ring.readable_spans();
    const std::size_t first = std::min(model.size(), cap - logical_head);
    ASSERT_EQ(spans[0].size(), first);
    ASSERT_EQ(spans[1].size(), model.size() - first);
    for (std::size_t i = 0; i < model.size(); ++i) {
      const std::uint8_t b =
          i < first ? spans[0][i] : spans[1][i - first];
      ASSERT_EQ(b, model[i]);
    }

    ASSERT_LE(ring.allocated(), cap);
    ASSERT_LE(ring.allocated(),
              std::max(std::min(ByteRing::kMinBytes, cap),
                       2 * ring.high_water()));
  }
  EXPECT_EQ(ring.high_water(), model_high_water);
}

class ByteRingModelProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ByteRingModelProperty, MatchesDequeReferenceModel) {
  sim::Rng rng(GetParam());
  const std::size_t cap = 1 + rng.below(300);
  run_ring_model(rng, cap);
}

// Capacities of 1 to 17 KiB, so growth and compaction run.
TEST_P(ByteRingModelProperty, MatchesDequeReferenceModelWhileGrowing) {
  sim::Rng rng(GetParam());
  const std::size_t cap = 1024 + rng.below(16 * 1024);
  run_ring_model(rng, cap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteRingModelProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18,
                                           19, 20));

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

TEST_F(SimFixture, ChannelDeliversInOrderWithCost) {
  std::vector<int> got;
  Channel<int> ch(proc, 16, kDefaultChannelLatency, 100,
                  [&](int&& v) { got.push_back(v); });
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.send(i));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ch.stats().delivered, 5u);
  EXPECT_GE(proc.stats().processing, 500u);
}

TEST_F(SimFixture, ChannelDropsWhenFull) {
  std::vector<int> got;
  Channel<int> ch(proc, 3, kDefaultChannelLatency, 100,
                  [&](int&& v) { got.push_back(v); });
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    if (ch.send(i)) ++sent;
  }
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(ch.stats().dropped_full, 7u);
  sim.run();
  EXPECT_EQ(got.size(), 3u);
  // Capacity frees up after consumption.
  EXPECT_TRUE(ch.send(99));
  sim.run();
  EXPECT_EQ(got.back(), 99);
}

TEST_F(SimFixture, ChannelToCrashedConsumerDropsAndRecovers) {
  int got = 0;
  Channel<int> ch(proc, 4, kDefaultChannelLatency, 10,
                  [&](int&&) { ++got; });
  proc.crash();
  EXPECT_FALSE(ch.send(1));
  EXPECT_EQ(ch.stats().dropped_dead, 1u);
  proc.restart();
  ch.rebind(proc);
  EXPECT_TRUE(ch.send(2));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(SimFixture, ChannelMessageCostMayDependOnPayload) {
  Channel<std::vector<int>> ch(
      proc, 8, kDefaultChannelLatency,
      [](const std::vector<int>& v) {
        return static_cast<sim::Cycles>(v.size() * 10);
      },
      [](std::vector<int>&&) {});
  ch.send(std::vector<int>(100));
  sim.run();
  EXPECT_EQ(proc.stats().processing, 1000u);
}

TEST_F(SimFixture, ChannelBatchHandlerReceivesWholeBurst) {
  // A burst deposited inside one transfer latency drains as ONE delivery:
  // the batch handler sees the whole burst, in order, and the consumer is
  // still charged the summed per-message cost (virtual time unchanged).
  std::vector<std::vector<int>> bursts;
  Channel<int> ch(proc, 64, kDefaultChannelLatency, 100,
                  [&](std::vector<int>&& b) {
                    bursts.push_back(std::move(b));
                  });
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.send(i));
  sim.run();
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0], (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ch.stats().delivered, 5u);
  EXPECT_EQ(ch.stats().batches, 1u);
  EXPECT_GE(proc.stats().processing, 500u);  // 5 x 100, summed into one job
}

TEST_F(SimFixture, ChannelBatchHandlerGetsALoneMessageAsAOneElementBatch) {
  // The replicas' steady state: one frame per doorbell. A batch consumer
  // still gets it through the batch handler, as a batch of one, charged
  // once.
  std::vector<std::vector<int>> bursts;
  Channel<int> ch(proc, 64, kDefaultChannelLatency, 100,
                  [&](std::vector<int>&& b) {
                    bursts.push_back(std::move(b));
                  });
  EXPECT_TRUE(ch.send(7));
  sim.run();
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0], (std::vector<int>{7}));
  EXPECT_EQ(ch.stats().delivered, 1u);
  EXPECT_EQ(ch.stats().batches, 1u);
  EXPECT_EQ(proc.stats().processing, 100u);
}

TEST_F(SimFixture, ChannelBatchRespectsBudgetAndOrder) {
  // More than kBatchBudget staged messages split into budget-sized
  // deliveries; concatenated they are exactly the sent sequence.
  std::vector<std::size_t> burst_sizes;
  std::vector<int> got;
  Channel<int> ch(proc, 128, kDefaultChannelLatency, 1,
                  [&](std::vector<int>&& b) {
                    burst_sizes.push_back(b.size());
                    for (int v : b) got.push_back(v);
                  });
  constexpr int kN = 80;  // 2 full budgets + a remainder of 16
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(ch.send(i));
  sim.run();
  ASSERT_EQ(burst_sizes.size(), 3u);
  EXPECT_EQ(burst_sizes[0], Channel<int>::kBatchBudget);
  EXPECT_EQ(burst_sizes[1], Channel<int>::kBatchBudget);
  EXPECT_EQ(burst_sizes[2], kN - 2 * Channel<int>::kBatchBudget);
  std::vector<int> want(kN);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
  EXPECT_EQ(ch.stats().delivered, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(ch.stats().batches, 3u);
}

TEST_F(SimFixture, ChannelBatchAndSingleDeliveryAreEquivalent) {
  // The batch path and the per-message path must agree on everything
  // observable: messages, order, delivered count, and charged cycles.
  auto run_one = [&](bool batched) {
    sim::Simulator s;
    sim::Machine& m = s.add_machine(fast_params());
    TestProc p(s, "c");
    p.pin(m.thread(0));
    std::vector<int> got;
    auto ch = batched
                  ? std::make_unique<Channel<int>>(
                        p, 64, kDefaultChannelLatency, 100,
                        [&](std::vector<int>&& b) {
                          for (int v : b) got.push_back(v);
                        })
                  : std::make_unique<Channel<int>>(
                        p, 64, kDefaultChannelLatency, 100,
                        [&](int&& v) { got.push_back(v); });
    for (int i = 0; i < 20; ++i) EXPECT_TRUE(ch->send(i));
    s.run();
    return std::tuple{got, ch->stats().delivered, p.stats().processing};
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

TEST_F(SimFixture, ChannelBatchDiesWithCrashedConsumer) {
  // Crash while the burst is in transfer: the whole burst is classified
  // dropped_dead and the accounting invariant still balances.
  int handled = 0;
  Channel<int> ch(proc, 16, kDefaultChannelLatency, 10,
                  [&](std::vector<int>&& b) {
                    handled += static_cast<int>(b.size());
                  });
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ch.send(i));
  proc.crash();
  sim.run();
  EXPECT_EQ(handled, 0);
  const auto& st = ch.stats();
  EXPECT_EQ(st.sent, st.delivered + st.dropped_full + st.dropped_dead);
  EXPECT_EQ(st.dropped_dead, 4u);
  EXPECT_EQ(ch.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

TEST_F(SimFixture, DoorbellCoalescesRings) {
  // The doorbell keeps no counters (a socket carries two): count handler
  // runs here.
  int handled = 0;
  auto bell = std::make_shared<BoundDoorbell>(proc, 50, [&] { ++handled; });
  for (int rings = 0; rings < 3; ++rings) {
    bell->ring();
    EXPECT_TRUE(bell->pending());
  }
  sim.run();
  EXPECT_EQ(handled, 1);  // three rings, one delivery
  EXPECT_FALSE(bell->pending());
  // After consumption, a new ring delivers again.
  bell->ring();
  sim.run();
  EXPECT_EQ(handled, 2);
}

// Every connection end carries rings and doorbells (DESIGN.md §5m, §5n):
// 32-bit ring state around one pointer, and a doorbell that is one flag
// (its ringer supplies the consumer, cost and handler).
static_assert(sizeof(ByteRing) == 32);
static_assert(sizeof(Doorbell) == 1);

TEST(ByteRing, CapacityBeyondThirtyTwoBitsIsRejectedInEveryBuild) {
  EXPECT_THROW(ByteRing(0), std::length_error);
  EXPECT_THROW(ByteRing(std::size_t{1} << 32), std::length_error);
  // The largest capacity is accepted; nothing is allocated until a write.
  ByteRing r(ByteRing::kMaxCapacity);
  EXPECT_EQ(r.capacity(), ByteRing::kMaxCapacity);
  EXPECT_EQ(r.allocated(), 0u);
}

TEST_F(SimFixture, DoorbellToCrashedConsumerIsNoop) {
  int handled = 0;
  auto bell = std::make_shared<BoundDoorbell>(proc, 50, [&] { ++handled; });
  proc.crash();
  bell->ring();
  sim.run();
  EXPECT_EQ(handled, 0);
}

TEST_F(SimFixture, DestroyedDoorbellNeverFires) {
  int handled = 0;
  {
    auto bell = std::make_shared<BoundDoorbell>(proc, 50, [&] { ++handled; });
    bell->ring();
  }  // destroyed with the ring still in flight
  sim.run();
  EXPECT_EQ(handled, 0);
}

}  // namespace
}  // namespace neat::ipc
