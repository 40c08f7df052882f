// Host-speed reference: a fixed CPU kernel that shares no code with the
// simulator, so a change under src/ can never speed it up.
//
// A shared machine can change speed by up to 2x from one second to the next
// (other tenants on the same cores and caches). One calibration unit is timed
// right after every simulated slice and before the set-up, so each interval
// can be scaled to reference speed.
//
// A unit runs two probes and reports the geometric mean of their times:
//   * a cache-resident probe that mixes what the simulator's hot loop does —
//     a timer heap, hash lookups, a frame-sized copy with a checksum;
//   * a memory-bound probe: dependent loads through an 8 MB permutation.
// The simulator's slowdown under interference falls between the two.
// Measured over ten same-seed fig9 repetitions on a shared 4-vCPU VM, the
// standard deviation of log host time per repetition was 0.116 raw, 0.052
// with the cache probe alone, 0.076 with the memory probe alone and 0.022
// with the blend.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace neat::perfbench {

class CalibrationKernel {
 public:
  CalibrationKernel() : frame_a_(1514, 1), frame_b_(1514), chain_(kChain) {
    table_.reserve(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) table_[key(i)] = i;
    for (std::uint32_t i = 0; i < 4096; ++i) heap_.push({i, i});
    // Sattolo's shuffle: one cycle through every slot, so the dependent
    // loads never settle into a short cached loop.
    for (std::uint32_t i = 0; i < kChain; ++i) chain_[i] = i;
    for (std::uint32_t i = kChain - 1; i > 0; --i) {
      std::swap(chain_[i], chain_[next() % i]);
    }
  }

  CalibrationKernel(const CalibrationKernel&) = delete;
  CalibrationKernel& operator=(const CalibrationKernel&) = delete;

  /// Host seconds of one unit right now (geometric mean of both probes).
  double time_unit() {
    const double t = std::sqrt(cache_probe() * memory_probe());
    // Every probe result feeds sink_; marking it used keeps the optimiser
    // from deleting the probes' work.
    asm volatile("" : : "g"(sink_) : "memory");
    return t;
  }

 private:
  static constexpr std::uint64_t kKeys = 32'768;
  static constexpr int kCacheOps = 750;
  static constexpr std::uint32_t kChain = 1u << 21;  // 8 MB of uint32
  static constexpr int kMemoryLoads = 1500;

  using Clock = std::chrono::steady_clock;

  static std::uint64_t key(std::uint64_t i) {
    return i * 0x9e3779b97f4a7c15ULL;
  }

  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  double cache_probe() {
    const auto t0 = Clock::now();
    for (int k = 0; k < kCacheOps; ++k) {
      auto [t, id] = heap_.top();
      heap_.pop();
      const std::uint64_t r = next();
      heap_.push({t + (r & 1023), id});
      sink_ += table_.find(key(r % kKeys))->second;
      if ((k & 7) == 0) {
        std::memcpy(frame_b_.data(), frame_a_.data(), frame_b_.size());
        for (std::size_t j = 0; j < frame_b_.size(); j += 64) {
          sink_ += frame_b_[j];
        }
        ++frame_a_[r % frame_a_.size()];
      }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  double memory_probe() {
    const auto t0 = Clock::now();
    std::uint32_t p = pos_;
    for (int k = 0; k < kMemoryLoads; ++k) p = chain_[p];
    pos_ = p;
    sink_ += p;
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      heap_;
  std::vector<std::uint8_t> frame_a_;
  std::vector<std::uint8_t> frame_b_;
  std::vector<std::uint32_t> chain_;
  std::uint32_t pos_{0};
  std::uint64_t x_{88172645463325252ULL};
  std::uint64_t sink_{0};
};

}  // namespace neat::perfbench
