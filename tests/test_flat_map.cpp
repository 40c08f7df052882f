// FlatMap property tests: the open-addressing table against a
// std::unordered_map reference model under random insert / find / erase /
// erase_if / clear / growth, with hashes that force clusters to wrap around
// the end of the table; plus the defined-order contract of the per-flow
// tables built on it (TCP checkpoints and extraction, steering conntrack).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "fleet/steering.hpp"
#include "net/tcp.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace neat {
namespace {

/// Every key lands in the last few slots of the table whatever its
/// capacity (the low hash bits are all ones minus 0..3), so every cluster
/// wraps from the end of the table into its start.
struct WrapHash {
  std::size_t operator()(int k) const {
    return ~static_cast<std::size_t>(0) - static_cast<std::size_t>(k & 3);
  }
};

/// A handful of homes for many keys: long clusters, frequent shifts.
struct ClumpHash {
  std::size_t operator()(int k) const {
    return static_cast<std::size_t>(k % 5) * 7;
  }
};

template <typename Map>
void expect_matches(const Map& m, const std::unordered_map<int, int>& ref) {
  ASSERT_EQ(m.size(), ref.size());
  std::set<int> seen;
  for (const auto& [k, v] : m) {
    EXPECT_TRUE(seen.insert(k).second) << "key " << k << " iterated twice";
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "stray key " << k;
    EXPECT_EQ(v, it->second);
  }
  EXPECT_EQ(seen.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto it = m.find(k);
    ASSERT_NE(it, m.end()) << "lost key " << k;
    EXPECT_EQ(it->second, v);
  }
}

template <typename Hash>
void run_model(std::uint64_t seed, int key_space, int steps) {
  sim::Rng rng(seed);
  sim::FlatMap<int, int, Hash> m;
  std::unordered_map<int, int> ref;
  for (int step = 0; step < steps; ++step) {
    const int k = static_cast<int>(rng.below(key_space));
    const auto op = rng.below(100);
    if (op < 40) {
      const int v = static_cast<int>(rng.below(1000));
      const auto [it, inserted] = m.try_emplace(k, v);
      const auto [rit, rinserted] = ref.try_emplace(k, v);
      ASSERT_EQ(inserted, rinserted);
      ASSERT_EQ(it->first, k);
      ASSERT_EQ(it->second, rit->second);
    } else if (op < 50) {
      const int v = static_cast<int>(rng.below(1000));
      m[k] = v;
      ref[k] = v;
    } else if (op < 70) {
      ASSERT_EQ(m.erase(k), ref.erase(k));
    } else if (op < 75) {
      if (auto it = m.find(k); it != m.end()) {
        m.erase(it);
        ref.erase(k);
      }
    } else if (op < 90) {
      ASSERT_EQ(m.contains(k), ref.contains(k));
      auto it = m.find(k);
      if (it != m.end()) {
        ASSERT_EQ(it->second, ref.at(k));
      }
    } else if (op < 99) {
      // erase_if with a random residue class: offered each entry once.
      const int mod = 2 + static_cast<int>(rng.below(4));
      const int res = static_cast<int>(rng.below(mod));
      std::multiset<int> offered;
      const std::size_t removed = m.erase_if([&](const auto& kv) {
        offered.insert(kv.first);
        return kv.first % mod == res;
      });
      std::size_t ref_removed = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        ASSERT_EQ(offered.count(it->first), 1u) << "key " << it->first;
        if (it->first % mod == res) {
          it = ref.erase(it);
          ++ref_removed;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(removed, ref_removed);
    } else {
      m.clear();
      ref.clear();
    }
    ASSERT_EQ(m.size(), ref.size());
    ASSERT_LE(m.size() * 4, m.capacity() * 3) << "load factor above 3/4";
    if (step % 97 == 0) expect_matches(m, ref);
  }
  expect_matches(m, ref);
}

TEST(FlatMap, MatchesReferenceModelWithMixedHash) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_model<sim::IntHash>(seed, 600, 6000);
  }
}

TEST(FlatMap, MatchesReferenceModelWithWrappingClusters) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_model<WrapHash>(seed, 200, 4000);
  }
}

TEST(FlatMap, MatchesReferenceModelWithClumpedHomes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_model<ClumpHash>(seed, 300, 4000);
  }
}

TEST(FlatMap, GrowthKeepsEveryEntry) {
  sim::FlatMap<int, int, sim::IntHash> m;
  std::size_t last_cap = 0;
  int growths = 0;
  for (int i = 0; i < 20000; ++i) {
    m.try_emplace(i, i * 3);
    if (m.capacity() != last_cap) {
      ++growths;
      last_cap = m.capacity();
      EXPECT_EQ(last_cap & (last_cap - 1), 0u) << "capacity not a power of 2";
    }
  }
  EXPECT_GT(growths, 5);
  for (int i = 0; i < 20000; ++i) {
    auto it = m.find(i);
    ASSERT_NE(it, m.end());
    EXPECT_EQ(it->second, i * 3);
  }
}

TEST(FlatMap, WrappedClusterIteratesAndErasesEachKeyOnce) {
  sim::FlatMap<int, int, WrapHash> m;
  // 10 keys all homed in the last 4 slots of a 16-slot table: the cluster
  // covers the last slots and continues at slot 0.
  for (int k = 0; k < 10; ++k) m.try_emplace(k, k);
  ASSERT_EQ(m.capacity(), 16u);
  std::vector<int> order;
  for (const auto& [k, v] : m) order.push_back(k);
  std::vector<int> sorted_order = order;
  std::sort(sorted_order.begin(), sorted_order.end());
  EXPECT_EQ(sorted_order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));

  // Erasing members of the wrapped cluster shifts entries from slot 0..
  // back across the end of the table; each key must still be offered once.
  std::map<int, int> offered;
  const std::size_t removed = m.erase_if([&](const auto& kv) {
    ++offered[kv.first];
    return kv.first % 2 == 0;
  });
  EXPECT_EQ(removed, 5u);
  ASSERT_EQ(offered.size(), 10u);
  for (const auto& [k, n] : offered) EXPECT_EQ(n, 1) << "key " << k;
  for (int k = 0; k < 10; ++k) EXPECT_EQ(m.contains(k), k % 2 == 1);

  // Erase everything one key at a time through the wrap.
  for (int k = 1; k < 10; k += 2) {
    EXPECT_EQ(m.erase(k), 1u);
    for (int j = k + 2; j < 10; j += 2) EXPECT_TRUE(m.contains(j));
  }
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatMap, SortedIsKeyOrderWhateverTheInsertionOrder) {
  sim::Rng rng(42);
  std::vector<int> keys(500);
  for (int i = 0; i < 500; ++i) keys[static_cast<std::size_t>(i)] = i * 7919;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.below(i)]);
    }
    sim::FlatMap<int, int, sim::IntHash> m;
    for (int k : keys) m.try_emplace(k, k % 3);
    const auto all = m.sorted();
    ASSERT_EQ(all.size(), keys.size());
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                               [](auto* a, auto* b) {
                                 return a->first < b->first;
                               }));
    const auto some = m.sorted_if([](const auto& kv) { return kv.second == 1; });
    for (std::size_t i = 1; i < some.size(); ++i) {
      EXPECT_LT(some[i - 1]->first, some[i]->first);
    }
    for (auto* e : some) EXPECT_EQ(e->second, 1);
  }
}

TEST(FlatMap, MovedFromMapIsEmpty) {
  sim::FlatMap<int, int, sim::IntHash> a;
  for (int i = 0; i < 50; ++i) a.try_emplace(i, i);
  sim::FlatMap<int, int, sim::IntHash> b = std::move(a);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(a.contains(3));
  a.try_emplace(3, 9);
  EXPECT_EQ(a.find(3)->second, 9);
}

// --- defined iteration order of the per-flow tables ------------------------

const net::Ipv4Addr kClientIp = net::Ipv4Addr::of(10, 0, 0, 2);
const net::Ipv4Addr kServerIp = net::Ipv4Addr::of(10, 0, 0, 1);

/// Loss-free back-to-back wire for two stacks.
class PairEnv final : public net::TcpEnv {
 public:
  PairEnv(sim::Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}
  void set_peer(net::TcpStack* peer) { peer_ = peer; }
  sim::SimTime now() override { return sim_.now(); }
  sim::EventHandle start_timer(sim::SimTime delay,
                               std::function<void()> fn) override {
    return sim_.schedule(delay, std::move(fn));
  }
  std::uint32_t random_u32() override {
    return static_cast<std::uint32_t>(rng_());
  }
  void tx(net::PacketPtr seg, net::Ipv4Addr src, net::Ipv4Addr dst) override {
    sim_.schedule(10 * sim::kMicrosecond, [this, seg, src, dst] {
      if (peer_ != nullptr) peer_->rx(src, dst, seg);
    });
  }

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  net::TcpStack* peer_{nullptr};
};

std::vector<net::FlowKey> flows_of(const net::TcpCheckpoint& cp) {
  std::vector<net::FlowKey> out;
  for (const auto& c : cp.conns) out.push_back(c.flow);
  return out;
}

/// Open one connection per client port, in the given order, and return the
/// server's checkpoint and extraction flow lists plus the client's
/// for_each_connection order.
struct OrderRun {
  std::vector<net::FlowKey> snapshot;
  std::vector<net::FlowKey> extracted;
  std::vector<net::FlowKey> visited;
};

OrderRun open_in_order(const std::vector<std::uint16_t>& ports) {
  sim::Simulator sim;
  PairEnv client_env(sim, 1);
  PairEnv server_env(sim, 2);
  net::TcpStack client(client_env, kClientIp);
  net::TcpStack server(server_env, kServerIp);
  client_env.set_peer(&server);
  server_env.set_peer(&client);
  server.listen(80, 1024);
  for (std::uint16_t p : ports) client.connect({kServerIp, 80}, p);
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  OrderRun r;
  client.for_each_connection(
      [&](net::TcpSocket& s) { r.visited.push_back(s.flow()); });
  r.snapshot = flows_of(server.snapshot());
  r.extracted = flows_of(server.extract_for_migration());
  return r;
}

TEST(FlowTableOrder, TcpSnapshotExtractAndVisitFollowKeyOrder) {
  std::vector<std::uint16_t> ports;
  for (std::uint16_t p = 0; p < 64; ++p) {
    ports.push_back(static_cast<std::uint16_t>(40000 + p * 37));
  }
  std::vector<std::uint16_t> reversed(ports.rbegin(), ports.rend());
  std::vector<std::uint16_t> shuffled = ports;
  sim::Rng rng(9);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  const OrderRun a = open_in_order(ports);
  const OrderRun b = open_in_order(reversed);
  const OrderRun c = open_in_order(shuffled);
  ASSERT_EQ(a.snapshot.size(), ports.size());
  ASSERT_EQ(a.extracted.size(), ports.size());
  ASSERT_EQ(a.visited.size(), ports.size());
  EXPECT_TRUE(std::is_sorted(a.snapshot.begin(), a.snapshot.end()));
  EXPECT_TRUE(std::is_sorted(a.extracted.begin(), a.extracted.end()));
  EXPECT_TRUE(std::is_sorted(a.visited.begin(), a.visited.end()));
  for (const OrderRun* o : {&b, &c}) {
    EXPECT_EQ(o->snapshot, a.snapshot);
    EXPECT_EQ(o->extracted, a.extracted);
    EXPECT_EQ(o->visited, a.visited);
  }
}

TEST(FlowTableOrder, SteeringTrackedFlowsFollowKeyOrder) {
  std::vector<net::FlowKey> keys;
  for (std::uint16_t i = 0; i < 200; ++i) {
    keys.push_back({net::Ipv4Addr::of(10, 9, 0, 1),
                    static_cast<std::uint16_t>(8000 + i % 4),
                    net::Ipv4Addr::of(10, 1, 0, static_cast<std::uint8_t>(
                                                    2 + i % 3)),
                    static_cast<std::uint16_t>(50000 + i * 13)});
  }
  std::vector<net::FlowKey> expected = keys;
  std::sort(expected.begin(), expected.end());
  sim::Rng rng(3);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.below(i)]);
    }
    sim::Simulator sim;
    fleet::SteeringTier tier(sim, fleet::SteeringConfig{});
    tier.repoint_flows(keys, 1);
    tier.repoint_flows({keys.front()}, 2);
    std::vector<net::FlowKey> want = expected;
    want.erase(std::find(want.begin(), want.end(), keys.front()));
    EXPECT_EQ(tier.tracked_flows_for(1), want);
    EXPECT_EQ(tier.tracked_flows_for(2),
              std::vector<net::FlowKey>{keys.front()});
    EXPECT_EQ(tier.tracked_flow_count(), keys.size());
  }
}

}  // namespace
}  // namespace neat
