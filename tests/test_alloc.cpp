// Allocation audit of the steady-state keep-alive request path. In the
// paper a request on an established connection costs a ring write and a
// doorbell; here it must not cost heap traffic either (DESIGN.md §5o).
//
// This binary replaces the global operator new to count every allocation
// the process makes. The measured window opens once every connection is
// established and every buffer and table has reached its working size,
// and the test checks that no connection was set up inside it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness/testbed.hpp"

namespace {
std::uint64_t g_allocations = 0;  // the simulator is single-threaded
}  // namespace

// The default array and nothrow forms forward to these two. Out of line,
// so that no caller sees which allocator pairs with which deallocator.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace neat::harness {
namespace {

class KeepAliveAllocations : public ::testing::TestWithParam<bool> {};

TEST_P(KeepAliveAllocations, WindowWithoutSetupAllocatesNothingPerRequest) {
  Testbed::Config cfg;
  cfg.seed = 21;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.multi_component = GetParam();
  ServerRig server = build_neat_server(tb, so);
  // No connection closes for the whole run: the server's keep-alive limit
  // and the sessions' request counts are out of reach.
  for (auto& w : server.webs) w->max_requests_per_conn = 1 << 30;
  ClientOptions co;
  co.stack_replicas = 2;
  co.generators = 2;
  co.concurrency_per_gen = 8;
  co.requests_per_conn = 1 << 30;
  ClientRig client = build_client(tb, co, 1);
  prepopulate_arp(server, client);

  tb.sim.run_for(50 * sim::kMillisecond);  // warm-up
  const std::uint64_t accepted0 = server.webs[0]->app_stats().conns_accepted;
  const std::uint64_t served0 = server.total_requests();
  const std::uint64_t allocations0 = g_allocations;
  tb.sim.run_for(200 * sim::kMillisecond);
  const std::uint64_t allocations = g_allocations - allocations0;
  const std::uint64_t served = server.total_requests() - served0;

  ASSERT_EQ(accepted0, 16u);
  ASSERT_EQ(server.webs[0]->app_stats().conns_accepted, accepted0)
      << "the window must hold no connection setup";
  ASSERT_GT(served, 5000u);
  EXPECT_LE(static_cast<double>(allocations) / static_cast<double>(served),
            0.05)
      << allocations << " allocations for " << served << " requests";
}

INSTANTIATE_TEST_SUITE_P(Compositions, KeepAliveAllocations, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "MultiComponent"
                                          : "SingleComponent";
                         });

}  // namespace
}  // namespace neat::harness
