// The benchmark's four workloads, each built from the repo's public
// builders (harness::Testbed / build_neat_server / build_client,
// wl::OpenLoopClient, fleet::FleetCluster).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "record.hpp"

namespace neat::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  /// Tap the links, and after the run replay the captured frames through
  /// each layer's public entry points (host_ns_* ledger values).
  bool trace{false};
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// One repetition: build, warm up, measure, read the ledger, check outputs.
[[nodiscard]] Result run_workload(const Options& opt);

}  // namespace neat::perfbench
