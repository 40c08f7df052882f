// Fleet-level observability merge.
//
// Each NeatHost in a fleet records into its own obs::Hub (per-host metric
// namespace), which kills the last-writer-wins hazard of many hosts sharing
// one registry — but a fleet report needs fleet numbers. These helpers fold
// one named metric across the per-host hubs: counters add, histograms merge
// bucket-wise, so a fleet p99 is computed from one combined distribution
// (max-of-per-host-p99s is not a p99).
#pragma once

#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace neat::fleet {

/// One named histogram merged across hubs (absent entries and null hubs
/// are skipped).
[[nodiscard]] obs::Histogram merged_histogram(
    const std::vector<const obs::Hub*>& hubs, std::string_view name);

/// One named counter summed across hubs.
[[nodiscard]] std::uint64_t summed_counter(
    const std::vector<const obs::Hub*>& hubs, std::string_view name);

}  // namespace neat::fleet
