#include "fleet/obs_merge.hpp"

namespace neat::fleet {

obs::Histogram merged_histogram(const std::vector<const obs::Hub*>& hubs,
                                std::string_view name) {
  obs::Histogram out;
  for (const auto* hub : hubs) {
    if (hub == nullptr) continue;
    if (const auto* h = hub->metrics.find_histogram(name)) out.merge(*h);
  }
  return out;
}

std::uint64_t summed_counter(const std::vector<const obs::Hub*>& hubs,
                             std::string_view name) {
  std::uint64_t total = 0;
  for (const auto* hub : hubs) {
    if (hub == nullptr) continue;
    if (const auto* c = hub->metrics.find_counter(name)) total += c->value();
  }
  return total;
}

}  // namespace neat::fleet
