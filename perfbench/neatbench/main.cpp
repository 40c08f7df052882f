// neatbench: one repetition of one benchmark workload, as a single-threaded
// process. Prints one JSON object (see record.hpp) as its last stdout line.
//
// Usage: neatbench --workload NAME --seed N [--trace]
//
// run.py drives repetitions of this binary, takes medians of the host-clock
// values, and checks that every simulated value repeats exactly.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: neatbench --workload NAME --seed N [--trace]\n"
               "workloads:");
  for (const auto& w : neat::perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  neat::perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--trace") {
      opt.trace = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_seed) return usage();
  try {
    neat::perfbench::Result r = neat::perfbench::run_workload(opt);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.peak_rss_kb = static_cast<double>(ru.ru_maxrss);
    std::printf("%s\n", neat::perfbench::to_json(r).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neatbench: %s\n", e.what());
    return usage();
  }
  return 0;
}
