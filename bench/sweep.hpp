// The paper-figure engine. A figure is a declaration: a grid of series × x
// points and/or a list of points, the paper's numbers to print beside them,
// and its gates. One engine runs any figure: it simulates each point
// through one memo, prints the table and writes BENCH_<name>.json.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace neat::bench {

/// Results by run: an identical Run simulates once per process. A trace is
/// not part of a run's identity, but a trace asked of a point memoised
/// untraced runs it again, so the trace file is written.
class Points {
 public:
  using Runner = std::function<ClientRig::Aggregate(
      const Run&, const std::string& trace_out)>;

  explicit Points(Runner runner = bench::run) : runner_(std::move(runner)) {}

  ClientRig::Aggregate get(const Run& r, const std::string& trace_out) {
    for (const Done& d : done_) {
      if (d.run == r && (trace_out.empty() || d.traced)) return d.result;
    }
    done_.push_back({r, runner_(r, trace_out), !trace_out.empty()});
    return done_.back().result;
  }

 private:
  struct Done {
    Run run;
    ClientRig::Aggregate result;
    bool traced;
  };
  Runner runner_;
  std::vector<Done> done_;
};

/// Which of a run's values a point writes under its key prefix, in this
/// order: `krps`, the add_latency() columns, `mbps`.
enum Keys : unsigned { kKrps = 1, kLatency = 2, kMbps = 4 };

struct Point {
  std::string label;       ///< its row's label
  std::string key;         ///< JSON key prefix, e.g. "neat3x_w6_"
  std::optional<Run> run;  ///< none: infeasible, printed "-", writes no key
  unsigned keys{kLatency};
  /// Keys written after the run's, and printed in a list.
  std::vector<std::pair<std::string, double>> consts{};
  bool traced{false};  ///< --trace-out traces this point
};

/// A figure's results by key prefix.
using Results = std::map<std::string, ClientRig::Aggregate>;

struct Figure {
  std::string name;  ///< writes BENCH_<name>.json
  std::string title;
  /// A grid: `cols` heads the row labels, then each series; each row holds
  /// one krps cell per series.
  std::vector<std::string> cols{};
  std::vector<std::vector<Point>> grid{};
  std::vector<Point> list{};  ///< after the grid, one point per row in full
  std::vector<std::string> notes{};  ///< the paper's numbers and landmarks
  /// Lines derived from the results, and the figure's gates.
  std::function<void(const Results&, Gates&)> after{};
};

/// Run `f`'s points in declaration order, `trace` going to its traced
/// point. Returns the exit code of its gates.
inline int run_figure(const Figure& f, Points& points,
                      const std::string& trace) {
  header(f.title.c_str());
  JsonWriter json;
  Results results;
  const auto measure = [&](const Point& p) {
    const ClientRig::Aggregate r =
        points.get(*p.run, p.traced ? trace : std::string());
    results[p.key] = r;
    if ((p.keys & kKrps) != 0) json.add(p.key + "krps", r.krps);
    if ((p.keys & kLatency) != 0) add_latency(json, p.key, r);
    if ((p.keys & kMbps) != 0) json.add(p.key + "mbps", r.mbps);
    for (const auto& [name, v] : p.consts) json.add(p.key + name, v);
    return r;
  };
  for (std::size_t i = 0; i < f.cols.size(); ++i) {
    std::printf(i == 0 ? "%-10s" : " %11s", f.cols[i].c_str());
  }
  std::printf("\n");
  for (const std::vector<Point>& row : f.grid) {
    std::printf("%-10s", row.front().label.c_str());
    for (const Point& p : row) {
      if (p.run) {
        std::printf(" %11.1f", measure(p).krps);
      } else {
        std::printf(" %11s", "-");
      }
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  for (const Point& p : f.list) {
    const ClientRig::Aggregate r = measure(p);
    std::printf("%-30s %10.3f krps %8.2f ms %9.1f kreq %7.1f MB/s %4llu err",
                p.label.c_str(), r.krps, r.mean_latency_ms,
                static_cast<double>(r.requests) / 1000.0, r.mbps,
                static_cast<unsigned long long>(r.error_conns));
    for (const auto& [name, v] : p.consts) {
      std::printf("  %s %g", name.c_str(), v);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n");
  for (const std::string& note : f.notes) std::printf("%s\n", note.c_str());
  Gates gates;
  if (f.after) f.after(results, gates);
  if (!gates.all().empty()) json.add(gates);
  json.write(f.name);
  return gates.exit_code();
}

/// One selectable figure or table of the paper binary.
struct Entry {
  std::string name;
  std::function<int(Points&, const std::string& trace)> run;
};

inline Entry sweep(Figure f) {
  std::string name = f.name;
  return {std::move(name), [f = std::move(f)](Points& p, const std::string& t) {
            return run_figure(f, p, t);
          }};
}

/// `paper [<name>...] [--trace-out=FILE]`: runs the named entries, or all of
/// them in order when none is named, through one memo. Exits 2 on an
/// unknown name, or on --trace-out with more than one entry selected;
/// otherwise 0 unless an entry's gate failed.
inline int paper_main(int argc, char** argv, const std::vector<Entry>& entries,
                      Points& points) {
  std::string trace;
  std::vector<const Entry*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const Entry& e) { return e.name == a; });
    if (a.rfind("--trace-out=", 0) == 0) {
      trace = a.substr(12);
    } else if (a == "--trace-out" && i + 1 < argc) {
      trace = argv[++i];
    } else if (it != entries.end()) {
      chosen.push_back(&*it);
    } else {
      std::fprintf(stderr, "unknown figure '%s'; valid names:", a.c_str());
      for (const Entry& e : entries) std::fprintf(stderr, " %s", e.name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  if (chosen.empty()) {
    for (const Entry& e : entries) chosen.push_back(&e);
  }
  if (!trace.empty() && chosen.size() != 1) {
    std::fprintf(stderr, "--trace-out traces one figure: name exactly one\n");
    return 2;
  }
  int code = 0;
  for (const Entry* e : chosen) code = std::max(code, e->run(points, trace));
  return code;
}

}  // namespace neat::bench
