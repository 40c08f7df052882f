#!/usr/bin/env bash
# Repo verification: the tier-1 build + test cycle, a compile-only build of
# the benchmark harness (perfbench/ into build-perfbench/, never run), then a
# sanitizer pass over the suites where lifetime bugs hide (IPC teardown,
# observability ring/export, chaos supervision) plus a quick ext_perf pass
# (the packet pool and event-queue fast paths recycle memory; ASan must see
# them).
#
# Usage: scripts/check.sh [--skip-sanitize] [--perf]
#
# The tier-1 tree is configured with CMake's built-in
# CMAKE_COMPILE_WARNING_AS_ERROR (CMake >= 3.24), so a new compiler warning
# anywhere in src/, tests/, bench/ or examples/ fails the check.
#
# The gates live in the benches (bench::Gates, bench/bench_util.hpp): each
# prints its GATE lines, writes them to BENCH_<name>.json as `gates` and
# `gates_passed`, and exits non-zero when one fails. This script only runs
# them: paper table1_linux_tuning (Table 1's per-option order),
# ext_defense --quick, ext_workloads --quick and ext_fleet --quick always
# (on the tier-1 build, so --skip-sanitize keeps them; the last one with
# --trace-out, and the script checks that the trace holds events), and
# with --perf
# the full ext_perf and ext_fleet, whose full runs gate host throughput,
# krps drift, peak RSS and fleet_bytes_per_conn against the committed
# BENCH_ext_perf.json / BENCH_ext_fleet.json (a value missing there fails).
#
# Profiling note: to find where fig9 host time goes, configure a gprof
# build and read the flat profile —
#   cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_CXX_FLAGS='-O2 -pg -g'
#   cmake --build build-prof --target ext_perf -j"$(nproc)"
#   (cd /tmp && rm -f gmon.out && /path/to/build-prof/bench/ext_perf)
#   gprof -b -p build-prof/bench/ext_perf /tmp/gmon.out | head -40
# -O2 keeps enough frames for attribution where -O3 inlines everything.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

SKIP_SANITIZE=0
RUN_PERF=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    --perf) RUN_PERF=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier 1: configure + build + ctest (warnings are errors) =="
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# perfbench/run.py builds the same sources into its own tree; compiling it
# here makes an API change in src/ that breaks the benchmark harness fail
# now rather than when the benchmark runs.
echo "== benchmark harness: configure + build perfbench/ (compile only) =="
cmake -B build-perfbench -S perfbench >/dev/null
cmake --build build-perfbench -j "$JOBS" --target neatbench

if [[ "$SKIP_SANITIZE" == 1 ]]; then
  echo "== sanitizer pass skipped =="
else
  echo "== sanitizer pass: ASan+UBSan on test_ipc / test_obs / test_chaos / test_fastpath / test_workload / test_udp_e2e / test_defense / test_fleet / test_flat_map / test_tcp / test_nic / test_socklib / test_sim / test_linux / test_apps_harness / test_replica / test_http / test_alloc / test_extensions / ext_perf / ext_workloads / ext_defense / ext_fleet =="
  cmake -B build-asan -S . -DNEAT_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target test_ipc test_obs test_chaos test_fastpath test_workload \
             test_udp_e2e test_defense test_fleet test_flat_map test_tcp \
             test_nic test_socklib test_sim test_linux test_apps_harness \
             test_replica test_http test_alloc test_extensions ext_perf \
             ext_workloads ext_defense ext_fleet
  ./build-asan/tests/test_ipc
  ./build-asan/tests/test_obs
  ./build-asan/tests/test_chaos
  ./build-asan/tests/test_fastpath
  # The workload engine churns sockets, filters and pooled packets by the
  # thousand — exactly where lifetime bugs hide. The UDP e2e suite crosses
  # the SYSCALL-server bind registry and replica recovery under ASan too.
  ./build-asan/tests/test_workload
  ./build-asan/tests/test_udp_e2e
  # The migration churn soak must leak no filters or sockets — that claim
  # only means something with ASan watching the teardown.
  ./build-asan/tests/test_defense
  # Cross-host extract/adopt moves sockets between whole hosts; ASan must
  # see every checkpoint buffer and husk fd die exactly once.
  ./build-asan/tests/test_fleet
  # The flat per-flow tables move entries on every insert and erase: the
  # table's own property suite plus the suites that drive each converted
  # table (TCP demux, NIC filters, socket fds) must be clean under ASan.
  ./build-asan/tests/test_flat_map
  ./build-asan/tests/test_tcp
  ./build-asan/tests/test_nic
  ./build-asan/tests/test_socklib
  # Callables with per-use inline budgets (sim::SmallFnOf<Sig, N>): the
  # heap-fallback and relocation paths, the wake-path job FIFO, and the
  # Linux baseline's callback dispatch (close() from inside a callback).
  ./build-asan/tests/test_sim
  ./build-asan/tests/test_linux
  # The client engine's body-check sink points into its session table, and
  # this suite ends closed sessions mid-body (keep-alive limit, 404s,
  # max_conns, a replica crash).
  ./build-asan/tests/test_apps_harness
  # Every stack process stages its egress in a TxStage whose emit callback
  # captures a bare `this`; this suite crashes and restarts stagers and
  # runs both replica compositions.
  ./build-asan/tests/test_replica
  # The HTTP codec parses through string_views into a connection's queue
  # and serializes into reused buffers; the allocation audit drives the
  # whole keep-alive request path (bare-pointer timer jobs, doorbells).
  ./build-asan/tests/test_http
  ./build-asan/tests/test_alloc
  # Checkpoint restore through the stateful-recovery path rebuilds TCBs
  # with the same codec live migration adopts them with; ASan must see the
  # restored sockets and the library's re-attach.
  ./build-asan/tests/test_extensions
  # One short end-to-end pass over the pooled data path under ASan: buffer
  # recycling must be invisible to the sanitizer.
  (cd build-asan/bench && ./ext_perf --quick)
  (cd build-asan/bench && ./ext_workloads --quick)
  (cd build-asan/bench && ./ext_defense --quick)
  (cd build-asan/bench && ./ext_fleet --quick)
fi

echo "== paper gate: Table 1's per-option order (rx_krps, serv_krps) =="
(cd build/bench && ./paper table1_linux_tuning)

echo "== defense gate: ext_defense --quick =="
(cd build/bench && ./ext_defense --quick)

echo "== workload gate: ext_workloads --quick (flash crowd scales up, then lazily terminates) =="
(cd build/bench && ./ext_workloads --quick)

echo "== fleet gate: ext_fleet --quick (crash isolation within 5%), traced =="
rm -f build/bench/ext_fleet_trace.json
(cd build/bench && ./ext_fleet --quick --trace-out=ext_fleet_trace.json)
# Tracing is opt-in (off unless a consumer enables it): --trace-out must
# switch it on, and the one export must hold every fleet host's events.
grep -q '"traceEvents":\[{' build/bench/ext_fleet_trace.json &&
  grep -q '"name":"handshake_done"' build/bench/ext_fleet_trace.json ||
  { echo "ext_fleet --trace-out: trace missing, empty or without handshakes" >&2; exit 1; }

if [[ "$RUN_PERF" == 1 ]]; then
  echo "== perf gates: full ext_perf vs committed BENCH_ext_perf.json =="
  (cd build/bench && ./ext_perf)
  echo "== memory gate: full ext_fleet vs committed BENCH_ext_fleet.json =="
  (cd build/bench && ./ext_fleet)
fi

echo "== all checks passed =="
