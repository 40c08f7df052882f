#!/usr/bin/env bash
# Repo verification: the tier-1 build + test cycle, then a sanitizer pass
# over the suites where lifetime bugs hide (IPC teardown, observability
# ring/export, chaos supervision) plus a quick ext_perf pass (the packet
# pool and event-queue fast paths recycle memory; ASan must see them).
#
# Usage: scripts/check.sh [--skip-sanitize] [--perf]
#
# --perf additionally runs the full ext_perf bench and fails on a >10%
# regression of fig9_pkts_per_host_sec against the committed
# BENCH_ext_perf.json (the perf trajectory gate; see EXPERIMENTS.md), on an
# absolute pkts/host-sec floor (the flat-overhead PR's level must never
# silently erode across PRs, committed-baseline drift or not), on a
# simulated-result drift (fig9_krps is seed-deterministic and must match the
# committed value), on a latency-guard breach (batching may never trade
# more than 20% of the simulated request p99 against the pre-batching
# baseline recorded in baseline_fig9_p99_latency_ms), or on a memory-guard
# breach: fig9_peak_rss_mb more than 20% above the committed value. It also
# runs the full ext_fleet bench and applies the same +20% memory guard to
# fleet_bytes_per_conn (RSS growth over the connection ramp per established
# connection) against the committed BENCH_ext_fleet.json.
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

echo "== tier 1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$SKIP_SANITIZE" == 1 ]]; then
  echo "== sanitizer pass skipped =="
else
  echo "== sanitizer pass: ASan+UBSan on test_ipc / test_obs / test_chaos / test_fastpath / test_workload / test_udp_e2e / test_defense / test_fleet / test_flat_map / test_tcp / test_nic / test_socklib / test_sim / test_linux / test_apps_harness / ext_perf / ext_workloads / ext_defense / ext_fleet =="
  cmake -B build-asan -S . -DNEAT_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target test_ipc test_obs test_chaos test_fastpath test_workload \
             test_udp_e2e test_defense test_fleet test_flat_map test_tcp \
             test_nic test_socklib test_sim test_linux test_apps_harness \
             ext_perf ext_workloads ext_defense ext_fleet
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
  # One short end-to-end pass over the pooled data path under ASan: buffer
  # recycling must be invisible to the sanitizer.
  (cd build-asan/bench && ./ext_perf --quick)
  (cd build-asan/bench && ./ext_workloads --quick)
  (cd build-asan/bench && ./ext_defense --quick)
  (cd build-asan/bench && ./ext_fleet --quick)
fi

echo "== defense gate: ext_defense --quick vs the >=5x goodput-ratio floor =="
(cd build/bench && ./ext_defense --quick)
python3 - <<'EOF'
import json, sys

with open("build/bench/BENCH_ext_defense.json") as f:
    j = json.load(f)
ratio = float(j["syn_flood.goodput_ratio"])
shown = ">1000" if ratio > 1000 else f"{ratio:.1f}"
print(f"syn_flood.goodput_ratio: {shown}x (gate: >= 5)")
if ratio < 5.0:
    print("FAIL: defended/attacked goodput ratio below 5x", file=sys.stderr)
    sys.exit(1)
if not j["defense_ok"]:
    print("FAIL: ext_defense contract failures", file=sys.stderr)
    sys.exit(1)
print("defense gate passed")
EOF

echo "== fleet gate: ext_fleet --quick (crash isolation within 5%) =="
(cd build/bench && ./ext_fleet --quick)

if [[ "$RUN_PERF" == 1 ]]; then
  echo "== perf gate: ext_perf vs committed BENCH_ext_perf.json =="
  if [[ ! -f BENCH_ext_perf.json ]]; then
    echo "no committed BENCH_ext_perf.json to compare against" >&2
    exit 1
  fi
  (cd build/bench && ./ext_perf)
  python3 - <<'EOF'
import json, sys

def key(path, k):
    with open(path) as f:
        return float(json.load(f)[k])

committed = key("BENCH_ext_perf.json", "fig9_pkts_per_host_sec")
current = key("build/bench/BENCH_ext_perf.json", "fig9_pkts_per_host_sec")
ratio = current / committed
print(f"fig9_pkts_per_host_sec: committed {committed:.0f}, "
      f"current {current:.0f} ({ratio:.2f}x)")
if ratio < 0.90:
    print("FAIL: >10% wall-clock throughput regression", file=sys.stderr)
    sys.exit(1)

# Absolute floor, independent of the committed baseline: the flat-overhead
# PR (intrusive refcounts + coalesced wakeups + fused completion + staged
# TX) measured 217k-224k pkts/host-sec on this host class; 180k leaves
# headroom for shared-machine noise (observed reps vary ~15%) while still
# catching any return to the pre-PR 174k level.
FLOOR = 180000.0
print(f"fig9_pkts_per_host_sec floor: {FLOOR:.0f} (current {current:.0f})")
if current < FLOOR:
    print("FAIL: throughput fell below the flat-overhead PR's absolute "
          "floor", file=sys.stderr)
    sys.exit(1)

# Simulated results are seed-deterministic: any drift in krps means the
# data path changed behavior, not just speed.
krps_committed = key("BENCH_ext_perf.json", "fig9_krps")
krps = key("build/bench/BENCH_ext_perf.json", "fig9_krps")
print(f"fig9_krps: committed {krps_committed:.1f}, current {krps:.1f}")
if abs(krps - krps_committed) > 0.05 * krps_committed:
    print("FAIL: simulated fig9 krps drifted >5% from committed value",
          file=sys.stderr)
    sys.exit(1)

# Latency guard: end-to-end batching (channel budgets, NIC interrupt
# moderation) amortizes events but defers work; the simulated request p99
# must stay within 20% of the pre-batching baseline.
p99_base = key("build/bench/BENCH_ext_perf.json",
               "baseline_fig9_p99_latency_ms")
p99 = key("build/bench/BENCH_ext_perf.json", "fig9_p99_latency_ms")
limit = 1.20 * p99_base
print(f"fig9_p99_latency_ms: {p99:.3f} (pre-batching {p99_base:.3f}, "
      f"guard <= {limit:.3f})")
if p99 > limit:
    print("FAIL: batching traded >20% of request p99 for throughput",
          file=sys.stderr)
    sys.exit(1)

# Batch amortization must actually be happening: a mean NIC RX burst of
# 1.0 means the doorbell path silently fell back to per-frame delivery.
nic_mean = key("build/bench/BENCH_ext_perf.json", "fig9_nic_rx_batch_mean")
print(f"fig9_nic_rx_batch_mean: {nic_mean:.2f} frames/doorbell")
if nic_mean < 1.5:
    print("FAIL: NIC RX batching regressed to per-frame doorbells",
          file=sys.stderr)
    sys.exit(1)
# Memory guard: socket byte rings pay only for the bytes they hold
# (DESIGN.md §5m); fig9's peak RSS fell from ~190 MB to ~65 MB with them.
# A >20% rise over the committed value means per-connection memory came
# back.
rss_committed = key("BENCH_ext_perf.json", "fig9_peak_rss_mb")
rss = key("build/bench/BENCH_ext_perf.json", "fig9_peak_rss_mb")
print(f"fig9_peak_rss_mb: committed {rss_committed:.1f}, current {rss:.1f} "
      f"(guard <= {1.20 * rss_committed:.1f})")
if rss > 1.20 * rss_committed:
    print("FAIL: fig9 peak RSS grew >20% over the committed value",
          file=sys.stderr)
    sys.exit(1)
print("perf gate passed")
EOF

  echo "== memory gate: full ext_fleet vs committed BENCH_ext_fleet.json =="
  (cd build/bench && ./ext_fleet)
  python3 - <<'EOF'
import json, sys

def key(path, k):
    with open(path) as f:
        return float(json.load(f)[k])

# Memory guard: what one connection costs the host (both ends live in the
# bench process). A >20% rise over the committed value means per-connection
# state grew back (callback budgets, socket fields, rings; DESIGN.md §5n).
committed = key("BENCH_ext_fleet.json", "fleet_bytes_per_conn")
current = key("build/bench/BENCH_ext_fleet.json", "fleet_bytes_per_conn")
print(f"fleet_bytes_per_conn: committed {committed:.0f}, current "
      f"{current:.0f} (guard <= {1.20 * committed:.0f})")
if current > 1.20 * committed:
    print("FAIL: fleet bytes per connection grew >20% over the committed "
          "value", file=sys.stderr)
    sys.exit(1)
print("memory gate passed")
EOF
fi

echo "== all checks passed =="
