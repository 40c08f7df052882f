#!/usr/bin/env python3
"""NEaT benchmark: four workloads, both clocks end to end, a per-layer ledger.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig9_keepalive --seed 7 \\
        --seconds 20 --trace 0

Builds perfbench/ (a standalone CMake project over ../src) into
.bench_build/perfbench, then runs the `neatbench` binary as one
single-threaded process per repetition until --seconds have been spent:

  * --trace 0 prints the end-to-end metrics: host_pkts_per_s, setup_s and
    peak_rss_mb as medians over repetitions, and the simulated sim_krps,
    sim_p50_ms and sim_p99_ms;
  * --trace 1 adds one traced repetition (links tapped, captured frames
    replayed through each layer's entry point) and prints the per-layer
    ledger named in perfbench/glossary.json.

Host times are calibrated. neatbench times one unit of a fixed CPU kernel
(neatbench/calib.hpp, no code shared with src/) after every simulated
millisecond and before the set-up, and scales each measured interval to
the speed at which that unit takes CALIB_REF_S. On a shared machine whose
speed swings by 2x within seconds this cuts the run-to-run spread of
host_pkts_per_s by 2-3x; the uncalibrated rate is kept in the ledger as
sim.raw_pkts_per_s.

Every repetition must report identical simulated values and counters (the
traced one too), pass its own output checks, and -- for fig9_keepalive in a
traced run -- reproduce ext_perf's committed fig9 numbers at seed 12345.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GLOSSARY = json.loads((HERE / "glossary.json").read_text())
WORKLOADS = GLOSSARY["workloads"]

# Host seconds of one calibration unit at reference speed: calibrated times
# read as if every interval had run on a machine where the unit takes this.
CALIB_REF_S = 2e-4
REP_TIMEOUT_S = 170
# Stop starting repetitions once this much of the 180 s budget is gone.
RUN_CAP_S = 140
MIN_UNTRACED = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build neatbench; return its path or None."""
    if not (ROOT / "src" / "sim" / "simulator.hpp").is_file():
        log("neat sources (src/) not found next to perfbench/")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (ROOT / target / "perfbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "neatbench"])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = build_dir / "neatbench"
    return binary if binary.is_file() else None


def run_rep(binary, workload, seed, trace):
    """One repetition in its own process; returns its parsed record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} seed {seed}: repetition timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["wall_s"] = time.monotonic() - t0
    rec["seed"] = seed
    rec["traced"] = trace
    return rec


def calibrated(seconds, calib_seconds):
    return [s * CALIB_REF_S / c for s, c in zip(seconds, calib_seconds)]


def pkts_per_s(rec):
    """Frames per calibrated host second of warmup + measure."""
    return rec["frames"] / sum(calibrated(rec["slice_s"], rec["slice_calib_s"]))


def raw_pkts_per_s(rec):
    return rec["frames"] / rec["run_s"]


def setup_seconds(rec):
    return rec["setup_s"] * CALIB_REF_S / rec["setup_calib_s"]


def median(values):
    return statistics.median(values)


def failed_checks(rec):
    return [f"{c['name']}: {c['detail']}" for c in rec["checks"] if not c["ok"]]


def crosscheck(rec):
    """ext_perf's committed fig9 numbers, digit for digit (%.6g, as
    BENCH_ext_perf.json prints them)."""
    want = WORKLOADS["fig9_keepalive"]["paper_crosscheck"]
    got = {
        "fig9_requests": "%d" % rec["sim"]["xcheck_requests"],
        "fig9_krps": "%.6g" % rec["sim"]["xcheck_krps"],
        "fig9_p99_latency_ms": "%.6g" % rec["sim"]["xcheck_p99_ms"],
    }
    return [f"{k}: got {got[k]}, committed {want[k]}"
            for k in got if got[k] != want[k]]


def plan_and_run(binary, workload, seed, seconds, trace):
    """Repetitions until the time is spent; returns (untraced, traced)."""
    start = time.monotonic()
    untraced = []
    traced = None

    def elapsed():
        return time.monotonic() - start

    def next_fits(extra):
        est = median([r["wall_s"] for r in untraced])
        return elapsed() + est + extra <= min(seconds, RUN_CAP_S)

    while True:
        untraced.append(run_rep(binary, workload, seed, False))
        # A traced repetition costs about two untraced ones (tap + replays).
        reserve = 2.5 * median([r["wall_s"] for r in untraced]) if trace else 0
        if len(untraced) >= MIN_UNTRACED and not next_fits(reserve):
            break
        if elapsed() > RUN_CAP_S:
            break
    if trace:
        traced = run_rep(binary, workload, seed, True)
    return untraced, traced


def end_to_end(untraced):
    sim = untraced[0]["sim"]
    return {
        "host_pkts_per_s": median([pkts_per_s(r) for r in untraced]),
        "setup_s": median([setup_seconds(r) for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_kb"] / 1024.0 for r in untraced]),
        "sim_krps": sim["krps"],
        "sim_p50_ms": sim["p50_ms"],
        "sim_p99_ms": sim["p99_ms"],
    }


def per_layer(untraced, traced):
    counts = traced["counts"]
    sim = traced["sim"]
    host = traced["host"]
    values = dict(counts)
    values.update(host)
    values["sim.host_ns_per_event"] = median(
        [sum(calibrated(r["slice_s"], r["slice_calib_s"])) * 1e9 /
         r["counts"]["sim.events_executed"] for r in untraced])
    values["sim.cpu_per_wall"] = median([r["cpu_s"] / r["loop_s"] for r in untraced])
    values["sim.raw_pkts_per_s"] = median([raw_pkts_per_s(r) for r in untraced])
    values["sim.calib_slowdown"] = median(
        [c for r in untraced for c in r["slice_calib_s"]]) / CALIB_REF_S
    values["wl.error_frac"] = sim["error_frac"]
    values["sim_latency_samples"] = sim["latency_samples"]
    established = counts.get("fleet.established", 0)
    values["fleet.bytes_per_conn"] = (
        median([r["peak_rss_kb"] * 1024.0 for r in untraced]) / established
        if established else 0.0)
    for name in ("fleet.conntrack_flows", "fleet.frames_per_resp",
                 "fleet.no_backend_drops", "fleet.sim_recovery_ms",
                 "fleet.crash_lost_conns"):
        values.setdefault(name, 0.0)
    untraced_pps = median([pkts_per_s(r) for r in untraced])
    values["trace.overhead_frac"] = 1.0 - pkts_per_s(traced) / untraced_pps
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload}; one of {', '.join(WORKLOADS)}")
        return 2
    seed = args.seed if args.seed is not None else \
        WORKLOADS[args.workload]["default_seed"]

    binary = build()
    if binary is None:
        return 1
    try:
        untraced, traced = plan_and_run(binary, args.workload, seed,
                                        args.seconds, bool(args.trace))
        problems = []
        want = WORKLOADS["fig9_keepalive"]["paper_crosscheck"]["seed"]
        if args.workload == "fig9_keepalive" and (args.trace or seed == want):
            xcheck = untraced[0] if seed == want else \
                run_rep(binary, args.workload, want, False)
            problems += ["paper cross-check: " + p for p in crosscheck(xcheck)]
    except (RuntimeError, ValueError, KeyError) as e:
        log(str(e))
        return 1

    reps = untraced + ([traced] if traced else [])
    ref = untraced[0]
    for r in reps:
        tag = f"{'traced' if r['traced'] else 'untraced'} repetition"
        problems += [f"{tag}: {p}" for p in failed_checks(r)]
        for part in ("sim", "counts"):
            if r[part] != ref[part]:
                diff = sorted(k for k in set(r[part]) | set(ref[part])
                              if r[part].get(k) != ref[part].get(k))
                problems.append(f"{tag}: {part} not deterministic: {diff[:8]}")

    spec = GLOSSARY["per_layer"] if args.trace else GLOSSARY["end_to_end"]
    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        log("metrics missing: " + ", ".join(missing))
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}

    sim = ref["sim"]
    print(f"{args.workload} seed {seed}: {len(untraced)} untraced"
          f"{' + 1 traced' if traced else ''} repetitions, "
          f"{sum(r['wall_s'] for r in reps):.1f} s")
    print(f"  sim: {sim['krps']:.3f} krps, p50 {sim['p50_ms']:.4f} ms, "
          f"p99 {sim['p99_ms']:.4f} ms over {sim['latency_samples']:.0f} "
          f"samples ({sim['samples_beyond_p99']:.0f} beyond p99), "
          f"error_frac {sim['error_frac']:.3g}")
    print("  host_pkts_per_s per repetition (calibrated / raw): " +
          ", ".join(f"{pkts_per_s(r):.0f}/{raw_pkts_per_s(r):.0f}"
                    for r in untraced))
    for p in problems:
        print("  FAILED " + p)
    attempted = int(sum(r["sim"]["attempted"] for r in reps))
    failed = int(sum(r["sim"]["failed"] for r in reps))
    print(json.dumps({"correct": not problems, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
