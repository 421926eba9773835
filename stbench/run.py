#!/usr/bin/env python3
"""End-to-end benchmark of the ST-TCP simulator.

    python3 stbench/run.py --workload {bulk,churn,blockstore,ring} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Builds stbench/ (and the simulator sources it
links) in Release mode under $CARGO_TARGET_DIR (default .bench_build), runs
the stbench binary for one workload and seed, gates the run on correctness
and determinism, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
README.md defines every metric and its clock.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk", "churn", "blockstore", "ring")
BINARY_TIMEOUT_S = 170

# End-to-end host times are rescaled to a reference machine speed: each
# episode also times a fixed calibration kernel (stbench.cc, calibrate()),
# and a host second counts as REF_CAL_S / (kernel's time in that episode)
# reference seconds.
REF_CAL_S = 0.025

# name -> unit, per metric family; README.md has the definitions.

END_TO_END_UNITS = {
    "ops_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "stall_ms": "ms",
    "goodput_mbps": "Mbit/s",
}
PER_LAYER_UNITS = {
    "sim.events_per_op": "count",
    "sim.ns_per_event": "ns",
    "sim.pending_peak": "count",
    "sim.trace_entries_per_op": "count",
    "sim.windows": "count",
    "sim.parallel_speedup": "ratio",
    "net.frames_per_op": "count",
    "net.wire_bytes_per_op": "bytes",
    "net.multicast_share": "ratio",
    "net.queue_delay_p50_us": "us",
    "net.queue_delay_p99_us": "us",
    "net.ns_per_switch_event": "ns",
    "net.router_frames_per_op": "count",
    "net.trunk_frames_per_op": "count",
    "net.frames_dropped": "count",
    "tcp.segments_per_op": "count",
    "tcp.demux_hit_ratio": "ratio",
    "tcp.retransmissions_per_op": "count",
    "tcp.conns_peak": "count",
    "tcp.ns_per_server_rx_event": "ns",
    "tcp.ns_per_client_rx_event": "ns",
    "sttcp.failover_ms": "ms",
    "sttcp.hb_per_sim_s": "1/s",
    "sttcp.hb_bytes_per_op": "bytes",
    "sttcp.ns_per_hb_event": "ns",
    "sttcp.decisions_per_request": "count",
    "sttcp.replication_delay_us": "us",
    "sttcp.hold_peak_bytes": "bytes",
    "app.cache_hit_ratio": "ratio",
    "harness.check_s": "s",
    "harness.cal_ms": "ms",
    "harness.trace_overhead_ns_per_event": "ns",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the stbench package; returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "stbench"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise SystemExit("stbench: build failed (%s)" % " ".join(cmd))
    return os.path.join(build_dir, "stbench")


def run_binary(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("stbench: binary timed out")
    if proc.returncode != 0:
        raise SystemExit("stbench: binary exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("stbench: binary printed nothing")
    return json.loads(lines[-1])


def same_seed_gate(store_path, key, outcome):
    """Two runs of one seed must agree on every simulated-time value.

    Outcomes are kept in the build directory, keyed by workload, seed and
    binary; returns the reason the gate fails, or None.
    """
    record = {k: v for k, v in outcome.items() if k != "violations"}
    seen = {}
    if os.path.exists(store_path):
        with open(store_path) as f:
            seen = json.load(f)
    if key in seen:
        if seen[key] != record:
            return "outcome differs from an earlier run of the same seed: %s vs %s" % (
                seen[key], record)
        return None
    seen[key] = record
    with open(store_path + ".tmp", "w") as f:
        json.dump(seen, f, sort_keys=True, indent=1)
    os.replace(store_path + ".tmp", store_path)
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result):
    out = result["outcome"]
    eps = result["episodes"]
    values = {
        "ops_per_ref_s": statistics.median(
            e["ops"] / e["run_s"] * e["cal_s"] / REF_CAL_S for e in eps),
        "setup_s": statistics.median(e["setup_s"] * REF_CAL_S / e["cal_s"] for e in eps),
        "peak_rss_mb": result["peak_rss_mb"],
        "lat_p50_ms": out["lat_p50_ms"],
        "lat_p99_ms": out["lat_p99_ms"],
        "stall_ms": out["stall_ms"],
        "goodput_mbps": out["goodput_mbps"],
    }
    return {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}


def per_layer(result):
    layers = result["layers"]
    return {k: metric(layers[k], u) for k, u in PER_LAYER_UNITS.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "stbench"))
    binary = build(build_dir)
    result = run_binary(binary, args)

    out = result["outcome"]
    problems = list(out["violations"])
    if not result["deterministic"]:
        problems.append("episodes of one seed disagree")
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:12]
    mismatch = same_seed_gate(os.path.join(build_dir, "outcomes.json"),
                              "%s:%d:%d:%s" % (args.workload, args.seed, args.trace, build_id),
                              out)
    if mismatch:
        problems.append(mismatch)
    eps = result.get("episodes", [out])
    attempted = sum(e["attempted"] for e in eps)
    failed = sum(e["failed"] for e in eps)
    if failed:
        problems.append("%d of %d operations failed" % (failed, attempted))
    metrics = per_layer(result) if args.trace else end_to_end(result)
    print("stbench workload=%s seed=%d trace=%d episodes=%d digest=%s sim_s=%.6f" % (
        args.workload, args.seed, args.trace, len(eps), out["digest"], out["sim_s"]))
    for problem in problems:
        print("FAIL: %s" % problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
