#!/usr/bin/env python3
"""Host-speed benchmark of the simulator: build, generate inputs, run.

    python3 simbench/run.py --workload <txn_storm|tail_rpc|fleet_rpc> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
`simbench` binary (and the simulator libraries it links) under
$CARGO_TARGET_DIR/simbench, default .bench_build/simbench. Every input is
generated here from --seed; the binary only reads the generated file. The
last line of stdout is the binary's JSON result. See simbench/README.md.
"""

import argparse
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# Claims of a speed-up must also hold on the held-out seed 9001; never tune
# against it. Each workload is one fixed point. The simulated window is
# fixed, so every rep of one seed simulates exactly the same thing.
WORKLOADS = {
    # fig5's peak point: Skylake-112, centralized_fifo global agent over 72
    # CPUs in fig5's fill order, two closed-loop workers per CPU.
    "txn_storm": {
        "cpus": 72, "workers_per_cpu": 2, "burst_ns": 10_000, "rewake_ns": 100,
        "start_jitter_ns": 20_000,
        "warmup_ms": 50, "window_ms": 100, "drain_ms": 1, "slice_us": 500,
    },
    # fig6's ghOSt-Shinjuku setup at the load knee: E5-24, 30 us timeslice,
    # 200 workers, open-loop Poisson at 240 kqps, 99.5% 10 us / 0.5% 10 ms.
    "tail_rpc": {
        "workers": 200, "timeslice_us": 30, "offered_kqps": 240,
        "short_ns": 10_000, "long_ns": 10_000_000, "p_long": 0.005, "long_block": 2000,
        "warmup_ms": 50, "window_ms": 500, "drain_ms": 50, "slice_us": 1000,
        "throughput_tolerance": 0.03,
    },
    # 32 machines x 4 CPUs, per_cpu_fifo agents, least_loaded balancer with
    # 2-way RPC fan-out, below the shed threshold, 4 worker threads.
    "fleet_rpc": {
        "jobs": 4, "machines": 32, "offered_kqps": 200, "service_mean_us": 50,
        "warmup_ms": 10, "measure_ms": 200, "drain_ms": 20,
        "throughput_tolerance": 0.05,
    },
}


def gen_txn_storm(seed, p):
    rng = random.Random(seed)
    workers = p["cpus"] * p["workers_per_cpu"]
    # Seeded start phases: each worker's first wake-up time.
    return [str(rng.randrange(p["start_jitter_ns"])) for _ in range(workers)]


def gen_tail_rpc(seed, p):
    rng = random.Random(seed)
    mean_gap_ns = 1e9 / (p["offered_kqps"] * 1e3)
    horizon_ns = (p["warmup_ms"] + p["window_ms"]) * 1_000_000
    # Every block of `long_block` arrivals holds exactly p_long of long
    # requests, at seeded positions. Independent draws let the number of
    # overlapping 10 ms requests, and with it p99, swing by about 40% between
    # seeds at this window length.
    block = p["long_block"]
    per_block = round(block * p["p_long"])
    lines = []
    t = 0
    longs = set()
    while True:
        t += max(1, int(rng.expovariate(1.0 / mean_gap_ns)))
        if t >= horizon_ns:
            return lines
        i = len(lines)
        if i % block == 0:
            longs = set(i + k for k in rng.sample(range(block), per_block))
        service = p["long_ns"] if i in longs else p["short_ns"]
        lines.append(f"{t} {service}")


def gen_fleet_rpc(seed, p):
    load_ms = p["warmup_ms"] + p["measure_ms"]
    spec = {
        "name": "simbench_fleet_rpc",
        "description": "simbench fleet_rpc: per_cpu_fifo fleet, 2-way fan-out",
        "seed": seed,
        "warmup_ms": p["warmup_ms"], "measure_ms": p["measure_ms"],
        "drain_ms": p["drain_ms"],
        "topology": {"preset": "custom", "sockets": 1, "cores_per_socket": 2,
                     "smt": 2, "cores_per_ccx": 2},
        "policy": {"kind": "per_cpu_fifo"},
        "enclave": {"cpu_first": 1},
        "workload": {
            "kind": "request_service", "num_workers": 24,
            "service": {"model": "exponential", "mean_us": p["service_mean_us"]},
            # Load stops at the end of the measure window; the drain lets
            # every request finish.
            "phases": [{"duration_ms": load_ms, "qps": p["offered_kqps"] * 1000}],
        },
        "fleet": {
            "machines": p["machines"], "sessions": 1024, "rpc_fanout": 2,
            "balancer": {"policy": "least_loaded", "shed_outstanding": 48},
            "network": {"latency_us": 50, "bandwidth_gbps": 10,
                        "request_bytes": 1500, "response_bytes": 4096},
        },
    }
    p = dict(p, load_ms=load_ms)
    return p, [json.dumps(spec, indent=1)]


def write_input(path, workload, seed):
    p = dict(WORKLOADS[workload], workload=workload, seed=seed)
    if workload == "fleet_rpc":
        p, body = gen_fleet_rpc(seed, p)
    elif workload == "tail_rpc":
        body = gen_tail_rpc(seed, p)
    else:
        body = gen_txn_storm(seed, p)
    with open(path, "w") as f:
        f.write(json.dumps(p) + "\n")
        f.write("\n".join(body) + "\n")


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        sys.exit("simbench: simulator sources (src/) not found; run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "simbench", "-j4"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line must be the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("simbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        sys.exit("simbench: --seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "simbench"))
    binary = build(build_dir)

    for sub in ("inputs", "traces"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    input_path = os.path.join(build_dir, "inputs", f"{args.workload}-seed{args.seed}.txt")
    write_input(input_path, args.workload, args.seed)
    trace_path = os.path.join(build_dir, "traces",
                              f"{args.workload}-seed{args.seed}.trace.json")

    cmd = [binary, "--input", input_path, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.exit(f"simbench: {args.workload} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        print(f"trace written to {os.path.relpath(trace_path)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
