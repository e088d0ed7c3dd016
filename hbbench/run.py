#!/usr/bin/env python3
"""Build the hbbench driver from source and run one benchmark workload.

    python3 hbbench/run.py --workload sf_uniform --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository. The driver and the
hbnet library are built (CMake, Release) into .bench_build/hbbench at the
checkout root on first use and rebuilt incrementally after. The last line of
standard output is the result object:

    {"correct": true, "attempted": A, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 every
per-layer metric: the workload must emit each metric of LAYER_METRICS, and
a per-layer metric of a layer it does not exercise reads 0 (see
hbbench/README.md). Exits non-zero, printing no result, when the build
fails, an output check fails or a metric is missing.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hbbench"
TRACES = ROOT / ".bench_build" / "traces"
# The per-layer metrics each workload's traced run measures; every other
# per-layer metric of BENCHMARK.json reads 0 for it.
LAYER_METRICS = {
    "sf_uniform": (
        "sim.sharded.call_s", "sim.sharded.cycles", "sim.sharded.packet_hops",
        "sim.sharded.ns_per_packet_hop", "sim.sharded.ns_per_node_cycle",
        "sim.hb_route.ns_per_plan", "sim.hb_route.ns_per_hop",
        "distsim.exchange.ns_per_msg", "distsim.shards", "par.dispatch_us",
        "par.speedup.sf_uniform", "par.efficiency.sf_uniform",
        "core.hyper_butterfly.build_s", "obs.trace_overhead_frac.sf_uniform",
        "obs.sink_overhead_frac.sf_uniform", "sim.link_util_max",
        "sim.link_util_mean", "sim.latency_p50_cycles",
        "sim.latency_p99_cycles"),
    "campaign_faults": (
        "par.dispatch_us", "par.speedup.campaign_faults",
        "par.efficiency.campaign_faults", "sim.route_avoiding.us_per_call",
        "core.route_around_faults.us_per_call",
        "core.route_around_faults.calls",
        "core.route_around_faults.paths_tried_per_call",
        "core.disjoint_paths.us_per_call", "core.hyper_butterfly.build_s",
        "campaign.enumerate_s", "campaign.adversarial_ranking_s",
        "campaign.run_s", "campaign.trials_per_s", "campaign.trial_s_p50",
        "campaign.trial_s_max", "campaign.trial_imbalance",
        "campaign.faulted_time_share", "campaign.write_csv_s",
        "sim.topology.build_s", "obs.trace_overhead_frac.campaign_faults",
        "sim.latency_p50_cycles", "sim.latency_p99_cycles",
        "sim.wormhole.call_s", "sim.wormhole.cycles",
        "sim.wormhole.ns_per_flit_hop", "sim.wormhole.misroutes",
        "sim.wormhole.escape_hop_share", "sim.wormhole.unroutable",
        "sim.wormhole.deadlocks", "sim.wormhole.lost_packets",
        "obs.sink_overhead_frac.wormhole"),
    "kappa_exact": (
        "par.dispatch_us", "par.speedup.kappa_exact",
        "par.efficiency.kappa_exact", "graph.sweep.call_s",
        "graph.sweep.solves", "graph.sweep.pruned", "graph.sweep.blocks",
        "graph.sweep.ms_per_solve", "graph.sweep.prune_ratio",
        "graph.sparsify.cert_edges", "graph.sparsify.arena_arcs_peak",
        "graph.sparsify.build_ms", "graph.maxflow.ms_per_pair",
        "topology.hb_implicit.ns_per_neighbor", "topology.orbit_targets",
        "obs.trace_overhead_frac.kappa_exact"),
}
RUN_TIMEOUT_S = 170
SOURCE_SUFFIXES = (".cpp", ".hpp", ".txt", ".py")


def fail(msg):
    print(f"hbbench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"hbnet sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc()),
                  "--target", "hbbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "hbbench"


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (an enclosing repository's HEAD would name other code)."""
    try:
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = r.stdout.split()
    if r.returncode or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown"
    return out[1]


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in SOURCE_SUFFIXES:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def catalog(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(result, workload, trace):
    """Checks the driver's metrics against BENCHMARK.json and the workload's
    own list; in a traced run adds, as 0, the per-layer metrics of layers
    this workload does not exercise."""
    want = catalog(trace)
    got = result["metrics"]
    for name, m in got.items():
        if want.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not in BENCHMARK.json")
    own = set(LAYER_METRICS[workload]) if trace else set(want)
    if set(got) != own:
        fail(f"{workload}: metrics missing {sorted(own - set(got))}, "
             f"unexpected {sorted(set(got) - own)}")
    for name, unit in want.items():
        got.setdefault(name, {"value": 0, "unit": unit})
    result["metrics"] = {name: got[name] for name in want}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(LAYER_METRICS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(TRACES), "--commit", git_commit(),
           "--source-digest", source_digest()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"{args.workload} failed (exit {r.returncode})")
    print("\n".join(lines[:-1]))
    result = complete(json.loads(lines[-1]), args.workload, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
