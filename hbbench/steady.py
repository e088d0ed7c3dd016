#!/usr/bin/env python3
"""Steadiness self-check and result comparison for the hbbench benchmark.

    python3 hbbench/steady.py check [--runs 10] [--out results.json]
    python3 hbbench/steady.py compare first.json second.json

`check` runs every workload --runs times, with seeds 1..runs, for
BENCHMARK.json's run_seconds each, and prints for each end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. A spread
above a third of the bound is marked "wide", above the bound "UNSTEADY".
With --out it also saves every result and manifest.

`compare` pairs two saved check results workload by workload and prints each
end-to-end metric's median change against its bound, marked WORSE or BETTER
when it exceeds the bound, and the change of the host calibration loop
(host_cal_s) beside it. It exits 1 when any metric moved by more than its
bound in either direction: two sets of the same code must agree, and for a
before/after pair a BETTER line is a gain larger than the bound. It refuses
to pair results whose build type, HBNET_CHECKS setting or thread count
differ.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
# Manifest fields that must match before two results may be compared.
PAIRING_KEYS = ("build_type", "hbnet_checks", "threads")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {r.returncode}):\n"
                 f"{r.stderr[-2000:]}")
    manifest = next(json.loads(l)["manifest"] for l in lines
                    if l.startswith('{"manifest"'))
    return {"seed": seed, "manifest": manifest, "result": json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_median(runs, name):
    return statistics.median(r["result"]["metrics"][name]["value"]
                             for r in runs)


def manifest_median(runs, key):
    return statistics.median(r["manifest"][key] for r in runs)


def check(args):
    seconds = SPEC["run_seconds"]
    saved = {}
    for w in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(w, seed, seconds))
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in runs[-1]["result"]["metrics"].items()),
                file=sys.stderr, flush=True)
        saved[w] = runs
        steal = manifest_median(runs, "host_steal_frac")
        cal = manifest_median(runs, "host_cal_s")
        print(f"\n{w}: {args.runs} runs, seeds 1..{args.runs}, {seconds} s "
              f"each, median host steal {steal:.1%}, host_cal_s {cal:.4f}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for name, spec in BOUNDS.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            b = spec["bound"]
            verdict = "ok" if s <= b / 3 else "wide" if s <= b else "UNSTEADY"
            print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{s:>9.4f}{b:>7.3f}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1))


def compare(args):
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    for w in sorted(set(a) & set(b)):
        for key in PAIRING_KEYS:
            va = {r["manifest"][key] for r in a[w]}
            vb = {r["manifest"][key] for r in b[w]}
            if len(va | vb) != 1:
                sys.exit(f"refusing to compare {w}: {key} differs "
                         f"({sorted(map(str, va))} vs {sorted(map(str, vb))})")

    moved = False
    for w in sorted(set(a) & set(b)):
        digests = {r["manifest"]["source_digest"] for r in a[w] + b[w]}
        code = "same code" if len(digests) == 1 else "code differs"
        ca = manifest_median(a[w], "host_cal_s")
        cb = manifest_median(b[w], "host_cal_s")
        print(f"\n{w} ({code}; host_cal_s {ca:.4f} -> {cb:.4f}, "
              f"{(cb - ca) / ca:+.4f})")
        for name, spec in BOUNDS.items():
            ma, mb = metric_median(a[w], name), metric_median(b[w], name)
            change = (mb - ma) / ma if ma else 0.0
            loss = change if spec["better"] == "lower" else -change
            flag = ("WORSE" if loss > spec["bound"] else
                    "BETTER" if -loss > spec["bound"] else "")
            moved = moved or bool(flag)
            print(f"  {name:<14}{ma:>14.6g}{mb:>14.6g}{change:>+9.4f}"
                  f"{spec['bound']:>7.3f}  {flag}")
    sys.exit(1 if moved else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("check")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--out", default="")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = ap.parse_args()
    check(args) if args.cmd == "check" else compare(args)


if __name__ == "__main__":
    main()
