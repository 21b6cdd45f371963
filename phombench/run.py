#!/usr/bin/env python3
"""Build and run the phombench benchmark (workloads and metrics: DESIGN.md).

One run, as the benchmark contract calls it, from the repository root:

    python3 phombench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark crate (cargo, release, offline; into $CARGO_TARGET_DIR,
default .bench_build) and runs one workload in a fresh process. The last
line of standard output is the result object.

Steadiness report:

    python3 phombench/run.py --report [--out FILE]

runs two sets of ten runs of every workload at BENCHMARK.json's
run_seconds, alternating workloads, each run with another seed (seeds
1-10, then 11-20). For every end-to-end metric it prints its sample count,
each run's value, the median and quartiles and the spread (Q3 - Q1) /
median against the metric's bound in BENCHMARK.json; for every latency
percentile the samples beyond it and the step check; and the second set's
medians against the first's. It then checks exact repeats: two untraced
and two traced runs of one seed must give identical quality means and
per-layer counts. The exit code is 1 when a run fails, an answer is wrong,
a spread or a median shift exceeds its bound, or a value that must repeat
did not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sharded-read", "live-mixed"]
RUNS = 10
SETS = 2


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def environment():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PHOMBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PHOMBENCH_GIT_REV"] = (
        command_output(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git"))
        else "unknown"
    )
    return env


def build(env):
    """Builds the benchmark; returns its binary, or exits non-zero."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if r.returncode != 0:
        print("phombench: build failed", file=sys.stderr)
        sys.exit(r.returncode or 1)
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "phombench")


def pin_to_one_cpu():
    """Pins this process, and so every run it starts, to one CPU.

    One closed-loop client needs one CPU. On a shared 2-vCPU host, waking
    a thread on the other, idle vCPU cost milliseconds at times: the
    router's and workers' hand-offs made the routed path's p99 and update
    p95 jump 2-4x in some runs, while the single-threaded paths stayed
    steady. Pinned, those hand-offs stay on one vCPU. The last CPU is
    taken: on a small VM the first one serves the network interrupts.
    Builds run unpinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(binary, env, workload, seed, seconds, trace):
    """One run in a fresh process; returns its parsed output lines."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {r.returncode}")
    out = {"result": json.loads(lines[-1]), "percentile": [], "exact": {}, "failed": []}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "percentile":
            out["percentile"].append(json.loads(rest))
        elif kind in ("meta", "samples", "exact"):
            out[kind] = json.loads(rest)
        elif kind == "failed":
            out["failed"].append(json.loads(rest))
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def report(out_path, binary, env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ok = True
    sets = []
    meta = None
    for s in range(SETS):
        runs = {w: [] for w in WORKLOADS}
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in WORKLOADS:
                out = run_once(binary, env, w, seed, seconds, 0)
                meta = meta or out.get("meta")
                res = out["result"]
                if not res["correct"] or res["failed"]:
                    ok = False
                    print(f"FAILED {w} seed {seed}: {out['failed']}")
                runs[w].append(out)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: done", file=sys.stderr)
        sets.append(runs)

    summary = {"meta": meta, "seconds": seconds, "runs": RUNS, "sets": []}
    for s, runs in enumerate(sets):
        set_summary = {}
        print(f"\n=== set {s + 1} ===")
        for w in WORKLOADS:
            print(f"\n{w}: {RUNS} runs, {seconds} s each")
            metrics = {}
            for name in runs[w][0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs[w]]
                unit = runs[w][0]["result"]["metrics"][name]["unit"]
                q1, med, q3, sp = spread(values)
                bound = bounds.get(name)
                flag = ""
                if bound is not None:
                    flag = "OVER BOUND" if sp > bound else ("noisy" if sp > bound / 3 else "ok")
                    ok = ok and sp <= bound
                samples = runs[w][0].get("samples", {}).get(name)
                print(f"  {name:16s} [{unit}] samples {samples} median {med:.6g} q1 {q1:.6g} "
                      f"q3 {q3:.6g} spread {sp:.4f} bound {bound} {flag}")
                print("    runs: " + " ".join(f"{v:.6g}" for v in values))
                metrics[name] = {"unit": unit, "values": values, "median": med,
                                 "q1": q1, "q3": q3, "spread": sp, "bound": bound}
            errors = [r["result"]["failed"] / r["result"]["attempted"] for r in runs[w]]
            print(f"  {'error_rate':16s} [ratio] max {max(errors):.6g} "
                  f"(failed / attempted ops; not a contract metric, it must be able to read 0)")
            metrics["error_rate"] = {"unit": "ratio", "values": errors}
            for p in runs[w][0]["percentile"]:
                name = p["metric"]
                steps = [q["step"] for r in runs[w] for q in r["percentile"] if q["metric"] == name]
                print(f"  {name:16s} samples {p['samples']} beyond {p['beyond']} "
                      f"step median {statistics.median(steps):.4f} max {max(steps):.4f}")
                metrics[name]["samples"] = p["samples"]
                metrics[name]["beyond"] = p["beyond"]
                metrics[name]["step_median"] = statistics.median(steps)
            set_summary[w] = metrics
        summary["sets"].append(set_summary)

    print("\n=== set 2 median vs set 1 ===")
    for w in WORKLOADS:
        for name, m1 in summary["sets"][0][w].items():
            if name not in bounds:
                continue
            m2 = summary["sets"][1][w][name]
            better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
            change = (m2["median"] - m1["median"]) / m1["median"] if m1["median"] else 0.0
            worse = change if better == "lower" else -change
            flag = "OVER BOUND" if worse > m1["bound"] else "ok"
            ok = ok and (worse <= m1["bound"])
            print(f"  {w:13s} {name:16s} {m1['median']:.6g} -> {m2['median']:.6g} "
                  f"({change:+.4f}) bound {m1['bound']} {flag}")

    print("\n=== exact repeats (seed 1, two runs each) ===")
    summary["exact_repeat"] = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            a = run_once(binary, env, w, 1, seconds, trace)
            b = run_once(binary, env, w, 1, seconds, trace)
            same = a["exact"] == b["exact"]
            ok = ok and same and a["result"]["correct"] and b["result"]["correct"]
            diff = {k: (a["exact"][k], b["exact"].get(k)) for k in a["exact"]
                    if a["exact"][k] != b["exact"].get(k)}
            print(f"  {w:13s} trace {trace}: {'identical' if same else 'EXACT-REPEAT FAILURE'} "
                  f"({len(a['exact'])} values){'' if same else ' ' + json.dumps(diff)}")
            summary["exact_repeat"][f"{w}/trace{trace}"] = {"identical": same, "values": a["exact"]}
            if trace == 1:
                summary.setdefault("per_layer", {})[w] = a["result"]["metrics"]
    if out_path:
        with open(out_path, "w") as f:
            json.dump(summary, f, indent=1)
    print("\nreport:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--report", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    env = environment()
    binary = build(env)
    pin_to_one_cpu()
    if args.report:
        return report(args.out, binary, env)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
