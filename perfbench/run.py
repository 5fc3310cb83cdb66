#!/usr/bin/env python3
"""Build and run the simulator benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--reps 10] [--seconds S] [--workloads a,b]

A run builds perfbench/perfbench.exe with dune (the first build compiles
the libraries it links), runs it in a scratch directory under
.bench_work/, and prints its report. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones, and the run fails if they differ.

--selftest runs two sets of runs of the same tree, every workload
--reps times per set with a different seed each time, alternating the
workload order, and prints each end-to-end metric's quartile spread per
set and the drift of its median between sets, flagging every
metric/workload pair outside BENCHMARK.json's bounds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def build():
    """Compile the benchmark and the libraries it links; exit on failure."""
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: not a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)


def loadavg():
    try:
        return "%.2f %.2f %.2f" % os.getloadavg()
    except OSError:
        return "unknown"


def run_once(workload, seed, seconds, trace):
    """One measured run: returns (human lines, result dict)."""
    os.makedirs(WORK, exist_ok=True)
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(WORK, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    load_start = loadavg()
    cmd += ["--spawned-at", "%.6f" % time.time()]
    proc = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT} s", 1)
    shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"{workload} exited with code {proc.returncode}", 1)
    result = json.loads(lines[-1])
    lines = lines[:-1] + [
        f"  nproc {os.cpu_count()}; load average {load_start} at start, "
        f"{loadavg()} at end"]
    return lines, result


def check_metrics(result, trace):
    """The run must report exactly the metrics BENCHMARK.json declares."""
    spec = load_spec()
    if spec is None:
        return
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}", 1)


def measure(args):
    build()
    lines, result = run_once(args.workload, args.seed, args.seconds,
                             args.trace)
    check_metrics(result, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))


def spread(values):
    """Quartile distance as a share of the median (the acceptance rule)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0, statistics.median(values)


def selftest(args):
    spec = load_spec()
    if spec is None:
        fail("BENCHMARK.json not found")
    build()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    results = {}  # (set, workload) -> list of metric dicts
    for s in (0, 1):
        for rep in range(args.reps):
            order = workloads if rep % 2 == 0 else workloads[::-1]
            for w in order:
                seed = 1 + 1000 * s + rep
                _, r = run_once(w, seed, seconds, 0)
                if not r["correct"]:
                    print(f"set {s} {w} seed {seed}: INCORRECT", flush=True)
                results.setdefault((s, w), []).append(
                    {k: v["value"] for k, v in r["metrics"].items()})
                print(f"set {s} rep {rep} {w} seed {seed}: " + ", ".join(
                    "%s=%.4g" % (k, v["value"])
                    for k, v in r["metrics"].items()), flush=True)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "selftest.json"), "w") as f:
        json.dump({f"{s}/{w}": v for (s, w), v in results.items()}, f)
    outside = []
    print("\nworkload             metric          bound  spread1 spread2  "
          "median1      median2      drift")
    for w in workloads:
        for name, (bound, better) in bounds.items():
            (s1, m1), (s2, m2) = (
                spread([r[name] for r in results[(s, w)]]) for s in (0, 1))
            drift = (m2 - m1) / m1 if m1 else 0.0
            worse = drift if better == "lower" else -drift
            flags = []
            if name != "setup_s" and max(s1, s2) > bound:
                flags.append("spread")
            if worse > bound:
                flags.append("drift")
            if flags:
                outside.append((w, name, flags))
            print(f"{w:20} {name:14} {bound:5.2f}  {s1:6.3f}  {s2:6.3f}  "
                  f"{m1:11.5g}  {m2:11.5g}  {drift:+6.3f} {' '.join(flags)}")
    if outside:
        print("\noutside the bounds:")
        for w, name, flags in outside:
            print(f"  {w} {name}: {', '.join(flags)}")
        sys.exit(1)
    print("\nevery metric/workload pair is within its bound")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--workloads")
    args = p.parse_args()
    if args.selftest:
        selftest(args)
        return
    if not args.workload or args.seconds is None:
        fail("--workload and --seconds are required")
    measure(args)


if __name__ == "__main__":
    main()
