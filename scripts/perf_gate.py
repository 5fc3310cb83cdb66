#!/usr/bin/env python3
"""The performance gate: perfbench's workloads and three Bechamel rows.

    python3 scripts/perf_gate.py

Takes no options. Run it from anywhere inside a source checkout. It

1. runs every BENCHMARK.json workload once through
   `perfbench/run.py --trace 0` at the spec's run_seconds, and fails on
   a non-zero exit, on "correct": false (a pinned output moved: shrink
   sizes, fleet and chaos-block digests, explore and pipeline pins), or
   on a calibrated work_per_s more than BENCHMARK.json's bound below the
   median recorded in scripts/perf_baseline.json;
2. runs bench/main.exe's table and fails when the raw 3x4 walk exceeds
   its factor over the recorded figure, when the flight recorder's
   on/off ratio on that walk exceeds its limit, or when one sound chaos
   run allocates more minor words than its ceiling.

It prints one line per check and writes the same report to
perf-gate.txt at the root of the checkout. Exit status: 0 when every
check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "scripts", "perf_baseline.json")
REPORT = os.path.join(ROOT, "perf-gate.txt")
BENCH_EXE = os.path.join(ROOT, "_build", "default", "bench", "main.exe")
SEED = 1

RAW_ROW = "bounded-registers/explore-3x4(raw-undo)"
RECORDER_OFF_ROW = "bounded-registers/explore-3x4(raw-undo,recorder-off)"
CHAOS_ROW = "bounded-registers/chaos-run(sound,n=4)"

# One line of bench/main.exe's table: name, time with its unit, minor words.
BENCH_LINE = re.compile(
    r"^\s+(\S+)\s+([0-9.]+) (ns|us|ms)/call\s+([0-9.]+) mw/call$")
NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6}

lines = []
failures = []


def say(line):
    print(line, flush=True)
    lines.append(line)


def check(name, ok, detail):
    say(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if not ok:
        failures.append(name)


def load(path):
    with open(path) as f:
        return json.load(f)


def perfbench(spec, baseline):
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "work_per_s")
    for w in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", w, "--seed", str(SEED),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.strip().splitlines()
        for line in out[:-1]:
            if "MISMATCH" in line:
                say(f"      {w}: {line.strip()}")
        try:
            result = json.loads(out[-1])
        except (IndexError, ValueError):
            result = None
        check(f"{w} exit", proc.returncode == 0 and result is not None,
              f"run.py exited with code {proc.returncode}")
        if result is None:
            continue
        check(f"{w} pins", result["correct"] is True,
              f"{result['failed']} pinned-output mismatches in "
              f"{result['attempted']} checks")
        got = result["metrics"]["work_per_s"]["value"]
        base = baseline["work_per_s"][w]
        floor = base * (1 - bound)
        check(f"{w} work_per_s", got >= floor,
              f"{got:,.0f}/s against baseline {base:,.0f}/s "
              f"(floor {floor:,.0f}/s, bound {bound:.0%})")


def bechamel(limits):
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bench/main.exe"], cwd=ROOT)
    if build.returncode != 0:
        check("bench/main.exe build", False,
              f"dune exited with code {build.returncode}")
        return
    proc = subprocess.run([BENCH_EXE], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    rows = {}
    for line in proc.stdout.splitlines():
        m = BENCH_LINE.match(line)
        if m:
            rows[m[1]] = (float(m[2]) * NS_PER[m[3]], float(m[4]))
    missing = [r for r in (RAW_ROW, RECORDER_OFF_ROW, CHAOS_ROW)
               if r not in rows]
    check("bench/main.exe table", proc.returncode == 0 and not missing,
          f"exit {proc.returncode}, missing rows {missing}")
    if missing:
        return
    raw_ns, off_ns = rows[RAW_ROW][0], rows[RECORDER_OFF_ROW][0]
    limit = limits["raw_factor"] * limits["raw_ns_per_call"]
    check("raw 3x4 walk", raw_ns <= limit,
          f"{raw_ns / 1e6:.2f} ms/call, limit {limit / 1e6:.2f} ms "
          f"({limits['raw_factor']}x {limits['raw_ns_per_call'] / 1e6:.2f} ms)")
    ratio = raw_ns / off_ns
    check("recorder on/off", ratio <= limits["recorder_ratio"],
          f"{ratio:.3f} (on {raw_ns / 1e6:.2f} ms, off {off_ns / 1e6:.2f} ms), "
          f"limit {limits['recorder_ratio']}")
    words = rows[CHAOS_ROW][1]
    check("sound chaos run allocation",
          words <= limits["chaos_minor_words"],
          f"{words:.0f} minor words/call, ceiling "
          f"{limits['chaos_minor_words']:.0f}")


def main():
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    baseline = load(BASELINE)
    say(f"perf gate: baseline from {baseline['host']}")
    perfbench(spec, baseline)
    bechamel(baseline["bechamel"])
    say(f"perf gate: {len(failures)} failed"
        + (f" ({', '.join(failures)})" if failures else ""))
    with open(REPORT, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
