#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
# Usage: ./check.sh [--quick]
#   --quick  CI-friendly subset: skip `dune runtest`'s slow cases via a
#            reduced chaos smoke and run the experiment suite under tight
#            supervision budgets (--deadline/--max-states), exercising the
#            graceful-degradation path instead of the full state spaces.
set -eu
cd "$(dirname "$0")"

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: ./check.sh [--quick]" >&2; exit 2 ;;
  esac
done

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not available)"
fi

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

# Chaos smoke: the sound quorum must survive a quick seeded campaign, and
# the published frontier seed must still find (and shrink) the E13-style
# atomicity violation. --expect makes a mismatch a non-zero exit. Both
# shrink lines are pinned: ddmin must reach the published witness in the
# published number of probes (memoized probes count, they just do not
# replay).
echo "== chaos smoke"
expect_shrink() {
  want=$1; shift
  out=$(dune exec bin/boundedreg.exe -- "$@")
  printf '%s\n' "$out"
  if ! printf '%s\n' "$out" | grep -qF "$want"; then
    echo "check.sh: $* did not print '$want'" >&2
    exit 1
  fi
}
if [ "$QUICK" = 1 ]; then
  dune exec bin/boundedreg.exe -- chaos --runs 5 --seed 1 --expect pass
else
  dune exec bin/boundedreg.exe -- chaos --runs 20 --seed 1 --expect pass
fi
expect_shrink 'shrunk 23 (19 deliveries, 1746 replays)' \
  chaos --frontier --runs 1 --seed 127 --expect violation

# Churn smoke: the dynamic-membership emulation (lib/msgpass/dynreg.ml).
# A sound churn campaign — slack covers the churn rate — must stay
# linearizable on every seeded run; the churn-frontier preset
# (above-bound churn, unwidened quorums) must find and shrink the
# stale-read counterexample. Seed 29 is the published first violating
# seed, inside the 40-run sweep from seed 1.
echo "== churn smoke"
if [ "$QUICK" = 1 ]; then
  dune exec bin/boundedreg.exe -- chaos --churn --runs 10 --seed 1 --expect pass
else
  dune exec bin/boundedreg.exe -- chaos --churn --runs 50 --seed 1 --expect pass
fi
expect_shrink 'shrunk 50 (35 deliveries, 5097 replays)' \
  chaos --churn-frontier --runs 40 --seed 1 --expect violation

# Trace replay smoke: the seed in a run's chaos.run trace instant is its
# replay handle. Trace a frontier campaign, take the seed of the first
# instant that says nonlinearizable (127 for this sweep) and run that
# seed alone: it must find and shrink the same published witness.
echo "== chaos trace replay smoke"
replay_trace=$(mktemp)
dune exec bin/boundedreg.exe -- chaos --frontier --runs 5 --seed 123 \
  --expect violation --trace "$replay_trace" > /dev/null
replay_seed=$(grep '"name":"chaos.run"' "$replay_trace" \
  | grep '"verdict":"nonlinearizable"' | head -n 1 \
  | sed -n 's/.*"seed":\([0-9][0-9]*\).*/\1/p')
rm -f "$replay_trace"
if [ -z "$replay_seed" ]; then
  echo "check.sh: no nonlinearizable chaos.run instant in the traced sweep" >&2
  exit 1
fi
expect_shrink 'shrunk 23 (19 deliveries, 1746 replays)' \
  chaos --frontier --runs 1 --seed "$replay_seed" --expect violation

# Pipeline smoke: Theorem 1.3's compiled protocol over 6-bit registers
# (n=3, t=1) must reproduce seed 31's decisions and per-process step
# counts exactly. ~927k steps per process: it runs in about half a
# second on a 2-core x86-64 host, because pipeline programs compile to
# constant-size stateful code and a step allocates ~24 minor words.
echo "== pipeline smoke"
pipeline_got=$(dune exec bin/boundedreg.exe -- pipeline --seed 31 | grep '^process')
pipeline_want='process 0: decides 1/2 after 927080 steps
process 1: decides 1/2 after 926570 steps
process 2: decides 1/2 after 926223 steps'
if [ "$pipeline_got" != "$pipeline_want" ]; then
  printf 'check.sh: pipeline --seed 31 drifted:\n%s\n' "$pipeline_got" >&2
  exit 1
fi

# Iterated-models pin: the tables of the experiments that run the IIS/IC
# round engine (Theorem 1.4, Propositions 7.1-7.2, Figures 1 and 4-6) must
# stay byte-identical. The supervisor rows carry wall times, so they are
# dropped before hashing (md5 measured with OCaml 5.1.1).
echo "== iterated experiments pin"
iterated_md5=$(dune exec bin/boundedreg.exe -- run E1 E6 E7 E8 E10 E12 \
  | grep -v -E '^  E[0-9]+ +[a-z0-9.-]+ +pass +[0-9.]+s' | md5sum \
  | cut -d' ' -f1)
if [ "$iterated_md5" != b88940d99fc695e6d4bcbe58c1f900ff ]; then
  echo "check.sh: iterated experiment tables drifted: md5 $iterated_md5" >&2
  exit 1
fi

# Trace smoke: a budgeted exploration captured to JSONL must validate —
# parseable events, balanced spans — via the trace summarizer, which then
# prints the health report's Events and Span rollups sections; metrics go
# to a JSON file CI archives. Runs in both modes (it is a fraction of a
# second) and leaves ci-smoke.trace.jsonl / ci-metrics.json behind for
# the artifact upload step.
echo "== trace smoke"
dune exec bin/boundedreg.exe -- explore -k 2 --max-nodes 2000 \
  --trace ci-smoke.trace.jsonl --metrics ci-metrics.json
summary=$(dune exec bin/boundedreg.exe -- trace summary ci-smoke.trace.jsonl)
printf '%s\n' "$summary"
if ! printf '%s\n' "$summary" | grep -q '^## Span rollups$'; then
  echo "check.sh: trace summary printed no Span rollups section" >&2
  exit 1
fi

# Trace-size smoke: a traced run is sized by what it says. The scheduler
# records its steps in Sched.Trace only, so a traced `run E2 E11` holds
# the experiments', explorations' and harness checks' spans (74,199
# events, ~11.6 MB) and no per-step event, whose cost grows with the
# step count (an event per step is ~6x that). It must validate and stay
# within 12 MB.
echo "== trace size smoke"
size_trace=$(mktemp)
dune exec bin/boundedreg.exe -- run E2 E11 --trace "$size_trace" > /dev/null
dune exec bin/boundedreg.exe -- trace summary "$size_trace" > /dev/null
size_bytes=$(wc -c < "$size_trace")
rm -f "$size_trace"
if [ "$size_bytes" -gt 12000000 ]; then
  echo "check.sh: traced run E2 E11 wrote $size_bytes bytes (> 12 MB)" >&2
  exit 1
fi

# Report smoke: the health-report renderer must consume the trace and
# metrics the step above just wrote. Both renderings are CI artifacts.
echo "== report smoke"
dune exec bin/boundedreg.exe -- report ci-smoke.trace.jsonl \
  --metrics ci-metrics.json -o ci-report.md
dune exec bin/boundedreg.exe -- report ci-smoke.trace.jsonl \
  --metrics ci-metrics.json --html -o ci-report.html
grep -q "boundedreg health report" ci-report.md

# Trace-memory smoke: `trace summary` and `report` fold a trace as they
# read it, so their peak resident set must not grow with the file. The
# 100-generation churn fleet writes 355,421 events, ~36 MB in each
# encoding; both readers must stay under 50 MB on both (a reader that
# holds the whole file peaks at 154 MB on the JSONL and 404 MB on the
# catapult array). scripts/peak_rss.py polls /proc/<pid>/status for
# VmHWM, so it runs the built binary, not `dune exec`.
echo "== trace memory smoke"
exe=_build/default/bin/boundedreg.exe
trace_mem=$(mktemp -d)
trap 'rm -rf "$trace_mem"' EXIT
"$exe" fleet --churn --generations 100 --seed 1 \
  --trace "$trace_mem/churn.jsonl" > /dev/null
"$exe" fleet --churn --generations 100 --seed 1 \
  --trace "$trace_mem/churn.json" --trace-format catapult > /dev/null
for t in "$trace_mem/churn.jsonl" "$trace_mem/churn.json"; do
  python3 scripts/peak_rss.py 50 "$exe" trace summary "$t" > /dev/null
  python3 scripts/peak_rss.py 50 "$exe" report "$t" > /dev/null
done
rm -rf "$trace_mem"

# Checkpoint smoke: a node-capped exploration writes its frontier, and
# chained --resume runs finish it. The checkpoint (like --metrics and
# report -o) is written to FILE.tmp and renamed into place, so no .tmp
# may survive a run.
echo "== checkpoint smoke"
ckpt_dir=$(mktemp -d)
dune exec bin/boundedreg.exe -- explore -k 3 --max-nodes 400 \
  --checkpoint "$ckpt_dir/ckpt" | grep -q '^outcome: exhausted'
resumes=0
until dune exec bin/boundedreg.exe -- explore -k 3 --max-nodes 400 \
  --resume --checkpoint "$ckpt_dir/ckpt" | grep -q '^outcome: complete'; do
  resumes=$((resumes + 1))
  if [ "$resumes" -ge 50 ]; then
    echo "check.sh: checkpoint resume did not complete in 50 runs" >&2
    exit 1
  fi
done
if ls "$ckpt_dir"/*.tmp ./*.tmp 2>/dev/null | grep -q .; then
  echo "check.sh: a .tmp file survived a checkpoint/report/metrics write" >&2
  exit 1
fi
# A hand-edited checkpoint that parses but names pid 99 must be refused
# with the position of the bad choice and exit 1, not die inside the
# engine (an uncaught exception exits 125).
printf 's0 s99\n' > "$ckpt_dir/hostile"
status=0
hostile_err=$(dune exec bin/boundedreg.exe -- explore -k 3 --resume \
  --checkpoint "$ckpt_dir/hostile" 2>&1 >/dev/null) || status=$?
if [ "$status" != 1 ] || ! printf '%s\n' "$hostile_err" \
  | grep -qF 'resume path 1, choice 2: pid 99 outside 0..1'; then
  printf 'check.sh: hostile checkpoint: exit %s, stderr:\n%s\n' \
    "$status" "$hostile_err" >&2
  exit 1
fi
# The same bad line after 22 real paths is named by its own line number
# at any pool width (Sched.Par splits the checkpoint into units).
dune exec bin/boundedreg.exe -- explore -k 4 --max-crashes 1 --max-nodes 100 \
  --checkpoint "$ckpt_dir/k4" > /dev/null
printf 's0 s99\n' >> "$ckpt_dir/k4"
for jobs in 1 2; do
  status=0
  hostile_err=$(dune exec bin/boundedreg.exe -- explore -k 4 --max-crashes 1 \
    --resume --checkpoint "$ckpt_dir/k4" --jobs "$jobs" 2>&1 >/dev/null) \
    || status=$?
  if [ "$status" != 1 ] || ! printf '%s\n' "$hostile_err" \
    | grep -qF 'resume path 23, choice 2: pid 99 outside 0..1'; then
    printf 'check.sh: hostile line 23 at --jobs %s: exit %s, stderr:\n%s\n' \
      "$jobs" "$status" "$hostile_err" >&2
    exit 1
  fi
done
# A node-capped parallel run admits unit results in unit-index order, so
# its stdout and checkpoint are the same run after run, and the resume
# chain still visits every terminal of the raw crash tree once.
capped() {
  dune exec bin/boundedreg.exe -- explore -k 2 --max-crashes 1 \
    --max-nodes 700 --no-dedup --no-por --jobs 2 \
    --checkpoint "$ckpt_dir/cap" "$@"
}
capped > "$ckpt_dir/cap.out"
cp "$ckpt_dir/cap" "$ckpt_dir/cap.first"
for run in 2 3 4; do
  capped > "$ckpt_dir/cap.again"
  if ! cmp -s "$ckpt_dir/cap.out" "$ckpt_dir/cap.again" \
    || ! cmp -s "$ckpt_dir/cap" "$ckpt_dir/cap.first"; then
    echo "check.sh: capped --jobs 2 explore run $run differs from run 1" >&2
    diff "$ckpt_dir/cap.out" "$ckpt_dir/cap.again" >&2 || true
    exit 1
  fi
done
terminals=0
resumes=0
while :; do
  t=$(sed -n 's/.*terminals=\([0-9]*\).*/\1/p' "$ckpt_dir/cap.out")
  terminals=$((terminals + t))
  grep -q '^outcome: exhausted' "$ckpt_dir/cap.out" || break
  resumes=$((resumes + 1))
  if [ "$resumes" -ge 50 ]; then
    echo "check.sh: capped resume chain did not complete in 50 runs" >&2
    exit 1
  fi
  capped --resume > "$ckpt_dir/cap.out"
done
if [ "$terminals" != 6232 ]; then
  echo "check.sh: capped resume chain visited $terminals terminals," \
    "not 6232" >&2
  exit 1
fi
rm -rf "$ckpt_dir"

# Supervised smoke: experiments under a tight per-experiment budget.
# They degrade to sampled coverage (or skip rows) rather than blowing
# the clock; crashes and hangs still exit 1. --quick runs the whole
# registry; the full gate runs E5, the one experiment whose checks are
# long random runs rather than explorations, which must stop at its
# deadline instead of being killed by the watchdog.
echo "== supervised experiment smoke (budgeted)"
if [ "$QUICK" = 1 ]; then
  dune exec bin/boundedreg.exe -- run all --deadline 10 --max-states 20000
else
  dune exec bin/boundedreg.exe -- run E5 --deadline 10 --max-states 20000
fi

# Explore pins: the exact stats and terminal digest of a reduced crashy
# exploration (the general walk, undoing through Scheduler.branch) and of
# the raw tree (the fused Scheduler.raw_dfs). The jobs diff below compares
# two runs of one build, so an undo bug both share would pass it.
echo "== explore pins"
explore_pin() {
  stats=$1; digest=$2; shift 2
  out=$(dune exec bin/boundedreg.exe -- explore "$@")
  printf '%s\n' "$out"
  for want in "$stats" "$digest"; do
    if ! printf '%s\n' "$out" | grep -qF "$want"; then
      echo "check.sh: explore $* did not print '$want'" >&2
      exit 1
    fi
  done
}
explore_pin \
  'nodes=486 terminals=35 deduped=186 pruned=175 truncated=0 peak_depth=18' \
  'digest=0x7ef1d5ff' -k 3 --max-crashes 1
explore_pin \
  'nodes=14727 terminals=6232 deduped=0 pruned=0 truncated=0 peak_depth=14' \
  'digest=0x5a2e4772' -k 2 --no-dedup --no-por

# Parallel smoke: the domain pool must be invisible in the output. With
# reductions off the raw tree partitions exactly, so the stats and
# terminal-digest lines of a jobs=2 exploration are byte-identical to
# jobs=1; a parallel chaos campaign (outcomes computed on workers,
# tallied in seed order on the main domain) must reproduce the
# sequential stdout byte-for-byte. The jobs=1 output (including the
# digest) is echoed to the log so a mismatch can be read off the CI run
# without reconstructing the tmp files.
echo "== parallel smoke"
tmp_seq=$(mktemp) && tmp_par=$(mktemp)
trap 'rm -f "$tmp_seq" "$tmp_par"' EXIT
dune exec bin/boundedreg.exe -- explore -k 2 --no-dedup --no-por \
  --jobs 1 | sed 1d > "$tmp_seq"
dune exec bin/boundedreg.exe -- explore -k 2 --no-dedup --no-por \
  --jobs 2 | sed 1d > "$tmp_par"
echo "-- explore jobs=1 (reference, must match jobs=2):"
cat "$tmp_seq"
diff "$tmp_seq" "$tmp_par"
dune exec bin/boundedreg.exe -- chaos --frontier --runs 5 --seed 127 \
  --jobs 1 --expect violation > "$tmp_seq"
dune exec bin/boundedreg.exe -- chaos --frontier --runs 5 --seed 127 \
  --jobs 2 --expect violation > "$tmp_par"
diff "$tmp_seq" "$tmp_par"
# Traced parallel runs: worker-domain events drain through private
# buffers in unit-index order, so up to the echoed jobs value the
# jobs=1 and jobs=2 traces are byte-identical — and the jobs=2 trace
# must actually contain the workers' per-run net events. The first
# violation also dumps the flight recorder post-mortem.
rm -f flight-nonlinearizable.jsonl
dune_trace_seq=$(mktemp) && dune_trace_par=$(mktemp)
dune exec bin/boundedreg.exe -- chaos --frontier --runs 5 --seed 127 \
  --jobs 1 --expect violation --trace "$dune_trace_seq" > /dev/null
dune exec bin/boundedreg.exe -- chaos --frontier --runs 5 --seed 127 \
  --jobs 2 --expect violation --trace "$dune_trace_par" > /dev/null
sed 's/"jobs":[0-9]*/"jobs":_/' "$dune_trace_seq" > "$tmp_seq"
sed 's/"jobs":[0-9]*/"jobs":_/' "$dune_trace_par" > "$tmp_par"
diff "$tmp_seq" "$tmp_par"
grep -q '"cat":"net"' "$dune_trace_par"
rm -f "$dune_trace_seq" "$dune_trace_par"
test -s flight-nonlinearizable.jsonl
grep -q '"dom"' flight-nonlinearizable.jsonl
rm -f flight-nonlinearizable.jsonl
# Churn campaigns draw enter/leave schedules from per-run streams, so
# the worker split must be invisible there too.
dune exec bin/boundedreg.exe -- chaos --churn-frontier --runs 40 --seed 1 \
  --jobs 1 --expect violation > "$tmp_seq"
dune exec bin/boundedreg.exe -- chaos --churn-frontier --runs 40 --seed 1 \
  --jobs 2 --expect violation > "$tmp_par"
diff "$tmp_seq" "$tmp_par"
# Counters too: each domain's pooled instances are built with no start
# script run, so warming a pool counts no sends and the metrics of a
# jobs=2 campaign equal jobs=1's (net.sends 18050 for this one).
dune exec bin/boundedreg.exe -- chaos --runs 200 --seed 1 --jobs 1 \
  --metrics "$tmp_seq" > /dev/null
dune exec bin/boundedreg.exe -- chaos --runs 200 --seed 1 --jobs 2 \
  --metrics "$tmp_par" > /dev/null
diff "$tmp_seq" "$tmp_par"

# Fleet smoke: the coverage-guided chaos fleet. Generations mode pins the
# workload, so a jobs=2 fleet must reproduce the jobs=1 report, corpus
# and witness files byte-for-byte; the witness must then replay
# bit-for-bit. Afterwards a budgeted fleet (20 s in --quick, a short
# deterministic one otherwise) fills ci-fleet-corpus/ for the CI
# artifact upload, --expect witness gating that the frontier stale-read
# class was rediscovered.
echo "== fleet smoke"
fleet_j1=$(mktemp -d) && fleet_j2=$(mktemp -d) && fleet_churn=$(mktemp -d)
fleet_bad=$(mktemp -d) && fleet_torn=$(mktemp -d)
fleet_ref=$(mktemp -d) && fleet_kill=$(mktemp -d)
trap 'rm -f "$tmp_seq" "$tmp_par"; rm -rf "$fleet_j1" "$fleet_j2" "$fleet_churn" "$fleet_bad" "$fleet_torn" "$fleet_ref" "$fleet_kill"' EXIT
rm -f flight-nonlinearizable.jsonl
dune exec bin/boundedreg.exe -- fleet --frontier --generations 60 --seed 9 \
  --corpus "$fleet_j1" --jobs 1 --expect witness > "$tmp_seq"
dune exec bin/boundedreg.exe -- fleet --frontier --generations 60 --seed 9 \
  --corpus "$fleet_j2" --jobs 2 --expect witness > "$tmp_par"
# The corpus path echoed in the report is the only legitimate difference.
sed "s|$fleet_j2|$fleet_j1|" "$tmp_par" | diff "$tmp_seq" -
diff "$fleet_j1/corpus.jsonl" "$fleet_j2/corpus.jsonl"
for w in "$fleet_j1"/witness-*.json; do
  diff "$w" "$fleet_j2/$(basename "$w")"
  dune exec bin/boundedreg.exe -- fleet --replay "$w"
done
# The first violation dumps the flight recorder beside the corpus,
# scoped to the campaign: the dump opens with the fleet.campaign Begin,
# not earlier events, and nothing is dumped into the working directory.
if ! head -n 1 "$fleet_j1/flight-nonlinearizable.jsonl" 2>/dev/null \
  | grep -q '"name":"fleet.campaign","cat":"fleet","ph":"B"'; then
  echo "check.sh: seed-9 fleet dump missing or not opened by its campaign" >&2
  exit 1
fi
if [ -e flight-nonlinearizable.jsonl ]; then
  echo "check.sh: a fleet with a corpus dumped into the working directory" >&2
  exit 1
fi
# The jobs diff above compares one build with itself, so a codec or
# mutation-draw change that altered the corpus bytes would still pass
# it. Pin the artifacts' digests (measured with OCaml 5.1.1).
# Usage: pin_md5 LABEL DIR FILE MD5
pin_md5() {
  if [ ! -f "$2/$3" ]; then
    echo "check.sh: $1 fleet wrote no $3" >&2
    exit 1
  fi
  got=$(md5sum < "$2/$3" | cut -d' ' -f1)
  if [ "$got" != "$4" ]; then
    echo "check.sh: $1 fleet $3 drifted: md5 $got, pinned $4" >&2
    exit 1
  fi
}
pin_md5 seed-9 "$fleet_j1" corpus.jsonl 76cf3687e0e650644b98abcc3d4d006d
pin_md5 seed-9 "$fleet_j1" witness-11d375a62583849e.json \
  efac722480726f73db467b5258911096
# A hand-edited corpus with an operand outside n must be refused cleanly:
# exit 1 and a message naming the file and line, not an internal error.
sed '1s/"deliver [0-9]*>[0-9]*"/"deliver 0>9"/' "$fleet_j1/corpus.jsonl" \
  > "$fleet_bad/corpus.jsonl"
status=0
dune exec bin/boundedreg.exe -- fleet --frontier --generations 1 \
  --corpus "$fleet_bad" > /dev/null 2> "$tmp_par" || status=$?
if [ "$status" != 1 ] || ! grep -q 'corpus.jsonl:1:' "$tmp_par"; then
  echo "check.sh: fleet over a bad corpus exited $status; stderr:" >&2
  cat "$tmp_par" >&2
  exit 1
fi
# A torn last line (a kill mid-append) is loaded around with exactly one
# warning and cut off before the resume's first append, so the corpus
# the resume leaves opens again without a warning.
head -c -100 "$fleet_j1/corpus.jsonl" > "$fleet_torn/corpus.jsonl"
dune exec bin/boundedreg.exe -- fleet --frontier --generations 1 \
  --corpus "$fleet_torn" > /dev/null 2> "$tmp_par"
if [ "$(grep -c 'torn final line' "$tmp_par")" != 1 ]; then
  echo "check.sh: resume over a torn corpus did not warn once; stderr:" >&2
  cat "$tmp_par" >&2
  exit 1
fi
dune exec bin/boundedreg.exe -- fleet --frontier --generations 0 \
  --corpus "$fleet_torn" > /dev/null 2> "$tmp_par"
if grep -q 'torn final line' "$tmp_par"; then
  echo "check.sh: the resume did not cut the torn line off" >&2
  exit 1
fi
# SIGKILL mid-campaign: every line is flushed whole, so the complete
# lines of a killed fleet's corpus are a byte prefix of an uninterrupted
# run of the same seed, and a resume over the killed corpus succeeds.
# The binary runs directly so that the kill reaches the fleet itself
# (the shell then reports the job as "Killed").
exe=_build/default/bin/boundedreg.exe
"$exe" fleet --frontier --generations 400 --seed 9 --corpus "$fleet_ref" \
  > /dev/null
"$exe" fleet --frontier --generations 400 --seed 9 --corpus "$fleet_kill" \
  > /dev/null &
fleet_pid=$!
until [ "$(cat "$fleet_kill/corpus.jsonl" 2>/dev/null | wc -c)" -ge 1000000 ]
do
  kill -0 "$fleet_pid" 2>/dev/null || break
  sleep 0.01
done
kill -9 "$fleet_pid" 2>/dev/null || true
status=0
wait "$fleet_pid" || status=$?
if [ "$status" != 137 ]; then
  echo "check.sh: the fleet finished (exit $status) before the kill" >&2
  exit 1
fi
kept=$(wc -l < "$fleet_kill/corpus.jsonl")
head -n "$kept" "$fleet_kill/corpus.jsonl" > "$tmp_seq"
if ! head -c "$(wc -c < "$tmp_seq")" "$fleet_ref/corpus.jsonl" \
  | cmp -s - "$tmp_seq"; then
  echo "check.sh: a killed fleet's $kept whole lines are not a prefix" >&2
  exit 1
fi
"$exe" fleet --frontier --generations 1 --corpus "$fleet_kill" > /dev/null
# Cache-effectiveness smoke: a second fleet resumed over the (fixed-seed,
# hence byte-deterministic) corpus re-executes every corpus plan once to
# seed coverage and the content-addressed run cache, so mutants that
# reproduce known content must answer from the cache — at least one hit,
# or the content addressing has silently stopped working.
dune exec bin/boundedreg.exe -- fleet --frontier --generations 20 --seed 11 \
  --corpus "$fleet_j1" > "$tmp_par"
grep 'cache: ' "$tmp_par"
if grep -q 'cache: 0 hit(s)' "$tmp_par"; then
  echo "check.sh: fleet run cache recorded no hits on the corpus re-fill smoke" >&2
  exit 1
fi
# Churn fleet: witness files for dynamic-membership configs embed the
# membership block (seed members, churn rate/window/slack, width), so a
# dyn witness must round-trip through --replay bit-for-bit too. The
# 1-bit width under sound churn is the fastest reliable witness class.
# Its corpus holds mutants and crossovers drawn with the churn grammar
# on, so the pins below also guard that draw order.
dune exec bin/boundedreg.exe -- fleet --churn --width-bits 1 --generations 5 \
  --batch 16 --seed 1 --corpus "$fleet_churn" --expect witness
pin_md5 churn "$fleet_churn" corpus.jsonl d6c502d20d797fd471a559839a0573ca
pin_md5 churn "$fleet_churn" witness-11d375a62583849e.json \
  a652ed9d40d4434ec68ec3b1f9cb3a4c
for w in "$fleet_churn"/witness-*.json; do
  dune exec bin/boundedreg.exe -- fleet --replay "$w"
done
rm -rf ci-fleet-corpus
if [ "$QUICK" = 1 ]; then
  dune exec bin/boundedreg.exe -- fleet --frontier --budget 20 --seed 1 \
    --corpus ci-fleet-corpus --expect witness
else
  dune exec bin/boundedreg.exe -- fleet --frontier --generations 120 --seed 1 \
    --corpus ci-fleet-corpus --expect witness
fi

echo "check.sh: OK"

# Size report: every change states its lib/ line and val deltas against this.
echo "lib/: $(cat lib/*/*.ml lib/*/*.mli | wc -l) lines"
echo "lib/*.mli: $(cat lib/*/*.mli | grep -cE '^\s*val ') vals"
