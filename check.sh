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
# atomicity violation. --expect makes a mismatch a non-zero exit.
echo "== chaos smoke"
if [ "$QUICK" = 1 ]; then
  dune exec bin/boundedreg.exe -- chaos --runs 5 --seed 1 --expect pass
else
  dune exec bin/boundedreg.exe -- chaos --runs 20 --seed 1 --expect pass
fi
dune exec bin/boundedreg.exe -- chaos --frontier --runs 1 --seed 127 \
  --expect violation

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
dune exec bin/boundedreg.exe -- chaos --churn-frontier --runs 40 --seed 1 \
  --expect violation

# Pipeline smoke: Theorem 1.3's compiled protocol over 6-bit registers
# (n=3, t=1) must reproduce seed 31's decisions and per-process step
# counts exactly. ~927k steps per process: it runs in about a second
# because pipeline programs compile to constant-size stateful code.
echo "== pipeline smoke"
pipeline_got=$(dune exec bin/boundedreg.exe -- pipeline --seed 31 | grep '^process')
pipeline_want='process 0: decides 1/2 after 927080 steps
process 1: decides 1/2 after 926570 steps
process 2: decides 1/2 after 926223 steps'
if [ "$pipeline_got" != "$pipeline_want" ]; then
  printf 'check.sh: pipeline --seed 31 drifted:\n%s\n' "$pipeline_got" >&2
  exit 1
fi

# Trace smoke: a budgeted exploration captured to JSONL must validate —
# parseable events, balanced spans — via the trace summarizer; metrics go
# to a JSON file CI archives. Runs in both modes (it is a fraction of a
# second) and leaves ci-smoke.trace.jsonl / ci-metrics.json behind for
# the artifact upload step.
echo "== trace smoke"
dune exec bin/boundedreg.exe -- explore -k 2 --max-nodes 2000 \
  --trace ci-smoke.trace.jsonl --metrics ci-metrics.json
dune exec bin/boundedreg.exe -- trace summary ci-smoke.trace.jsonl

# Report smoke: the health-report renderer must consume the trace and
# metrics the step above just wrote. Both renderings are CI artifacts.
echo "== report smoke"
dune exec bin/boundedreg.exe -- report ci-smoke.trace.jsonl \
  --metrics ci-metrics.json -o ci-report.md
dune exec bin/boundedreg.exe -- report ci-smoke.trace.jsonl \
  --metrics ci-metrics.json --html -o ci-report.html
grep -q "boundedreg health report" ci-report.md

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
rm -rf "$ckpt_dir"

if [ "$QUICK" = 1 ]; then
  # Supervised smoke: the whole experiment registry under a tight
  # per-experiment budget. Experiments degrade to sampled coverage
  # rather than blowing the CI clock; crashes and hangs still exit 1.
  echo "== supervised experiment smoke (budgeted)"
  dune exec bin/boundedreg.exe -- run all --deadline 10 --max-states 20000
fi

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
# The first violation dumps the flight recorder, scoped to the campaign:
# the dump opens with the fleet.campaign Begin, not earlier events.
if ! head -n 1 flight-nonlinearizable.jsonl 2>/dev/null \
  | grep -q '"name":"fleet.campaign","cat":"fleet","ph":"B"'; then
  echo "check.sh: seed-9 fleet dump missing or not opened by its campaign" >&2
  exit 1
fi
rm -f flight-nonlinearizable.jsonl
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
rm -f flight-nonlinearizable.jsonl
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
rm -f flight-nonlinearizable.jsonl

echo "check.sh: OK"

# Size report: every change states its lib/ line delta against this.
echo "lib/: $(cat lib/*/*.ml lib/*/*.mli | wc -l) lines"
