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
trap 'rm -f "$tmp_seq" "$tmp_par"; rm -rf "$fleet_j1" "$fleet_j2" "$fleet_churn"' EXIT
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
dune exec bin/boundedreg.exe -- fleet --churn --width-bits 1 --generations 5 \
  --batch 16 --seed 1 --corpus "$fleet_churn" --expect witness
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

# Size report: every change states its lib/ line delta against this.
echo "lib/ .ml+.mli lines: $(find lib -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"
