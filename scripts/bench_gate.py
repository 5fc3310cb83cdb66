#!/usr/bin/env python3
"""Performance gate for the fused exploration hot path.

Compares a freshly measured bench JSON against the committed baseline
(BENCH_PR9.json in CI) and fails if the raw exploration benchmark has
regressed past the tolerance. CI runners are noisy and heterogeneous, so
the gate is deliberately loose (1.5x by default): it catches "someone
re-introduced per-edge allocation or journal traffic", not 5% drift.

Also cross-checks, within the fresh run, that the parallel explorer's
terminal digests are identical at every measured pool width — the
determinism claim the bench records.

Usage: bench_gate.py BASELINE.json FRESH.json [--key NAME] [--factor F]
Exit status: 0 pass, 1 regression or malformed input.
"""

import argparse
import json
import sys

DEFAULT_KEY = "bounded-registers/explore-3x4(raw-undo)"


def ns_per_call(doc, key):
    for row in doc.get("benchmarks", []):
        if row.get("name") == key:
            return float(row["ns_per_call"])
    raise KeyError(f"benchmark row {key!r} not found")


def check_digests(doc):
    rows = doc.get("parallel", {}).get("explore_raw_3x4", [])
    digests = {row["jobs"]: row["digest"] for row in rows}
    if len(set(digests.values())) > 1:
        return f"parallel digests differ across pool widths: {digests}"
    return None


def check_fleet(doc):
    """Dead-mutator guard: the fleet smoke recorded in the fresh bench run
    must attribute at least one new coverage signal to a mutated (or
    crossed-over) corpus plan. Fresh seeded runs finding coverage while
    mutants find none means the mutation engine has silently died — the
    corpus would still grow, witnesses might still appear, and nothing
    else would notice."""
    fleet = doc.get("fleet", {}).get("frontier_g150")
    if fleet is None:
        return "fleet section missing from fresh bench JSON"
    if fleet.get("new_signals", 0) <= 0:
        return "fleet smoke found zero new coverage signals on the seed corpus"
    if fleet.get("mutant_new_signals", 0) <= 0:
        return (
            "dead mutator: fleet smoke attributed zero new coverage signals "
            "to mutated corpus plans"
        )
    return None


RECORDER_OFF_KEY = "bounded-registers/explore-3x4(raw-undo,recorder-off)"
RECORDER_FACTOR = 1.06


def check_recorder(doc):
    """Recorder-overhead guard: the always-on flight recorder must stay
    cheap on the raw exploration hot path. Both rows come from the same
    fresh run (each with its own warmup, in seeded-shuffle order), but
    repeated runs on one machine still show the on/off ratio wobbling
    by ~±3% on this ~2.5 ms row, so the limit is 6%: loose enough not
    to flap on scheduler noise, tight enough to catch a recorder that
    starts allocating or copying per node (an order of magnitude above
    the limit)."""
    try:
        on_ns = ns_per_call(doc, DEFAULT_KEY)
        off_ns = ns_per_call(doc, RECORDER_OFF_KEY)
    except KeyError as e:
        return f"recorder check: {e}"
    limit = RECORDER_FACTOR * off_ns
    if on_ns > limit:
        return (
            f"flight recorder overhead too high: on {on_ns:.2f} ns/call vs "
            f"off {off_ns:.2f} ns/call (limit {limit:.2f}, "
            f"{RECORDER_FACTOR}x)"
        )
    return None


CHAOS_RUN_KEY = "bounded-registers/chaos-run(sound,n=4)"
FLEET_RUNS_PER_SEC_FLOOR = 10_000
CHAOS_MINOR_WORDS_CEILING = 900.0


def minor_words_per_call(doc, key):
    for row in doc.get("benchmarks", []):
        if row.get("name") == key:
            return float(row["minor_words_per_call"])
    raise KeyError(f"benchmark row {key!r} not found")


def check_msgpass(doc):
    """Message-passing hot-path gate. Three claims from the pooled-network
    rework must keep holding:

    - fleet throughput: the 150-generation frontier fleet must sustain a
      runs/sec floor. The pooled arenas put the post-rework number at
      5x+ the old allocate-per-run figure (~4,950), so a 10k floor is
      CI-noise-safe while still catching a return to per-run network
      construction.
    - chaos allocation: one sound chaos run must stay under a minor-words
      ceiling. Pre-rework it allocated ~8,580 minor words per run; the
      pooled network and trail-undo linearizer brought that under ~700,
      so a 900 ceiling flags any reintroduced per-message or per-check
      allocation while tolerating GC-counter jitter. Allocation counts
      are deterministic-ish, unlike wall-clock, hence a hard ceiling
      rather than a baseline ratio.
    - run-cache liveness: the resumed fleet leg (a campaign over a
      corpus a previous campaign filled) must answer at least one probe
      from the content-addressed run cache (and must be counting probes
      at all). A fresh in-memory campaign legitimately records zero
      hits — duplicate-class shrinks are skipped, so nothing replays
      known content — which is why the guard reads the resume row:
      there, every corpus plan's outcome is pre-filled, and zero hits
      means content addressing silently died."""
    fleet = doc.get("fleet", {}).get("frontier_g150")
    if fleet is None:
        return "fleet section missing from fresh bench JSON"
    rps = fleet.get("runs_per_sec", 0)
    if rps < FLEET_RUNS_PER_SEC_FLOOR:
        return (
            f"fleet throughput below floor: {rps} runs/sec "
            f"(floor {FLEET_RUNS_PER_SEC_FLOOR})"
        )
    try:
        mw = minor_words_per_call(doc, CHAOS_RUN_KEY)
    except KeyError as e:
        return f"msgpass check: {e}"
    if mw > CHAOS_MINOR_WORDS_CEILING:
        return (
            f"chaos run allocates too much: {mw:.2f} minor words/call "
            f"(ceiling {CHAOS_MINOR_WORDS_CEILING})"
        )
    resume = doc.get("fleet", {}).get("resume_g20")
    if resume is None:
        return "fleet resume leg missing from fresh bench JSON"
    if resume.get("cache_lookups", 0) <= 0:
        return "fleet run cache recorded zero lookups — cache not wired in"
    if resume.get("cache_hits", 0) <= 0:
        return (
            "fleet run cache recorded zero hits over "
            f"{resume['cache_lookups']} resumed lookups — "
            "content addressing is dead"
        )
    return None


def check_churn(doc):
    """Churn gate: the dynamic-membership rows must show the sound churn
    campaign (slack covers the rate) staying linearizable on every seeded
    run, and the churn-frontier preset still finding and shrinking its
    pinned stale-read counterexample. A sound violation means the
    slack-widened quorum intersection regressed; a missing frontier
    violation means the churn adversary (or the checker's view of it)
    silently lost its teeth."""
    churn = doc.get("churn")
    if churn is None:
        return "churn section missing from fresh bench JSON"
    sound = churn.get("sound", {})
    if sound.get("violations", -1) != 0:
        return (
            "sound churn campaign reported violations "
            f"(expected 0): {sound}"
        )
    frontier = churn.get("frontier", {})
    if frontier.get("violations", 0) < 1:
        return "churn-frontier pinned seed produced no violation"
    if frontier.get("shrunk_events", 0) <= 0:
        return "churn-frontier witness did not shrink to a replayable plan"
    if frontier.get("shrunk_churn_actions", 0) <= 0:
        return (
            "churn-frontier shrunk plan retains no enter/leave action — "
            "the violation no longer depends on membership churn"
        )
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--key", default=DEFAULT_KEY)
    ap.add_argument("--factor", type=float, default=1.5)
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    try:
        base_ns = ns_per_call(baseline, args.key)
        fresh_ns = ns_per_call(fresh, args.key)
    except KeyError as e:
        print(f"bench gate: {e}", file=sys.stderr)
        return 1

    limit = args.factor * base_ns
    verdict = "OK" if fresh_ns <= limit else "REGRESSION"
    print(
        f"bench gate: {args.key}\n"
        f"  baseline {base_ns:12.2f} ns/call\n"
        f"  fresh    {fresh_ns:12.2f} ns/call\n"
        f"  limit    {limit:12.2f} ns/call ({args.factor}x)  -> {verdict}"
    )
    failed = fresh_ns > limit

    digest_err = check_digests(fresh)
    if digest_err:
        print(f"bench gate: {digest_err}", file=sys.stderr)
        failed = True
    else:
        print("bench gate: parallel digests identical at all pool widths")

    fleet_err = check_fleet(fresh)
    if fleet_err:
        print(f"bench gate: {fleet_err}", file=sys.stderr)
        failed = True
    else:
        print("bench gate: fleet mutator is alive (mutant coverage signals > 0)")

    recorder_err = check_recorder(fresh)
    if recorder_err:
        print(f"bench gate: {recorder_err}", file=sys.stderr)
        failed = True
    else:
        print("bench gate: flight recorder overhead within 6% on raw explore")

    msgpass_err = check_msgpass(fresh)
    if msgpass_err:
        print(f"bench gate: {msgpass_err}", file=sys.stderr)
        failed = True
    else:
        print(
            "bench gate: msgpass hot path holds (fleet runs/sec floor, "
            "chaos minor-words ceiling, run cache alive)"
        )

    churn_err = check_churn(fresh)
    if churn_err:
        print(f"bench gate: {churn_err}", file=sys.stderr)
        failed = True
    else:
        print(
            "bench gate: churn rows sound (0 sound violations, "
            "frontier witness shrinks with churn actions)"
        )

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
