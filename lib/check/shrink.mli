(** Delta-debugging counterexamples down to minimal failing cores.

    A random chaos campaign that finds a violation hands back a long event
    plan; replaying hundreds of events is a poor witness. [ddmin] (Zeller &
    Hildebrandt) repeatedly removes chunks of the plan while the failure
    predicate still holds, converging on a 1-minimal subsequence: removing
    any single remaining element makes the failure disappear. Element order
    is preserved, so a shrunk fault plan replays with the same relative
    delivery order as the original. Candidates are arrays — chunks and
    complements are [Array.sub]/[Array.append]s — so a predicate over a
    packed plan probes them as they are; it may memoize, since ddmin
    re-tries candidates (every call still counts as a test). *)

val ddmin_count : test:('a array -> bool) -> 'a array -> 'a array * int
(** [ddmin_count ~test xs] with [test xs = true] ("still fails") returns
    a 1-minimal [ys], a subsequence of [xs], with [test ys = true], and
    the number of [test] calls — the campaign's shrink-cost counter. If
    [test xs = false] the input is returned unchanged — there is nothing
    to shrink. [test] must be deterministic; it is invoked O(n²) times in
    the worst case. *)

val minimize_count : test:('a array -> bool) -> 'a array -> 'a array * int
(** {!ddmin_count} followed by pair elimination to a fixpoint: additionally,
    no {e pair} of remaining elements can be removed together. Catches
    mutually-dependent leftovers 1-minimality cannot see (e.g. a fault and
    the event that compensates it), at O(n²) extra [test] calls on the
    already-shrunk core. *)
