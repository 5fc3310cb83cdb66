(* The process-wide metrics registry. Hot paths pay for a metric close to
   what they would pay for a bare [int ref]: the name → cell resolution
   happens once, at registration (typically a module-toplevel [let]), and
   [inc]/[add]/[set] are single atomic mutations with no hashing and no
   allocation. Snapshots walk the registry and render sorted JSON, so two
   snapshots of equal counts are byte-identical.

   Cells are [Atomic.t]-backed so concurrent domains (the parallel
   exploration workers) can tally into the same registry without losing
   increments: a plain [mutable int] field would drop updates under
   domain interleaving. [Atomic.fetch_and_add] on a contended cell is a
   few nanoseconds — acceptable even for the [hot]-gated per-operation
   sites, which are off by default anyway. Registration and snapshotting
   are rare; they serialize on a [Mutex] so a domain registering a new
   metric cannot race a snapshot's fold over the hashtable. *)

(* Counters are sharded: [shards] independent cells, a domain picking
   its cell by domain id. Parallel fan-outs (a fleet generation at
   [--jobs 8]) would otherwise serialize every tally on one contended
   cache line; sharding makes concurrent increments land on (mostly)
   distinct cells, and reads sum the shards. Gauges and histograms stay
   single-cell — gauges are last-writer/max semantics where sharding
   has nothing to merge, and histogram updates touch several fields
   anyway. *)
let shards = 8 (* power of two, cell picked by [domain_id land (shards-1)] *)

type counter = { c_name : string; cells : int Atomic.t array }
type gauge = { g_name : string; value : int Atomic.t }

type histogram = {
  h_name : string;
  bounds : int array;  (** strictly increasing upper bounds *)
  buckets : int Atomic.t array;
      (** [Array.length bounds + 1]: last = overflow *)
  observations : int Atomic.t;
  sum : int Atomic.t;
  max_seen : int Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Per-operation tallies sit on paths the exploration engine drives
   hundreds of thousands of times per run, where even a non-inlined
   increment shows up in throughput (measured: ~17% on the raw-undo
   workload). Sites of that class guard themselves with [if !hot]; the
   flag is a bare ref so the disabled cost is one load and branch. It is
   only toggled from the main domain before/after a measurement, never
   concurrently with workers, so a bare ref is race-free in practice.
   Coarser-grained sites (per network delivery, per campaign run, per
   exploration) tally unconditionally. *)
let hot = ref false

let register name make match_existing =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> match_existing m
      | None ->
          let m = make () in
          Hashtbl.replace registry name
            (match m with
            | `C c -> Counter c
            | `G g -> Gauge g
            | `H h -> Histogram h);
          m)

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S is already registered as a %s" name want)

let counter name =
  match
    register name
      (fun () ->
        `C { c_name = name; cells = Array.init shards (fun _ -> Atomic.make 0) })
      (function Counter c -> `C c | _ -> kind_error name "non-counter")
  with
  | `C c -> c
  | _ -> assert false

let gauge name =
  match
    register name
      (fun () -> `G { g_name = name; value = Atomic.make 0 })
      (function Gauge g -> `G g | _ -> kind_error name "non-gauge")
  with
  | `G g -> g
  | _ -> assert false

let default_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

let check_bounds name bounds =
  if Array.length bounds = 0 then
    invalid_arg (Printf.sprintf "Obs.Metrics: %S needs >= 1 bound" name);
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S bounds must strictly increase" name)
  done

let histogram ?(bounds = default_bounds) name =
  match
    register name
      (fun () ->
        check_bounds name bounds;
        `H
          {
            h_name = name;
            bounds = Array.copy bounds;
            buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            observations = Atomic.make 0;
            sum = Atomic.make 0;
            max_seen = Atomic.make min_int;
          })
      (function
        | Histogram h ->
            if h.bounds <> bounds then
              invalid_arg
                (Printf.sprintf
                   "Obs.Metrics: %S re-registered with different bounds" name)
            else `H h
        | _ -> kind_error name "non-histogram")
  with
  | `H h -> h
  | _ -> assert false

let shard cells =
  Array.unsafe_get cells ((Domain.self () :> int) land (shards - 1))

let inc c = ignore (Atomic.fetch_and_add (shard c.cells) 1)
let add c n = ignore (Atomic.fetch_and_add (shard c.cells) n)

let counter_value c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let set g v = Atomic.set g.value v

(* Lock-free high-watermark: retry the CAS only while our candidate is
   still larger than what another domain published meanwhile. *)
let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let set_max g v = atomic_max g.value v
let gauge_value g = Atomic.get g.value

(* First bucket whose bound covers [v]; beyond the last bound, the
   overflow bucket. Bounds arrays are short and instrumented values small,
   so the linear scan exits in a couple of comparisons on hot sites. The
   scan is a top-level function: an inner [let rec] would capture [v] and
   allocate a closure per observation, which per-write call sites
   (Memory.write) cannot afford. *)
let rec bucket_index bounds k v i =
  if i >= k || v <= Array.unsafe_get bounds i then i
  else bucket_index bounds k v (i + 1)

let observe h v =
  let i = bucket_index h.bounds (Array.length h.bounds) v 0 in
  ignore (Atomic.fetch_and_add (Array.unsafe_get h.buckets i) 1);
  ignore (Atomic.fetch_and_add h.observations 1);
  ignore (Atomic.fetch_and_add h.sum v);
  atomic_max h.max_seen v

let observations h = Atomic.get h.observations
let bucket_counts h = Array.map Atomic.get h.buckets

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
          | Gauge g -> Atomic.set g.value 0
          | Histogram h ->
              Array.iter (fun b -> Atomic.set b 0) h.buckets;
              Atomic.set h.observations 0;
              Atomic.set h.sum 0;
              Atomic.set h.max_seen min_int)
        registry)

let bucket_label bounds i =
  if i < Array.length bounds then Printf.sprintf "le_%d" bounds.(i)
  else "inf"

(* Percentiles from bucket counts: walk the cumulative distribution to
   the bucket containing the rank-[ceil(p/100 * n)] observation and
   report that bucket's upper bound (the overflow bucket reports the
   exact max seen). An upper bound, not an interpolation — with integer
   buckets "p99 <= 8 hops" is the honest statement the data supports. *)
let percentile h p =
  let total = Atomic.get h.observations in
  if total = 0 || p <= 0. || p > 100. then None
  else begin
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int total)))
    in
    let n = Array.length h.buckets in
    let rec walk i cum =
      if i >= n then Some (Atomic.get h.max_seen)
      else
        let cum = cum + Atomic.get h.buckets.(i) in
        if cum >= rank then
          if i < Array.length h.bounds then Some h.bounds.(i)
          else Some (Atomic.get h.max_seen)
        else walk (i + 1) cum
    in
    walk 0 0
  end

let histogram_json h =
  let count = Atomic.get h.observations in
  let pct p =
    match percentile h p with None -> Json.Null | Some v -> Json.Int v
  in
  Json.Obj
    [
      ("count", Json.Int count);
      ("sum", Json.Int (Atomic.get h.sum));
      ("max", if count = 0 then Json.Null else Json.Int (Atomic.get h.max_seen));
      ("p50", pct 50.);
      ("p90", pct 90.);
      ("p99", pct 99.);
      ( "buckets",
        Json.Obj
          (List.init (Array.length h.buckets) (fun i ->
               (bucket_label h.bounds i, Json.Int (Atomic.get h.buckets.(i))))) );
    ]

let sorted_fields section =
  locked (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          match (section, m) with
          | `Counters, Counter c -> (name, Json.Int (counter_value c)) :: acc
          | `Gauges, Gauge g -> (name, Json.Int (Atomic.get g.value)) :: acc
          | `Histograms, Histogram h -> (name, histogram_json h) :: acc
          | _ -> acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () =
  Json.Obj
    [
      ("counters", Json.Obj (sorted_fields `Counters));
      ("gauges", Json.Obj (sorted_fields `Gauges));
      ("histograms", Json.Obj (sorted_fields `Histograms));
    ]

let snapshot_string () = Json.to_string (snapshot ())
