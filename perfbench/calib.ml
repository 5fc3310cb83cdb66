(* Host calibration. The machines this benchmark runs on are shared, and
   their speed drifts by tens of percent over minutes with the load of
   their other tenants — in the memory hierarchy more than in the
   clock: a register-only loop stays within ~8% while the workloads and
   an allocating, hashing loop move together by up to 2x. So before
   every batch the run loop times [kernel], a fixed piece of benchmark
   code that allocates and hashes like the simulators do, and the
   gated times are reported at the kernel's reference speed: measured
   time x [reference_s] / (median kernel time of the run). The kernel
   never calls program code, so a change to the program cannot move
   it; only the host's drift cancels. *)

(* The kernel's median time on the machine the benchmark was written
   on, in a quiet period. *)
let reference_s = 0.008

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 19_999 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (i, [ i ])
  done;
  let s = ref 0 in
  for i = 0 to 19_999 do
    match Hashtbl.find_opt h (i land 0xffff) with
    | Some (a, _) -> s := !s + a
    | None -> ()
  done;
  !s

(* The second of two back-to-back runs is timed: the first refills the
   caches the preceding batch evicted, which would otherwise make the
   kernel's time depend on the program's footprint. *)
let time () =
  ignore (Sys.opaque_identity (kernel ()) : int);
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  Unix.gettimeofday () -. t0
