(* Membership views and churn schedules for the dynamic register
   emulation (Dynreg). A view is three bitsets over the fixed slot
   universe of Net: who has entered, who has activated (finished the
   join protocol and adopted state), who has left. Views only grow, so
   pointwise union is a join-semilattice merge — gossiping views can
   never disagree permanently, only lag. *)

type view = { entered : int; act : int; left : int }

let of_list pids =
  let m = List.fold_left (fun m p -> m lor (1 lsl p)) 0 pids in
  (* A seeded view's members are born activated: there is no one to
     adopt state from before the computation starts. *)
  { entered = m; act = m; left = 0 }

let initial k = of_list (List.init k Fun.id)
let enter v pid = { v with entered = v.entered lor (1 lsl pid) }

let activate v pid =
  let b = 1 lsl pid in
  { v with entered = v.entered lor b; act = v.act lor b }

let leave v pid = { v with left = v.left lor (1 lsl pid) }

let merge a b =
  {
    entered = a.entered lor b.entered;
    act = a.act lor b.act;
    left = a.left lor b.left;
  }

let current v = v.entered land lnot v.left
let active v = v.act land lnot v.left

let popcount m =
  let rec go k m = if m = 0 then k else go (k + 1) (m land (m - 1)) in
  go 0 m

let cardinal v = popcount (current v)
let mem v pid = current v land (1 lsl pid) <> 0

let members v =
  let m = current v in
  List.filter (fun p -> m land (1 lsl p) <> 0) (List.init Sys.int_size Fun.id)

(* The quorum rule: a majority of the view's {e activated} members —
   the only processes that can answer queries or vouch for state —
   widened by [slack] to absorb members this view has not yet seen
   leave (or activate). Our logical-time analogue of the ACEKW window
   bound: with at most [slack] churn events per quorum window, a
   widened read majority still intersects every widened write majority
   taken under a view at most [slack] churn events away. The cap at the
   active cardinality keeps a heavily-slacked quorum satisfiable at all
   (it degrades to "every active member I know of"). *)
let quorum ~slack v =
  let c = popcount (active v) in
  min (max 1 c) ((c / 2) + 1 + slack)

(* ------------------------------------------------------------------ *)
(* Churn schedules *)

type churn = { enter_at : (int * int) list; leave_at : (int * int) list }

let no_churn = { enter_at = []; leave_at = [] }

(* Rate-bounded random schedule: churn events are spaced at least
   [window / rate] fault events apart (plus jitter), so any window of
   [window] events sees roughly at most [rate] joins-or-leaves — the
   α-bound of the ACEKW adversary, in the fault layer's logical time.
   Joiners enter in the given order (slot identity is fresh by
   construction); leavers are drawn randomly from the eligible pool.
   [rate <= 0] means no churn. *)
let random rng ~joiners ~leavers ~rate ~window ~span =
  if rate <= 0 then no_churn
  else begin
    let spacing = max 1 (window / rate) in
    let joiners = ref joiners and leavers = ref leavers in
    let enter_at = ref [] and leave_at = ref [] in
    let t = ref (1 + Bits.Rng.int rng spacing) in
    while !t < span && (!joiners <> [] || !leavers <> []) do
      let pick_join =
        match (!joiners, !leavers) with
        | _ :: _, [] -> true
        | [], _ -> false
        | _ -> Bits.Rng.bool rng
      in
      if pick_join then begin
        match !joiners with
        | [] -> ()
        | pid :: rest ->
            joiners := rest;
            enter_at := (pid, !t) :: !enter_at
      end
      else begin
        let pid = Bits.Rng.pick rng !leavers in
        leavers := List.filter (fun p -> p <> pid) !leavers;
        leave_at := (pid, !t) :: !leave_at
      end;
      t := !t + spacing + Bits.Rng.int rng (1 + (spacing / 2))
    done;
    { enter_at = List.rev !enter_at; leave_at = List.rev !leave_at }
  end
