module A1 = Bigarray.Array1

type mode = Rp_pass | Ilp_pass of { target_vgpr : int; target_sgpr : int }

type status = Active | Finished | Dead

type op =
  | Selected of { instr : int; explored : bool }
  | Mandatory_stall
  | Optional_stall
  | Died

type event = { op : op; ready_scanned : int; succs_updated : int }

(* Region-wide state shared by every ant of a colony: the critical
   path, the interned register layout, the transitive-closure bound on
   the ready-list size (Section V-A: per-thread arrays are sized by this
   bound, not by n), and eta^beta per instruction for the
   construction-state-independent heuristics (critical path and source
   order depend only on the region). Computing these once per colony
   instead of once per lane removes the dominant cost of wavefront
   construction; the eta^beta rows are plain float arrays, so the
   selection loop reads them as raw unboxed loads. *)
type shared = {
  s_graph : Ddg.Graph.t;
  s_cp : Ddg.Critpath.t;
  s_layout : Sched.Rp_tracker.layout;
  s_ready_ub : int;
  s_tails : int array;  (* cycles that must follow each issue: the length bound's tails *)
  s_beta : float;  (* the exponent the eta rows are raised to *)
  s_eta_cp : float array;
  s_eta_so : float array;
}

let[@inline] pow_fast x e =
  (* The defaults (alpha = 1, beta = 2) are on the hot path; [Float.pow]
     costs more than the rest of the selection arithmetic combined.
     Inlined so the result never crosses a call boundary — a non-inlined
     float return is a minor-heap box per candidate in closure mode. *)
  if e = 1.0 then x
  else if e = 2.0 then x *. x
  else if e = 0.0 then 1.0
  else x ** e

(* eta^beta of every instruction, computed once per colony; bit-identical
   to raising each [Sched.Heuristic.eta] value at selection time. *)
let eta_pow_row kind ~cp ~beta graph =
  let row = Sched.Heuristic.static_eta kind ~cp graph in
  for i = 0 to Array.length row - 1 do
    Array.unsafe_set row i (pow_fast (Array.unsafe_get row i) beta)
  done;
  row

let prepare_shared ?cp ?layout ?ready_ub ?tails ~beta graph =
  let cp = match cp with Some c -> c | None -> Ddg.Critpath.compute graph in
  {
    s_graph = graph;
    s_cp = cp;
    s_layout =
      (match layout with Some l -> l | None -> Sched.Rp_tracker.layout_of_graph graph);
    s_ready_ub =
      (match ready_ub with
      | Some ub -> ub
      | None -> Ddg.Closure.ready_list_upper_bound (Ddg.Closure.compute graph));
    s_tails = (match tails with Some d -> d | None -> Ddg.Lower_bounds.tails graph);
    s_beta = beta;
    s_eta_cp = eta_pow_row Sched.Heuristic.Critical_path ~cp ~beta graph;
    s_eta_so = eta_pow_row Sched.Heuristic.Source_order ~cp ~beta graph;
  }

(* The engine hands backends a [Region_ctx] whose analyses are exactly
   the ones a colony shares; reusing them keeps a dispatch race at one
   analysis pass per region instead of one per backend. *)
let shared_of_region_ctx ~beta (rc : Engine.Region_ctx.t) =
  prepare_shared ~cp:rc.Engine.Region_ctx.critpath ~layout:rc.Engine.Region_ctx.rp_layout
    ~ready_ub:rc.Engine.Region_ctx.ready_ub ~tails:rc.Engine.Region_ctx.tails ~beta
    rc.Engine.Region_ctx.graph

let shared_ready_ub shared = shared.s_ready_ub

type t = {
  graph : Ddg.Graph.t;
  params : Engine.Params.t;
  rl_order : Sched.Ready_list.t;  (* pass 1: latencies ignored *)
  rl_cycle : Sched.Ready_list.t;  (* pass 2: latency-aware *)
  rp : Sched.Rp_tracker.t;
  ctx : Sched.Heuristic.ctx;
  cand : int array;  (* scratch: candidate slice, ready order *)
  (* The unboxed data plane: one [Support.Fmat] per ant (or two rows of
     a pooled colony matrix), addressed by flat row bases. Row 0 is the
     selection scratch — tau^a * eta^b per candidate in columns
     [0..ub-1], the roulette total in column [ub] and the wheel
     accumulator in column [ub+1] (Fmat cells keep float sums unboxed,
     where a local [ref] may not be); row 1 is scratch for the dynamic
     LUC heuristic's eta. The static heuristics' eta^beta rows are the
     colony's ([shared]), read in place. *)
  fm : Support.Fmat.t;
  fd : Support.Fmat.mat;
      (* [fm]'s raw backing store: the selection loops read and write
         through the concrete bigarray type so the accesses compile to
         unboxed float64 loads/stores even without cross-module
         inlining ([-opaque] dev builds) *)
  score_base : int;
  luc_base : int;
  eta_cp : float array;  (* the colony's eta^beta rows *)
  eta_so : float array;
  tails : int array;  (* the colony's length-bound tails *)
  mutable rng : Support.Rng.t;
  mutable heuristic : Sched.Heuristic.kind;
  mutable allow_optional : bool;
  mutable mode : mode;
  mutable status : status;
  mutable last : int;  (* previously selected instruction, -1 at start *)
  mutable cycles : int;
      (* slots emitted so far, stalls included; each issue's cycle is
         the ready list's, so the ant keeps no slot buffer *)
  mutable n_optional : int;
  mutable work : int;
  (* last-step report, overwritten by each step (the divergence and
     memory models read these instead of a per-step event record) *)
  mutable last_rank : int;  (* Divergence path rank: 0 exploit, 1 explore,
                               2 mandatory stall, 3 optional stall, 4 death *)
  mutable last_instr : int;
  mutable last_explored : bool;
  mutable last_scanned : int;
  mutable last_succs : int;
}

let arena_demand shared =
  let ints =
    (2 * Sched.Ready_list.int_demand shared.s_graph)
    + Sched.Rp_tracker.int_demand shared.s_layout
  in
  (ints, 0 (* float state moved wholesale to the Fmat data plane *))

(* Rows/columns of one ant's slice of the score matrix: the two rows
   documented on [t], each wide enough for the ub+2-entry selection
   scratch. *)
let fmat_rows = 2

let fmat_demand shared = (fmat_rows, max 1 shared.s_ready_ub + 2)

(* The stream of an ant that has not started yet; [start] installs the
   real one. Shared by every ant: an ant that is not active never
   draws. *)
let unstarted = Support.Rng.create 0

let create ?shared ?arena ?fmat graph params =
  let shared =
    match shared with
    | Some s ->
        if s.s_graph != graph then invalid_arg "Ant.create: shared state is for another graph";
        if not (Float.equal s.s_beta params.Engine.Params.beta) then
          invalid_arg "Ant.create: shared eta^beta rows are for another beta";
        s
    | None ->
        (* Stand-alone ants skip the closure: [n] is always a valid
           ready-list bound. *)
        prepare_shared ~ready_ub:graph.Ddg.Graph.n ~beta:params.Engine.Params.beta graph
  in
  let arena =
    match arena with
    | Some a -> a
    | None ->
        let ints, floats = arena_demand shared in
        Support.Arena.create ~ints ~floats
  in
  let ub = max 1 shared.s_ready_ub in
  let rows, cols = fmat_demand shared in
  let fm, row0 =
    match fmat with
    | Some (fm, row0) ->
        if
          row0 < 0
          || row0 + rows > Support.Fmat.rows fm
          || Support.Fmat.cols fm < cols
        then invalid_arg "Ant.create: score matrix slice too small";
        (fm, row0)
    | None -> (Support.Fmat.create ~rows ~cols, 0)
  in
  let rp = Sched.Rp_tracker.create_in arena shared.s_layout in
  {
    graph;
    params;
    rl_order = Sched.Ready_list.create_in ~latency_aware:false arena graph;
    rl_cycle = Sched.Ready_list.create_in ~latency_aware:true arena graph;
    rp;
    ctx = Sched.Heuristic.make_ctx ~cp:shared.s_cp graph rp;
    cand = Array.make ub 0;
    fm;
    fd = fm.Support.Fmat.data;
    score_base = Support.Fmat.row_base fm row0;
    luc_base = Support.Fmat.row_base fm (row0 + 1);
    eta_cp = shared.s_eta_cp;
    eta_so = shared.s_eta_so;
    tails = shared.s_tails;
    rng = unstarted;
    heuristic = params.Engine.Params.heuristic;
    allow_optional = true;
    mode = Rp_pass;
    status = Dead;
    last = -1;
    cycles = 0;
    n_optional = 0;
    work = 0;
    last_rank = 4;
    last_instr = -1;
    last_explored = false;
    last_scanned = 0;
    last_succs = 0;
  }

let ready_list t = match t.mode with Rp_pass -> t.rl_order | Ilp_pass _ -> t.rl_cycle

let start t ~rng ~heuristic ~allow_optional_stalls mode =
  t.rng <- rng;
  t.heuristic <- heuristic;
  t.allow_optional <- allow_optional_stalls;
  t.mode <- mode;
  t.status <- Active;
  t.last <- -1;
  t.cycles <- 0;
  t.n_optional <- 0;
  t.work <- 0;
  Sched.Rp_tracker.reset t.rp;
  Sched.Ready_list.reset (ready_list t)

let status t = t.status

(* In the ILP pass the guiding heuristic adapts to the remaining RP
   headroom: close to the target, closing live ranges matters more than
   chasing the critical path (otherwise most ants die against tight
   targets and the pass degenerates to its initial schedule). *)
let effective_heuristic t =
  match t.mode with
  | Rp_pass -> t.heuristic
  | Ilp_pass { target_vgpr; target_sgpr } ->
      let headroom_v = target_vgpr - Sched.Rp_tracker.current t.rp Ir.Reg.Vgpr in
      let headroom_s = target_sgpr - Sched.Rp_tracker.current t.rp Ir.Reg.Sgpr in
      if headroom_v <= 2 || headroom_s <= 8 then Sched.Heuristic.Last_use_count
      else t.heuristic

(* [Support.Rng.float], bit for bit, without the boxed float a call
   across the module boundary returns: the roulette draw and the
   optional-stall coin stay allocation-free, so an ant step allocates
   nothing at all. *)
let[@inline] unit_float rng = float_of_int (Support.Rng.float_bits rng) *. 0x1p-53

(* ACS-style biased selection: with probability q0 exploit (argmax of
   tau^alpha * eta^beta), otherwise explore (roulette wheel over the same
   values). *)

(* Selection over the candidate slice [t.cand.(0 .. m-1)]: fill the
   score row with tau^a * eta^b, then exploit (argmax, first maximum
   wins) or explore (roulette wheel). Every float lives in the Fmat —
   raw unboxed loads and stores throughout, no boxing, no allocation.
   The float-operation order matches the seed's list folds exactly, so
   the constructed schedules are byte-identical. *)
let select_slice t ~pheromone ~explored m =
  if m = 0 then invalid_arg "Ant.select: empty candidate list"
  else if m = 1 then t.cand.(0)
  else begin
    let heuristic = effective_heuristic t in
    let ph = (Pheromone.mat pheromone).Support.Fmat.data in
    let base = Pheromone.row_base pheromone ~src:t.last in
    let alpha = t.params.Engine.Params.alpha in
    let fd = t.fd in
    let sb = t.score_base in
    (* tau^alpha * eta^beta per candidate. For the static heuristics
       eta^beta is a load from the colony's rows (bit-identical to
       recomputing: eta depends only on the instruction); LUC's eta
       depends on the live set and is recomputed each step into the
       scratch row. *)
    (match heuristic with
    | Sched.Heuristic.Critical_path | Sched.Heuristic.Source_order ->
        let eta = if heuristic = Sched.Heuristic.Critical_path then t.eta_cp else t.eta_so in
        for k = 0 to m - 1 do
          let i = Array.unsafe_get t.cand k in
          let tau = A1.unsafe_get ph (base + i) in
          A1.unsafe_set fd (sb + k) (pow_fast tau alpha *. Array.unsafe_get eta i)
        done
    | Sched.Heuristic.Last_use_count ->
        let beta = t.params.Engine.Params.beta in
        Sched.Heuristic.fill_luc_eta_mat t.ctx ~cand:t.cand ~n:m ~mat:t.fm
          ~base:t.luc_base;
        for k = 0 to m - 1 do
          let tau = A1.unsafe_get ph (base + Array.unsafe_get t.cand k) in
          A1.unsafe_set fd (sb + k)
            (pow_fast tau alpha *. pow_fast (A1.unsafe_get fd (t.luc_base + k)) beta)
        done);
    if explored then begin
      (* Wheel accumulators live in the score row past the candidate
         cells ([ub] and [ub+1]): Fmat stores keep the running sums
         unboxed where a local float [ref] may not be. *)
      let tot = sb + Array.length t.cand in
      let acc = tot + 1 in
      A1.unsafe_set fd tot 0.0;
      for k = 0 to m - 1 do
        A1.unsafe_set fd tot (A1.unsafe_get fd tot +. A1.unsafe_get fd (sb + k))
      done;
      let total = A1.unsafe_get fd tot in
      let u = unit_float t.rng in
      if total > 0.0 then begin
        (* Roulette wheel with early exit; like the seed's fold, the last
           candidate wins by default without a comparison (guarding
           against the accumulated sum falling short of [target] through
           rounding). *)
        let target = u *. total in
        A1.unsafe_set fd acc 0.0;
        let chosen = ref (m - 1) in
        let k = ref 0 in
        while !chosen = m - 1 && !k < m - 1 do
          A1.unsafe_set fd acc (A1.unsafe_get fd acc +. A1.unsafe_get fd (sb + !k));
          if A1.unsafe_get fd acc >= target then chosen := !k else incr k
        done;
        t.cand.(!chosen)
      end
      else
        (* Degenerate wheel: every value is zero (e.g. the row's
           pheromone underflowed), so the wheel would silently pick the
           first candidate every time. Fall back to a uniform pick,
           reusing the single draw the wheel consumes. *)
        t.cand.(min (m - 1) (int_of_float (u *. float_of_int m)))
    end
    else begin
      let bk = ref 0 in
      for k = 1 to m - 1 do
        if A1.unsafe_get fd (sb + k) > A1.unsafe_get fd (sb + !bk) then bk := k
      done;
      t.cand.(!bk)
    end
  end

let emit_instr t rl i =
  Sched.Ready_list.schedule rl i;
  Sched.Rp_tracker.schedule t.rp i;
  t.cycles <- t.cycles + 1;
  t.last <- i;
  if Sched.Ready_list.finished rl then t.status <- Finished

let emit_stall t rl =
  Sched.Ready_list.stall rl;
  t.cycles <- t.cycles + 1

let finish_step t ~rank ~instr ~explored ~scanned ~succs =
  t.last_rank <- rank;
  t.last_instr <- instr;
  t.last_explored <- explored;
  t.last_scanned <- scanned;
  t.last_succs <- succs;
  t.work <- t.work + scanned + succs + 3

let ready_count t =
  if t.status <> Active then 0 else Sched.Ready_list.ready_count (ready_list t)

(* The allocation-free step. [force_explore] is -1 (ant draws its own
   coin), 0 (exploit) or 1 (explore); [ready_limit] is 0 for unlimited.
   The step's kind/cost lands in the [last_*] fields. *)
let step_hot t ~pheromone ~force_explore ~ready_limit =
  if t.status <> Active then invalid_arg "Ant.step: ant is not active";
  let rl = ready_list t in
  let rn = Sched.Ready_list.ready_count rl in
  (* Limiting applies to the RP pass only: in the ILP pass a truncated
     view could hide the only candidate that fits the RP target and
     kill the ant spuriously. *)
  let m =
    match t.mode with
    | Rp_pass when ready_limit >= 1 && ready_limit < rn -> ready_limit
    | Rp_pass | Ilp_pass _ -> rn
  in
  Sched.Ready_list.blit_ready rl t.cand m;
  (* The exploration coin is drawn before the mode dispatch (even for a
     mandatory stall) so the RNG stream is independent of the decision —
     part of the construction's byte-identity contract. *)
  let explored =
    if force_explore >= 0 then force_explore = 1
    else not (Support.Rng.bool t.rng t.params.Engine.Params.q0)
  in
  match t.mode with
  | Rp_pass ->
      (* Latencies ignored: the ready list is never empty while work
         remains. *)
      let i = select_slice t ~pheromone ~explored m in
      emit_instr t rl i;
      finish_step t
        ~rank:(if explored then 1 else 0)
        ~instr:i ~explored ~scanned:m ~succs:(Ddg.Graph.num_succs t.graph i)
  | Ilp_pass { target_vgpr; target_sgpr } ->
      if m = 0 then begin
        emit_stall t rl;
        finish_step t ~rank:2 ~instr:(-1) ~explored ~scanned:0 ~succs:0
      end
      else begin
        (* [Stall_policy.classify_slice]'s decision ladder, inlined as
           straight-line integer code: the variant result it returned
           was the hot loop's last per-step allocation. Filter, coin
           and ordering are identical — the single optional-stall coin
           is drawn under exactly the same conditions, so the RNG
           stream position matches the historical ladder bit for bit. *)
        let has_semi_ready = Sched.Ready_list.has_semi_ready rl in
        let fitting =
          Sched.Rp_tracker.filter_fits_prefix t.rp ~cand:t.cand ~n_cand:m ~target_vgpr
            ~target_sgpr
        in
        if fitting = 0 then
          if t.allow_optional && has_semi_ready then begin
            emit_stall t rl;
            t.n_optional <- t.n_optional + 1;
            finish_step t ~rank:3 ~instr:(-1) ~explored ~scanned:m ~succs:0
          end
          else begin
            t.status <- Dead;
            finish_step t ~rank:4 ~instr:(-1) ~explored ~scanned:m ~succs:0
          end
        else if
          t.allow_optional && has_semi_ready && fitting < m
          && unit_float t.rng
             < t.params.Engine.Params.stall_base_probability *. (0.5 ** float_of_int t.n_optional)
        then begin
          emit_stall t rl;
          t.n_optional <- t.n_optional + 1;
          finish_step t ~rank:3 ~instr:(-1) ~explored ~scanned:m ~succs:0
        end
        else begin
          let i = select_slice t ~pheromone ~explored fitting in
          emit_instr t rl i;
          finish_step t
            ~rank:(if explored then 1 else 0)
            ~instr:i ~explored ~scanned:m ~succs:(Ddg.Graph.num_succs t.graph i)
        end
      end

let last_rank t = t.last_rank
let last_scanned t = t.last_scanned
let last_succs t = t.last_succs

let event_of_last t =
  let op =
    match t.last_rank with
    | 0 | 1 -> Selected { instr = t.last_instr; explored = t.last_explored }
    | 2 -> Mandatory_stall
    | 3 -> Optional_stall
    | _ -> Died
  in
  { op; ready_scanned = t.last_scanned; succs_updated = t.last_succs }

let step ?force_explore ?ready_limit t ~pheromone =
  let force_explore =
    match force_explore with None -> -1 | Some false -> 0 | Some true -> 1
  in
  let ready_limit = match ready_limit with None -> 0 | Some k -> max 0 k in
  step_hot t ~pheromone ~force_explore ~ready_limit;
  event_of_last t

let kill t = t.status <- Dead

let run_to_completion ?force_explore t ~pheromone =
  let fe = match force_explore with None -> -1 | Some false -> 0 | Some true -> 1 in
  while t.status = Active do
    step_hot t ~pheromone ~force_explore:fe ~ready_limit:0
  done

(* Instruction issued at each cycle, -1 for a stall: one issue per
   cycle, at the cycle the ready list recorded. *)
let by_cycle t =
  let rl = ready_list t in
  let slots = Array.make t.cycles (-1) in
  for i = 0 to t.graph.Ddg.Graph.n - 1 do
    let c = Sched.Ready_list.issue_cycle rl i in
    if c >= 0 then slots.(c) <- i
  done;
  slots

let slots t =
  Array.fold_right
    (fun i acc -> (if i < 0 then Sched.Schedule.Stall else Sched.Schedule.Instr i) :: acc)
    (by_cycle t) []

let order t =
  let slots = by_cycle t in
  let issued = Array.make (Array.fold_left (fun k i -> if i >= 0 then k + 1 else k) 0 slots) 0 in
  let k = ref 0 in
  Array.iter
    (fun i ->
      if i >= 0 then begin
        issued.(!k) <- i;
        incr k
      end)
    slots;
  issued

let schedule t =
  if t.status <> Finished then None
  else
    let latency_aware = match t.mode with Rp_pass -> false | Ilp_pass _ -> true in
    match Sched.Schedule.of_slots t.graph ~latency_aware (slots t) with
    | Ok s -> Some s
    | Error _ -> None

let peak t cls = Sched.Rp_tracker.peak t.rp cls
let rp_peaks t = (peak t Ir.Reg.Vgpr, peak t Ir.Reg.Sgpr)
let length t = t.cycles
let length_lb t = Sched.Ready_list.length_lb (ready_list t) ~tails:t.tails
let optional_stalls t = t.n_optional
let work t = t.work

(* The meter lives in the ant's RP tracker; the ant forwards it so
   drivers never reach into the tracker directly. *)
let scored_candidates t = Sched.Rp_tracker.scored_candidates t.rp
