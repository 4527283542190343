module A1 = Bigarray.Array1

type mode = Rp_pass | Ilp_pass of { target_vgpr : int; target_sgpr : int }

type status = Active | Finished | Dead

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

(* The engine hands backends a [Region_ctx] whose analyses are exactly
   the ones a colony shares; reusing them keeps a dispatch race at one
   analysis pass per region instead of one per backend. *)
let shared_of_region_ctx ~beta (rc : Engine.Region_ctx.t) =
  let graph = rc.Engine.Region_ctx.graph and cp = rc.Engine.Region_ctx.critpath in
  if Sched.Rp_tracker.layout_graph rc.Engine.Region_ctx.rp_layout != graph then
    invalid_arg "Ant.shared_of_region_ctx: register layout is for another graph";
  {
    s_graph = graph;
    s_cp = cp;
    s_layout = rc.Engine.Region_ctx.rp_layout;
    s_ready_ub = rc.Engine.Region_ctx.ready_ub;
    s_tails = rc.Engine.Region_ctx.tails;
    s_beta = beta;
    s_eta_cp = eta_pow_row Sched.Heuristic.Critical_path ~cp ~beta graph;
    s_eta_so = eta_pow_row Sched.Heuristic.Source_order ~cp ~beta graph;
  }

type t = {
  graph : Ddg.Graph.t;
  params : Engine.Params.t;
  store : Support.Arena.t;  (* the colony's store, shared by every lane *)
  rl : Sched.Ready_list.t;  (* latency-aware in pass 2 only; set at [start] *)
  rp : Sched.Rp_tracker.t;
  shared : shared;  (* the colony's: critical path, eta^beta rows *)
  (* The store's ints, where the ready list and the tracker keep their
     state: the step reads the ready prefix and the pressures there, in
     place, instead of copying the prefix or calling a query. *)
  ints : int array;
  ready_at : int;  (* the ready prefix starts here *)
  press_at : int;
      (* current VGPR and SGPR pressure, then the two peaks
         ([Sched.Rp_tracker.pressure_base]) *)
  cand : int array;  (* scratch: pass 2's fitting candidates, ready order *)
  (* The unboxed data plane: two rows of the store's score matrix,
     addressed by flat row bases. Row 0 is the selection scratch —
     tau^a * eta^b per candidate in columns [0..ub-1], the roulette
     total in column [ub] and the wheel accumulator in column [ub+1]
     (Fmat cells keep float sums unboxed, where a local [ref] may not
     be); row 1 is scratch for the dynamic LUC heuristic's eta. The
     static heuristics' eta^beta rows are the colony's ([shared]), read
     in place. *)
  fd : Support.Fmat.mat;
      (* the score matrix's raw backing store: the selection loops read
         and write through the concrete bigarray type so the accesses
         compile to unboxed float64 loads/stores even without
         cross-module inlining ([-opaque] dev builds) *)
  score_base : int;
  luc_base : int;
  mutable rng : Support.Rng.t;
  mutable heuristic : Sched.Heuristic.kind;
  mutable allow_optional : bool;
  mutable mode : mode;
  mutable status : status;
  mutable last : int;  (* previously selected instruction, -1 at start *)
  mutable cycles : int;
      (* cycles used so far, stalls included; each issue's cycle is
         the ready list's, so the ant keeps no per-cycle buffer *)
  mutable n_optional : int;
  mutable work : int;
  (* last-step report, overwritten by each step: what the divergence
     and memory models charge *)
  mutable last_rank : int;  (* 0 exploit, 1 explore, 2 mandatory stall,
                               3 optional stall, 4 death *)
  mutable last_scanned : int;
  mutable last_succs : int;
}

(* One lane's share of the store: the ints of one ready list and one
   RP tracker, and two score rows (documented on [t]), each wide enough
   for the ub+2-entry selection scratch. *)
let int_demand shared =
  Sched.Ready_list.int_demand shared.s_graph + Sched.Rp_tracker.int_demand shared.s_layout

let score_rows = 2
let score_cols shared = max 1 shared.s_ready_ub + 2

(* The stream of an ant that has not started yet; [start] installs the
   real one. Shared by every ant: an ant that is not active never
   draws. *)
let unstarted = Support.Rng.create 0

(* Lane [lane] of [store]: its tracker and ready list are the next two
   int segments, its score rows are rows [2 lane] and [2 lane + 1]. *)
let carve shared store params ~ring lane =
  let graph = shared.s_graph in
  let fm = Support.Arena.scores store in
  let row0 = lane * score_rows in
  let rp = Sched.Rp_tracker.create_in store shared.s_layout in
  let rl = Sched.Ready_list.create_in ~ring ~tails:shared.s_tails store graph in
  {
    graph;
    params;
    store;
    rl;
    rp;
    shared;
    ints = Support.Arena.ints store;
    ready_at = Sched.Ready_list.ready_offset rl;
    press_at = Sched.Rp_tracker.pressure_base rp;
    cand = Array.make (max 1 shared.s_ready_ub) 0;
    fd = fm.Support.Fmat.data;
    score_base = Support.Fmat.row_base fm row0;
    luc_base = Support.Fmat.row_base fm (row0 + 1);
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
    last_scanned = 0;
    last_succs = 0;
  }

let lanes shared ~count params =
  if not (Float.equal shared.s_beta params.Engine.Params.beta) then
    invalid_arg "Ant.lanes: shared eta^beta rows are for another beta";
  let store =
    Support.Arena.take ~ints:(count * int_demand shared) ~rows:(count * score_rows)
      ~cols:(score_cols shared)
  in
  (* one edge scan sizes every lane's pending ring *)
  Array.init count (carve shared store params ~ring:(Sched.Ready_list.ring_size shared.s_graph))

(* Every lane of one [lanes] call shares the store. *)
let release ants = if Array.length ants > 0 then Support.Arena.give ants.(0).store

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
  (* a labelled bool, not an optional argument: a [Some] boxed per start
     would land in the measured minor-words window *)
  Sched.Ready_list.restart t.rl
    ~latency_aware:(match mode with Rp_pass -> false | Ilp_pass _ -> true)

let status t = t.status

(* In the ILP pass the guiding heuristic adapts to the remaining RP
   headroom: close to the target, closing live ranges matters more than
   chasing the critical path (otherwise most ants die against tight
   targets and the pass degenerates to its initial schedule). *)
let effective_heuristic t =
  match t.mode with
  | Rp_pass -> t.heuristic
  | Ilp_pass { target_vgpr; target_sgpr } ->
      let headroom_v = target_vgpr - t.ints.(t.press_at) in
      let headroom_s = target_sgpr - t.ints.(t.press_at + 1) in
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

(* Selection over the candidate slice [src.(base .. base+m-1)] (the
   ready prefix in the store, or pass 2's fitting candidates in
   [t.cand]): fill the score row with tau^a * eta^b, then exploit
   (argmax, first maximum wins) or explore (roulette wheel). Every float
   lives in the Fmat — raw unboxed loads and stores throughout, no
   boxing, no allocation. The float-operation order matches the seed's
   list folds exactly, so the constructed schedules are
   byte-identical. *)
let select_slice t ~pheromone ~explored ~src ~base m =
  if m = 0 then invalid_arg "Ant.select: empty candidate list"
  else if m = 1 then src.(base)
  else begin
    let heuristic = effective_heuristic t in
    let ph = (Pheromone.mat pheromone).Support.Fmat.data in
    let row = Pheromone.row_base pheromone ~src:t.last in
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
        let eta =
          if heuristic = Sched.Heuristic.Critical_path then t.shared.s_eta_cp
          else t.shared.s_eta_so
        in
        for k = 0 to m - 1 do
          let i = Array.unsafe_get src (base + k) in
          let tau = A1.unsafe_get ph (row + i) in
          A1.unsafe_set fd (sb + k) (pow_fast tau alpha *. Array.unsafe_get eta i)
        done
    | Sched.Heuristic.Last_use_count ->
        let beta = t.params.Engine.Params.beta in
        Sched.Heuristic.fill_luc_eta_mat t.rp ~cp:t.shared.s_cp ~src ~base ~n:m ~mat:fd
          ~dst:t.luc_base;
        for k = 0 to m - 1 do
          let tau = A1.unsafe_get ph (row + Array.unsafe_get src (base + k)) in
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
        src.(base + !chosen)
      end
      else
        (* Degenerate wheel: every value is zero (e.g. the row's
           pheromone underflowed), so the wheel would silently pick the
           first candidate every time. Fall back to a uniform pick,
           reusing the single draw the wheel consumes. *)
        src.(base + min (m - 1) (int_of_float (u *. float_of_int m)))
    end
    else begin
      let bk = ref 0 in
      for k = 1 to m - 1 do
        if A1.unsafe_get fd (sb + k) > A1.unsafe_get fd (sb + !bk) then bk := k
      done;
      src.(base + !bk)
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

let finish_step t ~rank ~scanned ~succs =
  t.last_rank <- rank;
  t.last_scanned <- scanned;
  t.last_succs <- succs;
  t.work <- t.work + scanned + succs + 3

let ready_count t =
  if t.status <> Active then 0 else Sched.Ready_list.ready_count t.rl

(* Read off the rows here: [Ddg.Graph.num_succs] would be a generic
   application per step. *)
let succ_count (g : Ddg.Graph.t) i = g.succ_start.(i + 1) - g.succ_start.(i)

(* [force_explore] is -1 (ant draws its own coin), 0 (exploit) or 1
   (explore); [ready_limit] is 0 for unlimited. The step's kind and
   cost land in the [last_*] fields. *)
let step t ~pheromone ~force_explore ~ready_limit =
  if t.status <> Active then invalid_arg "Ant.step: ant is not active";
  let rl = t.rl in
  let rn = Sched.Ready_list.ready_count rl in
  (* Limiting applies to the RP pass only: in the ILP pass a truncated
     view could hide the only candidate that fits the RP target and
     kill the ant spuriously. *)
  let m =
    match t.mode with
    | Rp_pass when ready_limit >= 1 && ready_limit < rn -> ready_limit
    | Rp_pass | Ilp_pass _ -> rn
  in
  (* The exploration coin is drawn before the mode dispatch (even for a
     mandatory stall) so the RNG stream is independent of the decision —
     part of the construction's byte-identity contract. [unit_float]
     is [Rng.bool]'s draw bit for bit. *)
  let explored =
    if force_explore >= 0 then force_explore = 1
    else not (unit_float t.rng < t.params.Engine.Params.q0)
  in
  match t.mode with
  | Rp_pass ->
      (* Latencies ignored: the ready list is never empty while work
         remains. The candidates are the ready prefix, in place. *)
      let i = select_slice t ~pheromone ~explored ~src:t.ints ~base:t.ready_at m in
      emit_instr t rl i;
      finish_step t ~rank:(if explored then 1 else 0) ~scanned:m
        ~succs:(succ_count t.graph i)
  | Ilp_pass { target_vgpr; target_sgpr } ->
      if m = 0 then begin
        emit_stall t rl;
        finish_step t ~rank:2 ~scanned:0 ~succs:0
      end
      else begin
        (* The optional-stall decision ladder of Section IV-C over the
           fitting candidates, as straight-line integer code (a variant
           result would be a per-step allocation). Filter, coin and
           ordering match the reference ant's list-level ladder
           (test/ant_ref.ml) — the single optional-stall coin is drawn
           under exactly the same conditions, so the RNG stream
           position matches it bit for bit. *)
        let has_semi_ready = Sched.Ready_list.has_semi_ready rl in
        let fitting =
          Sched.Rp_tracker.filter_fits t.rp ~src:t.ints ~base:t.ready_at ~n_cand:m ~into:t.cand
            ~target_vgpr ~target_sgpr
        in
        if fitting = 0 then
          if t.allow_optional && has_semi_ready then begin
            emit_stall t rl;
            t.n_optional <- t.n_optional + 1;
            finish_step t ~rank:3 ~scanned:m ~succs:0
          end
          else begin
            t.status <- Dead;
            finish_step t ~rank:4 ~scanned:m ~succs:0
          end
        else if
          t.allow_optional && has_semi_ready && fitting < m
          && unit_float t.rng
             < t.params.Engine.Params.stall_base_probability *. (0.5 ** float_of_int t.n_optional)
        then begin
          emit_stall t rl;
          t.n_optional <- t.n_optional + 1;
          finish_step t ~rank:3 ~scanned:m ~succs:0
        end
        else begin
          let i = select_slice t ~pheromone ~explored ~src:t.cand ~base:0 fitting in
          emit_instr t rl i;
          finish_step t ~rank:(if explored then 1 else 0) ~scanned:m
            ~succs:(succ_count t.graph i)
        end
      end

let last_rank t = t.last_rank
let last_scanned t = t.last_scanned
let last_succs t = t.last_succs

let kill t = t.status <- Dead

(* The CPU colony's whole ant in one call: step until the ant finishes
   or dies, or until its cost bound reaches [cutoff]. The cost is the
   length (schedule pass only) plus [term] of the peaks; both running
   values are lower bounds on the final ones and the cost is
   nondecreasing in each, so a bound at the cutoff means the ant cannot
   win. The term is re-evaluated only when a peak rises, so the
   per-step test is an integer compare, and the O(1) over-estimate of
   the length bound screens the exact one: the exact bound is scanned
   only when the over-estimate reaches the cutoff, which leaves every
   kill where the exact check puts it. Status and peaks are read in
   place: per step the loop calls only the step and the over-estimate,
   neither through the generic application. *)
let run t ~pheromone ~term ~cutoff =
  if cutoff = max_int then
    while t.status = Active do
      step t ~pheromone ~force_explore:(-1) ~ready_limit:0
    done
  else begin
    let ints = t.ints and pk = t.press_at + 2 in
    let schedule_pass = match t.mode with Rp_pass -> false | Ilp_pass _ -> true in
    let vgpr = ref (-1) and sgpr = ref (-1) and cost = ref 0 in
    while t.status = Active do
      step t ~pheromone ~force_explore:(-1) ~ready_limit:0;
      if t.status = Active then begin
        let v = ints.(pk) and s = ints.(pk + 1) in
        if v > !vgpr || s > !sgpr then begin
          vgpr := v;
          sgpr := s;
          cost := term ~vgpr:v ~sgpr:s;
          if (not schedule_pass) && !cost >= cutoff then t.status <- Dead
        end;
        if
          schedule_pass
          && Sched.Ready_list.length_lb_hi t.rl + !cost >= cutoff
          && Sched.Ready_list.length_lb t.rl + !cost >= cutoff
        then t.status <- Dead
      end
    done
  end

let no_term ~vgpr:_ ~sgpr:_ = 0
let run_to_completion t ~pheromone = run t ~pheromone ~term:no_term ~cutoff:max_int

(* The read-out sorts instructions by the cycle the ready list recorded
   for each (-1 for the unissued, which sort first and are dropped):
   arrays sized by the instructions, never by the cycles. *)
let order t =
  let cycle = Sched.Ready_list.issue_cycle t.rl in
  let n = t.graph.Ddg.Graph.n in
  let ids = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare (cycle a) (cycle b)) ids;
  match Array.find_index (fun i -> cycle i >= 0) ids with
  | Some 0 -> ids
  | Some first -> Array.sub ids first (n - first)
  | None -> [||]

let schedule t =
  if t.status <> Finished then None
  else
    let latency_aware = match t.mode with Rp_pass -> false | Ilp_pass _ -> true in
    let cycles = Array.init t.graph.Ddg.Graph.n (Sched.Ready_list.issue_cycle t.rl) in
    Result.to_option (Sched.Schedule.of_cycles t.graph ~latency_aware cycles)

let peak t cls = Sched.Rp_tracker.peak t.rp cls
let rp_peaks t = (peak t Ir.Reg.Vgpr, peak t Ir.Reg.Sgpr)
let length t = t.cycles
let length_lb t = Sched.Ready_list.length_lb t.rl
let length_lb_hi t = Sched.Ready_list.length_lb_hi t.rl
let optional_stalls t = t.n_optional
let work t = t.work

(* The meter lives in the ant's RP tracker; the ant forwards it so
   drivers never reach into the tracker directly. *)
let scored_candidates t = Sched.Rp_tracker.scored_candidates t.rp
