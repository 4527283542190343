(* The tracker is split into a shared immutable [layout] — the interned
   register universe and per-instruction Def/Use id arrays, identical for
   every ant scheduling the same region — and a small per-ant mutable
   state carved out of a caller-supplied arena (or a private backing
   array). A colony of 64 lanes therefore interns registers once and
   packs all 64 trackers' state into one allocation (Section V-A's
   batched SoA layout). *)

type layout = {
  graph : Ddg.Graph.t;
  cls : Ir.Reg.cls array;  (* dense id -> class *)
  (* per-instruction dense register ids, precomputed so the hot path never
     hashes *)
  use_ids : int array array;
  def_ids : int array array;
  (* per-instruction def counts by class: scheduling [i] can raise a
     class's pressure by at most this many opens, which gives the hot
     fits check a sound fast path that skips the per-register scan *)
  defs_v : int array;
  defs_s : int array;
  (* candidate-pruning tables (sound lower bounds; see
     [filter_fits_prefix]), attached by [with_pruning_tables] and empty
     otherwise; only read when [prunable]: [min_delta_*.(i)] bounds from
     below the current-pressure change of scheduling [i] at any point
     (single-definer non-live-in opens minus distinct non-live-out-use
     closes); [min_lb_*.(i)] is the static Chen-style bound from
     [Ddg.Lower_bounds.min_reg_lb]. *)
  prunable : bool;
  min_delta_v : int array;
  min_delta_s : int array;
  min_lb_v : int array;
  min_lb_s : int array;
  total_uses : int array;
  live_out : bool array;
  live_in : bool array;
  nregs : int;
}

type t = {
  layout : layout;
  buf : int array;
  rem_base : int;  (* remaining use counts, nregs entries *)
  live_base : int;  (* 0/1 liveness flags, nregs entries *)
  cur_base : int;  (* current pressure, 2 entries (class rank) *)
  peak_base : int;  (* peak pressure, 2 entries *)
  eff_base : int;  (* effects scratch, 4 entries (see [compute_effects]) *)
  (* Candidate pruning: off by default so the tracker is byte-identical
     to the historical one; a backend flips it on as a declared
     capability. The counters are cumulative across [reset]s (they meter
     work, not schedule state); drivers snapshot them around a pass. *)
  mutable prune : bool;
  mutable scored : int;
  mutable pruned : int;
}

let rank = function Ir.Reg.Vgpr -> 0 | Ir.Reg.Sgpr -> 1

(* Layout construction is the per-region interning pass; the compile
   service's "one layout per distinct region" gate counts invocations
   here, as [Ddg.Closure.compute_count] does for closures. *)
let layouts = Atomic.make 0

let layout_count () = Atomic.get layouts

let layout_of_graph (graph : Ddg.Graph.t) =
  Atomic.incr layouts;
  let region = graph.region in
  let instrs = (region : Ir.Region.t).instrs in
  let index = Hashtbl.create 64 in
  let next = ref 0 in
  let intern r =
    match Hashtbl.find_opt index r with
    | Some i -> i
    | None ->
        let i = !next in
        Hashtbl.add index r i;
        incr next;
        i
  in
  let use_ids =
    Array.map (fun (ins : Ir.Instr.t) -> Array.of_list (List.map intern ins.uses)) instrs
  in
  let def_ids =
    Array.map (fun (ins : Ir.Instr.t) -> Array.of_list (List.map intern ins.defs)) instrs
  in
  List.iter (fun r -> ignore (intern r)) (region : Ir.Region.t).live_out;
  List.iter (fun r -> ignore (intern r)) (Ir.Region.live_in region);
  let nregs = max !next 1 in
  let cls = Array.make nregs Ir.Reg.Vgpr in
  Hashtbl.iter (fun (r : Ir.Reg.t) i -> cls.(i) <- r.cls) index;
  let total_uses = Array.make nregs 0 in
  Array.iter (Array.iter (fun i -> total_uses.(i) <- total_uses.(i) + 1)) use_ids;
  let live_out = Array.make nregs false in
  List.iter (fun r -> live_out.(Hashtbl.find index r) <- true) (region : Ir.Region.t).live_out;
  let live_in = Array.make nregs false in
  List.iter (fun r -> live_in.(Hashtbl.find index r) <- true) (Ir.Region.live_in region);
  let n = Array.length def_ids in
  let defs_v = Array.make n 0 and defs_s = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.iter
      (fun di ->
        match cls.(di) with
        | Ir.Reg.Vgpr -> defs_v.(i) <- defs_v.(i) + 1
        | Ir.Reg.Sgpr -> defs_s.(i) <- defs_s.(i) + 1)
      def_ids.(i)
  done;
  {
    graph;
    cls;
    use_ids;
    def_ids;
    defs_v;
    defs_s;
    prunable = false;
    min_delta_v = [||];
    min_delta_s = [||];
    min_lb_v = [||];
    min_lb_s = [||];
    total_uses;
    live_out;
    live_in;
    nregs;
  }

let with_pruning_tables l closure =
  let n = Array.length l.def_ids in
  (* [min_delta]: a def that is not live-in and has a single definer can
     never be live before its definer issues, so it opens
     unconditionally; a use can close at most once, and only if it is
     not live-out. Hence (certain opens - potential closes) lower bounds
     the current-pressure delta of [compute_effects] in any tracker
     state, and [cur + min_delta > target] implies the candidate cannot
     pass [fits_within]. *)
  let def_count = Array.make l.nregs 0 in
  Array.iter (Array.iter (fun di -> def_count.(di) <- def_count.(di) + 1)) l.def_ids;
  let min_delta_v = Array.make n 0 and min_delta_s = Array.make n 0 in
  for i = 0 to n - 1 do
    let opens_v = ref 0 and opens_s = ref 0 in
    Array.iter
      (fun di ->
        if (not l.live_in.(di)) && def_count.(di) = 1 then
          match l.cls.(di) with
          | Ir.Reg.Vgpr -> incr opens_v
          | Ir.Reg.Sgpr -> incr opens_s)
      l.def_ids.(i);
    let closes_v = ref 0 and closes_s = ref 0 in
    let uses = l.use_ids.(i) in
    for k = 0 to Array.length uses - 1 do
      let ui = uses.(k) in
      (* distinct uses only: count the first occurrence *)
      let first = ref true in
      for j = 0 to k - 1 do
        if uses.(j) = ui then first := false
      done;
      if !first && not l.live_out.(ui) then
        match l.cls.(ui) with
        | Ir.Reg.Vgpr -> incr closes_v
        | Ir.Reg.Sgpr -> incr closes_s
    done;
    min_delta_v.(i) <- !opens_v - !closes_v;
    min_delta_s.(i) <- !opens_s - !closes_s
  done;
  {
    l with
    prunable = true;
    min_delta_v;
    min_delta_s;
    min_lb_v = Ddg.Lower_bounds.min_reg_lb closure l.graph Ir.Reg.Vgpr;
    min_lb_s = Ddg.Lower_bounds.min_reg_lb closure l.graph Ir.Reg.Sgpr;
  }

let min_reg_lb l cls =
  if not l.prunable then None
  else Some (Array.copy (match cls with Ir.Reg.Vgpr -> l.min_lb_v | Ir.Reg.Sgpr -> l.min_lb_s))

let int_demand layout = (2 * layout.nregs) + 8

let reset t =
  let l = t.layout in
  let buf = t.buf in
  Array.blit l.total_uses 0 buf t.rem_base l.nregs;
  buf.(t.cur_base) <- 0;
  buf.(t.cur_base + 1) <- 0;
  for i = 0 to l.nregs - 1 do
    if l.live_in.(i) then begin
      buf.(t.live_base + i) <- 1;
      let c = rank l.cls.(i) in
      buf.(t.cur_base + c) <- buf.(t.cur_base + c) + 1
    end
    else buf.(t.live_base + i) <- 0
  done;
  buf.(t.peak_base) <- buf.(t.cur_base);
  buf.(t.peak_base + 1) <- buf.(t.cur_base + 1)

let create_in arena layout =
  let base = Support.Arena.alloc_ints arena (int_demand layout) in
  let t =
    {
      layout;
      buf = Support.Arena.ints arena;
      rem_base = base;
      live_base = base + layout.nregs;
      cur_base = base + (2 * layout.nregs);
      peak_base = base + (2 * layout.nregs) + 2;
      eff_base = base + (2 * layout.nregs) + 4;
      prune = false;
      scored = 0;
      pruned = 0;
    }
  in
  reset t;
  t

let create ?layout graph =
  let layout =
    match layout with
    | Some l ->
        if l.graph != graph then invalid_arg "Rp_tracker.create: layout is for another graph";
        l
    | None -> layout_of_graph graph
  in
  let arena = Support.Arena.create ~ints:(int_demand layout) ~floats:0 in
  create_in arena layout

let copy t =
  let buf = Array.copy t.buf in
  (* A private copy keeps the source's offsets but its own backing, so
     the two trackers evolve independently even when the source lives in
     a shared arena. *)
  { t with buf }

(* Plain counted loops, not [Array.iter]: an iterated closure capturing
   [t] is a fresh minor-heap block per call, and [schedule] runs once per
   emitted instruction in the ant hot loop. The loop bodies are verbatim
   the old closure bodies. *)
let schedule t i =
  let l = t.layout in
  let buf = t.buf in
  let uses = l.use_ids.(i) and defs = l.def_ids.(i) in
  for k = 0 to Array.length uses - 1 do
    let ui = Array.unsafe_get uses k in
    buf.(t.rem_base + ui) <- buf.(t.rem_base + ui) - 1;
    if buf.(t.rem_base + ui) = 0 && (not l.live_out.(ui)) && buf.(t.live_base + ui) = 1
    then begin
      buf.(t.live_base + ui) <- 0;
      let c = rank l.cls.(ui) in
      buf.(t.cur_base + c) <- buf.(t.cur_base + c) - 1
    end
  done;
  for k = 0 to Array.length defs - 1 do
    let di = Array.unsafe_get defs k in
    if buf.(t.live_base + di) = 0 then begin
      buf.(t.live_base + di) <- 1;
      let c = rank l.cls.(di) in
      buf.(t.cur_base + c) <- buf.(t.cur_base + c) + 1
    end
  done;
  if buf.(t.cur_base) > buf.(t.peak_base) then buf.(t.peak_base) <- buf.(t.cur_base);
  if buf.(t.cur_base + 1) > buf.(t.peak_base + 1) then
    buf.(t.peak_base + 1) <- buf.(t.cur_base + 1);
  (* A def with no remaining uses and not live-out dies immediately after
     being counted at this instruction's point. *)
  for k = 0 to Array.length defs - 1 do
    let di = Array.unsafe_get defs k in
    if buf.(t.rem_base + di) = 0 && (not l.live_out.(di)) && buf.(t.live_base + di) = 1
    then begin
      buf.(t.live_base + di) <- 0;
      let c = rank l.cls.(di) in
      buf.(t.cur_base + c) <- buf.(t.cur_base + c) - 1
    end
  done

let current t cls = t.buf.(t.cur_base + rank cls)
let peak t cls = t.buf.(t.peak_base + rank cls)

let peak_excess t ~target_vgpr ~target_sgpr =
  (max 0 (t.buf.(t.peak_base) - target_vgpr), max 0 (t.buf.(t.peak_base + 1) - target_sgpr))

(* One-pass, allocation-free analysis of scheduling [i]: per class, the
   live ranges it would close and open. Duplicate uses of one register in
   the same instruction are counted by multiplicity with a quadratic scan
   (Def/Use sets are tiny). Results land in the tracker's own arena slice
   at [eff_base] (closed_v; opened_v; closed_s; opened_s) — per-tracker,
   not module-global, so colonies on different domains never share it.
   Counted loops only, as in [schedule]: this runs once per candidate in
   the fit filter's slow path and in the Last-Use-Count heuristic, so an
   iterated closure here would be a minor-heap block per candidate. *)

let compute_effects t i =
  let l = t.layout in
  let buf = t.buf in
  let e = t.eff_base in
  Array.fill buf e 4 0;
  let uses = l.use_ids.(i) and defs = l.def_ids.(i) in
  let n_uses = Array.length uses in
  for k = 0 to n_uses - 1 do
    let ui = uses.(k) in
    (* multiplicity of ui among uses.(0..k) *)
    let mult = ref 0 in
    for j = 0 to k do
      if uses.(j) = ui then incr mult
    done;
    if buf.(t.rem_base + ui) = !mult && (not l.live_out.(ui)) && buf.(t.live_base + ui) = 1
    then begin
      (* this occurrence is the last outstanding use *)
      let last_occurrence = ref true in
      for j = k + 1 to n_uses - 1 do
        if uses.(j) = ui then last_occurrence := false
      done;
      if !last_occurrence then
        let c = rank l.cls.(ui) in
        buf.(e + (2 * c)) <- buf.(e + (2 * c)) + 1
    end
  done;
  for k = 0 to Array.length defs - 1 do
    let di = Array.unsafe_get defs k in
    if buf.(t.live_base + di) = 0 then begin
      (* already-opened within this instruction? defs are unique *)
      let c = rank l.cls.(di) in
      buf.(e + (2 * c) + 1) <- buf.(e + (2 * c) + 1) + 1
    end
  done

let delta_if_scheduled t i cls =
  compute_effects t i;
  let c = rank cls in
  t.buf.(t.eff_base + (2 * c) + 1) - t.buf.(t.eff_base + (2 * c))

(* The class-rank [c] peak right after the instruction whose effects
   [compute_effects] last left in the scratch. *)
let peak_after t c =
  max t.buf.(t.peak_base + c)
    (t.buf.(t.cur_base + c)
    - t.buf.(t.eff_base + (2 * c))
    + t.buf.(t.eff_base + (2 * c) + 1))

let peak_if_scheduled t i cls =
  compute_effects t i;
  peak_after t (rank cls)

let peaks_if_scheduled t i f =
  compute_effects t i;
  f ~vgpr:(peak_after t 0) ~sgpr:(peak_after t 1)

let fits_within t i ~target_vgpr ~target_sgpr =
  let l = t.layout in
  let buf = t.buf in
  (* Fast path: the post-schedule pressure is at most cur + defs of the
     class (every open is a def; closes only lower it), so when even
     that bound fits there is no need to scan the registers. With the
     generous targets of early ILP iterations this covers almost every
     candidate. *)
  if
    max buf.(t.peak_base) (buf.(t.cur_base) + l.defs_v.(i)) <= target_vgpr
    && max buf.(t.peak_base + 1) (buf.(t.cur_base + 1) + l.defs_s.(i)) <= target_sgpr
  then true
  else begin
    compute_effects t i;
    let e = t.eff_base in
    let v = max buf.(t.peak_base) (buf.(t.cur_base) - buf.(e) + buf.(e + 1)) in
    let s = max buf.(t.peak_base + 1) (buf.(t.cur_base + 1) - buf.(e + 2) + buf.(e + 3)) in
    v <= target_vgpr && s <= target_sgpr
  end

(* Stable in-place filter: compact the candidates of [cand.(0..n_cand-1)]
   that fit the targets into the prefix, preserving order, and return
   their count. Equivalent to testing [fits_within] on each candidate,
   with the pressure loads hoisted out of the loop.

   Shape notes for the hot loop:
   - Mask-and-select compaction: the candidate is stored at the write
     cursor unconditionally and the cursor advances by a computed 0/1
     bit. Positions below the cursor are already-kept candidates and the
     cursor never passes the read index, so the blind store can only
     touch consumed or duplicate cells — no taken/not-taken branch on
     the common path.
   - The in-range tests fold into sign bits: [a <= b] for the small
     pressure integers here is the sign of [b - a], and two tests OR
     into one word whose sign is extracted with [asr 62] (any negative
     63-bit int has that bit set).
   - Pruning, when armed: a candidate that misses the defs-bound fast
     path is first tested against the layout's sound lower bounds
     ([min_lb]: static Chen bound on unavoidable pressure at its issue
     point; [cur + min_delta]: certain opens minus potential closes).
     Either bound exceeding a target proves [fits_within] false, so the
     quadratic [compute_effects] scan is skipped and the candidate is
     dropped — same prefix, same count, strictly less work. [scored]
     and [pruned] meter exactly that. *)
let filter_fits_prefix t ~cand ~n_cand ~target_vgpr ~target_sgpr =
  let l = t.layout in
  let buf = t.buf in
  let e = t.eff_base in
  let pv = buf.(t.peak_base) and ps = buf.(t.peak_base + 1) in
  let cv = buf.(t.cur_base) and cs = buf.(t.cur_base + 1) in
  if pv > target_vgpr || ps > target_sgpr then 0
    (* the peak already exceeds a target: nothing can fit *)
  else begin
    let m = ref 0 in
    let scored = ref 0 in
    let pruned = ref 0 in
    let prune = t.prune in
    for k = 0 to n_cand - 1 do
      let i = Array.unsafe_get cand k in
      let fast =
        (target_vgpr - cv - Array.unsafe_get l.defs_v i)
        lor (target_sgpr - cs - Array.unsafe_get l.defs_s i)
      in
      let bit =
        if fast >= 0 then begin
          incr scored;
          1
        end
        else if
          prune
          && (Array.unsafe_get l.min_lb_v i > target_vgpr
             || Array.unsafe_get l.min_lb_s i > target_sgpr
             || cv + Array.unsafe_get l.min_delta_v i > target_vgpr
             || cs + Array.unsafe_get l.min_delta_s i > target_sgpr)
        then begin
          incr pruned;
          0
        end
        else begin
          incr scored;
          compute_effects t i;
          let d =
            (target_vgpr - cv + buf.(e) - buf.(e + 1))
            lor (target_sgpr - cs + buf.(e + 2) - buf.(e + 3))
          in
          1 + (d asr 62)
        end
      in
      Array.unsafe_set cand !m i;
      m := !m + bit
    done;
    t.scored <- t.scored + !scored;
    t.pruned <- t.pruned + !pruned;
    !m
  end

let set_prune t flag =
  if flag && not t.layout.prunable then
    invalid_arg "Rp_tracker.set_prune: layout carries no pruning tables";
  t.prune <- flag
let prune_enabled t = t.prune
let scored_candidates t = t.scored
let pruned_candidates t = t.pruned

let closes_count t i =
  compute_effects t i;
  let e = t.eff_base in
  t.buf.(e) + t.buf.(e + 2)

let opens_count t i =
  compute_effects t i;
  let e = t.eff_base in
  t.buf.(e + 1) + t.buf.(e + 3)

let closes_minus_opens t i =
  (* One effects pass instead of two; same integer as
     [closes_count t i - opens_count t i]. *)
  compute_effects t i;
  let e = t.eff_base in
  t.buf.(e) + t.buf.(e + 2) - t.buf.(e + 1) - t.buf.(e + 3)

(* Independent reference implementation over live-range intervals; assumes
   single-definition registers (all generated workloads are SSA-like).
   A register is live at point p (the point just after the instruction at
   position p; p = -1 is region entry) iff it was born at or before p and
   either is live-out, or still has a use after p, or is a dead def born
   exactly at p. *)
let naive_peaks (graph : Ddg.Graph.t) order =
  let region = graph.region in
  let pos = Array.make graph.n 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  let births : (Ir.Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let deaths : (Ir.Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let has_uses : (Ir.Reg.t, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (ins : Ir.Instr.t) ->
      let p = pos.(ins.id) in
      List.iter
        (fun d ->
          match Hashtbl.find_opt births d with
          | Some b -> if p < b then Hashtbl.replace births d p
          | None -> Hashtbl.add births d p)
        ins.defs;
      List.iter
        (fun u ->
          Hashtbl.replace has_uses u ();
          match Hashtbl.find_opt deaths u with
          | Some dth -> if p > dth then Hashtbl.replace deaths u p
          | None -> Hashtbl.add deaths u p)
        ins.uses)
    (region : Ir.Region.t).instrs;
  let live_out r = Ir.Region.is_live_out region r in
  let all_regs =
    Hashtbl.fold (fun r _ acc -> r :: acc) has_uses []
    |> List.append (Hashtbl.fold (fun r _ acc -> r :: acc) births [])
    |> List.sort_uniq Ir.Reg.compare
  in
  let live_at r p =
    let birth = Option.value (Hashtbl.find_opt births r) ~default:(-1) in
    if birth > p then false
    else if live_out r then true
    else
      match Hashtbl.find_opt deaths r with
      | Some d -> d > p
      | None -> p = birth (* dead def: live only at its own point *)
  in
  let peaks = [| 0; 0 |] in
  for p = -1 to Array.length order - 1 do
    let counts = [| 0; 0 |] in
    List.iter
      (fun (r : Ir.Reg.t) -> if live_at r p then counts.(rank r.cls) <- counts.(rank r.cls) + 1)
      all_regs;
    peaks.(0) <- max peaks.(0) counts.(0);
    peaks.(1) <- max peaks.(1) counts.(1)
  done;
  fun cls -> peaks.(rank cls)
