(* The tracker is split into a shared immutable [layout] — the interned
   register universe, per-instruction Def/Use id arrays, each register's
   definers and the whole initial state — identical for every ant
   scheduling the same region, and a small per-ant mutable state carved
   out of a caller-supplied arena (or a private backing array). A colony
   of 64 lanes therefore interns registers once and packs all 64
   trackers' state into one allocation (Section V-A's batched SoA
   layout).

   Besides liveness and pressure, the state holds, per instruction and
   class, the net effect (live ranges opened minus closed) issuing that
   instruction now would have, so every query is an array read. A
   register [r] of class c contributes to those effects in two ways:
   - while [r] is dead, every definer of [r] opens it (+1);
   - while [r] is live, not live-out and has exactly one unscheduled
     user, that user closes it (-1). Per register the state keeps the
     number of unscheduled distinct users and the XOR of their ids, so
     when the count drops to one the XOR names the user.
   [schedule] moves these contributions whenever a register's liveness
   or its user count changes: O(uses + defs) per issue, plus one pass
   over a register's definers when its liveness flips (one definer in
   SSA code). A scheduled instruction's effects go stale; no query may
   read them. *)

type layout = {
  graph : Ddg.Graph.t;
  rank : int array;  (* dense id -> class rank (0 VGPR, 1 SGPR) *)
  (* per-instruction dense register ids, precomputed so the hot path never
     hashes; a register used twice by one instruction appears once *)
  use_ids : int array array;
  def_ids : int array array;
  live_out : bool array;
  (* definers of register r: def_list.(def_start.(r) .. def_start.(r + 1) - 1) *)
  def_start : int array;
  def_list : int array;
  (* the state [reset] restores, laid out exactly like a tracker's
     segment (see [t]) *)
  init : int array;
  nregs : int;
}

(* A tracker's segment of [buf], in this order: users (nregs), uxor
   (nregs), live (nregs), net (2n), cur (2), peak (2). *)
type t = {
  layout : layout;
  buf : int array;
  users_base : int;  (* unscheduled distinct users per register *)
  uxor_base : int;  (* XOR of those users' ids *)
  live_base : int;  (* 0/1 liveness flags *)
  net_base : int;  (* opens - closes of instruction i, class c at 2i + c *)
  cur_base : int;  (* current pressure, 2 entries (class rank) *)
  peak_base : int;  (* peak pressure, 2 entries *)
  (* Cumulative across [reset]s (it meters work, not schedule state);
     drivers snapshot it around a pass. *)
  mutable scored : int;
}

let rank = function Ir.Reg.Vgpr -> 0 | Ir.Reg.Sgpr -> 1

(* Layout construction is the per-region interning pass; the compile
   service's "one layout per distinct region" gate counts invocations
   here, as [Ddg.Closure.compute_count] does for closures. *)
let layouts = Atomic.make 0

let layout_count () = Atomic.get layouts

(* Whether [ids.(k)] repeats an earlier entry. *)
let repeats ids k =
  let found = ref false in
  for j = 0 to k - 1 do
    if ids.(j) = ids.(k) then found := true
  done;
  !found

(* [ids] without repeats, first occurrences kept in order. Use sets are
   tiny and rarely repeat a register, so the common case returns [ids]
   itself. *)
let distinct ids =
  let m = Array.length ids in
  let dups = ref 0 in
  for k = 1 to m - 1 do
    if repeats ids k then incr dups
  done;
  if !dups = 0 then ids
  else begin
    let out = Array.make (m - !dups) 0 in
    let w = ref 0 in
    for k = 0 to m - 1 do
      if not (repeats ids k) then begin
        out.(!w) <- ids.(k);
        incr w
      end
    done;
    out
  end

(* Counted loops below, not [Array.iter]: the layout is built once per
   region inside the analysis, and a closure per instruction would
   outweigh the tables it fills. *)
let layout_of_graph (graph : Ddg.Graph.t) =
  Atomic.incr layouts;
  let region = graph.region in
  let instrs = (region : Ir.Region.t).instrs in
  let n = Array.length instrs in
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
    Array.map
      (fun (ins : Ir.Instr.t) -> distinct (Array.of_list (List.map intern ins.uses)))
      instrs
  in
  let def_ids =
    Array.map (fun (ins : Ir.Instr.t) -> Array.of_list (List.map intern ins.defs)) instrs
  in
  List.iter (fun r -> ignore (intern r)) (region : Ir.Region.t).live_out;
  let live_in = Ir.Region.live_in region in
  List.iter (fun r -> ignore (intern r)) live_in;
  let nregs = max !next 1 in
  let rank_of = Array.make nregs 0 in
  Hashtbl.iter (fun (r : Ir.Reg.t) i -> rank_of.(i) <- rank r.cls) index;
  let live_out = Array.make nregs false in
  List.iter (fun r -> live_out.(Hashtbl.find index r) <- true) (region : Ir.Region.t).live_out;
  (* definer lists, CSR: count per register, running sums (entry r is
     then the end of r's list), and a back-to-front fill that moves each
     entry down to its list's start, so every list ascends *)
  let def_start = Array.make (nregs + 1) 0 in
  for i = 0 to n - 1 do
    let defs = def_ids.(i) in
    for k = 0 to Array.length defs - 1 do
      def_start.(defs.(k)) <- def_start.(defs.(k)) + 1
    done
  done;
  for r = 1 to nregs - 1 do
    def_start.(r) <- def_start.(r) + def_start.(r - 1)
  done;
  def_start.(nregs) <- def_start.(nregs - 1);
  let def_list = Array.make def_start.(nregs) 0 in
  for i = n - 1 downto 0 do
    let defs = def_ids.(i) in
    for k = 0 to Array.length defs - 1 do
      let d = defs.(k) in
      def_start.(d) <- def_start.(d) - 1;
      def_list.(def_start.(d)) <- i
    done
  done;
  (* the initial state: every instruction unscheduled, live-ins live *)
  let users = 0 and uxor = nregs and live = 2 * nregs and net = 3 * nregs in
  let cur = net + (2 * n) in
  let init = Array.make (cur + 4) 0 in
  for i = 0 to n - 1 do
    let uses = use_ids.(i) in
    for k = 0 to Array.length uses - 1 do
      let u = uses.(k) in
      init.(users + u) <- init.(users + u) + 1;
      init.(uxor + u) <- init.(uxor + u) lxor i
    done
  done;
  List.iter
    (fun r ->
      let id = Hashtbl.find index r in
      init.(live + id) <- 1;
      init.(cur + rank_of.(id)) <- init.(cur + rank_of.(id)) + 1)
    live_in;
  init.(cur + 2) <- init.(cur);
  init.(cur + 3) <- init.(cur + 1);
  (* each effect straight from its definition (the invariant [schedule]
     maintains): a def of a dead register opens it; a use closes a live,
     not-live-out register it is the only user of *)
  for i = 0 to n - 1 do
    let defs = def_ids.(i) and uses = use_ids.(i) in
    for k = 0 to Array.length defs - 1 do
      let d = defs.(k) in
      if init.(live + d) = 0 then
        init.(net + (2 * i) + rank_of.(d)) <- init.(net + (2 * i) + rank_of.(d)) + 1
    done;
    for k = 0 to Array.length uses - 1 do
      let u = uses.(k) in
      if init.(users + u) = 1 && init.(live + u) = 1 && not live_out.(u) then
        init.(net + (2 * i) + rank_of.(u)) <- init.(net + (2 * i) + rank_of.(u)) - 1
    done
  done;
  { graph; rank = rank_of; use_ids; def_ids; live_out; def_start; def_list; init; nregs }

let layout_graph layout = layout.graph
let int_demand layout = Array.length layout.init

(* Counted loop, not [Array.blit]: the arena's backing array lives in
   the major heap, where OCaml 5 blits an int array element by element
   through the write barrier ([caml_modify]); this runs at every ant
   start. *)
let reset t =
  let init = t.layout.init and buf = t.buf and base = t.users_base in
  for k = 0 to Array.length init - 1 do
    Array.unsafe_set buf (base + k) (Array.unsafe_get init k)
  done

(* A tracker whose segment starts at [base] of [buf]. *)
let at layout buf base =
  let nregs = layout.nregs in
  let net_base = base + (3 * nregs) in
  let cur_base = net_base + (2 * layout.graph.Ddg.Graph.n) in
  {
    layout;
    buf;
    users_base = base;
    uxor_base = base + nregs;
    live_base = base + (2 * nregs);
    net_base;
    cur_base;
    peak_base = cur_base + 2;
    scored = 0;
  }

let create_in arena layout =
  let t = at layout (Support.Arena.ints arena) (Support.Arena.alloc_ints arena (int_demand layout)) in
  reset t;
  t

(* A stand-alone tracker's backing is a copy of the initial state: the
   schedulers and cost evaluations of a region's analysis create several
   per region. *)
let create ?layout graph =
  let layout =
    match layout with
    | Some l ->
        if l.graph != graph then invalid_arg "Rp_tracker.create: layout is for another graph";
        l
    | None -> layout_of_graph graph
  in
  at layout (Array.copy layout.init) 0

(* The hot updates below index [buf] without bounds checks: every index
   is a register id or instruction id of the layout plus the base of a
   segment [create_in]/[create] sized for it. *)
let[@inline] get (a : int array) k = Array.unsafe_get a k
let[@inline] set (a : int array) k (v : int) = Array.unsafe_set a k v

(* [r] dies: every definer of [r] opens it again. A register only dies
   once it has no unscheduled user, so no close moves. *)
let kill t r =
  let l = t.layout and buf = t.buf in
  let c = get l.rank r in
  set buf (t.live_base + r) 0;
  set buf (t.cur_base + c) (get buf (t.cur_base + c) - 1);
  for k = get l.def_start r to get l.def_start (r + 1) - 1 do
    let e = t.net_base + (2 * get l.def_list k) + c in
    set buf e (get buf e + 1)
  done

(* [r] opens: no definer opens it any more, and a last user already
   known now closes it. *)
let open_reg t r =
  let l = t.layout and buf = t.buf in
  let c = get l.rank r in
  set buf (t.live_base + r) 1;
  set buf (t.cur_base + c) (get buf (t.cur_base + c) + 1);
  for k = get l.def_start r to get l.def_start (r + 1) - 1 do
    let e = t.net_base + (2 * get l.def_list k) + c in
    set buf e (get buf e - 1)
  done;
  if get buf (t.users_base + r) = 1 && not (Array.unsafe_get l.live_out r) then begin
    let e = t.net_base + (2 * get buf (t.uxor_base + r)) + c in
    set buf e (get buf e - 1)
  end

(* Plain counted loops, not [Array.iter]: an iterated closure capturing
   [t] is a fresh minor-heap block per call, and [schedule] runs once per
   emitted instruction in the ant hot loop. Liveness follows the scan it
   replaces: uses close first, then defs open, the peak is taken, and
   only then does a def nothing reads any more die. *)
let schedule t i =
  let l = t.layout in
  let buf = t.buf in
  let uses = l.use_ids.(i) and defs = l.def_ids.(i) in
  for k = 0 to Array.length uses - 1 do
    let u = get uses k in
    let left = get buf (t.users_base + u) - 1 in
    set buf (t.users_base + u) left;
    set buf (t.uxor_base + u) (get buf (t.uxor_base + u) lxor i);
    if get buf (t.live_base + u) = 1 && not (Array.unsafe_get l.live_out u) then
      if left = 0 then kill t u
      else if left = 1 then begin
        (* the one user left closes [u] *)
        let e = t.net_base + (2 * get buf (t.uxor_base + u)) + get l.rank u in
        set buf e (get buf e - 1)
      end
  done;
  for k = 0 to Array.length defs - 1 do
    let d = get defs k in
    if get buf (t.live_base + d) = 0 then open_reg t d
  done;
  let cb = t.cur_base and pb = t.peak_base in
  if get buf cb > get buf pb then set buf pb (get buf cb);
  if get buf (cb + 1) > get buf (pb + 1) then set buf (pb + 1) (get buf (cb + 1));
  (* A def with no remaining uses and not live-out dies immediately after
     being counted at this instruction's point. *)
  for k = 0 to Array.length defs - 1 do
    let d = get defs k in
    if
      get buf (t.users_base + d) = 0
      && (not (Array.unsafe_get l.live_out d))
      && get buf (t.live_base + d) = 1
    then kill t d
  done

let current t cls = t.buf.(t.cur_base + rank cls)
let peak t cls = t.buf.(t.peak_base + rank cls)

let delta_if_scheduled t i cls = t.buf.(t.net_base + (2 * i) + rank cls)

(* The class-rank [c] peak right after issuing [i]; int comparisons, not
   the polymorphic [max]. *)
let[@inline] peak_after t i c =
  let buf = t.buf in
  let p = buf.(t.peak_base + c) and q = buf.(t.cur_base + c) + buf.(t.net_base + (2 * i) + c) in
  if q > p then q else p

let peak_if_scheduled t i cls = peak_after t i (rank cls)
let peaks_if_scheduled t i f = f ~vgpr:(peak_after t i 0) ~sgpr:(peak_after t i 1)

let fits_within t i ~target_vgpr ~target_sgpr =
  peak_after t i 0 <= target_vgpr && peak_after t i 1 <= target_sgpr

(* Stable filter: copy the candidates of [src.(base .. base+n_cand-1)]
   that fit the targets into [into], in order, and return their count.
   Equivalent to testing [fits_within] on each candidate, with the peak
   test and the headroom loads hoisted out of the loop. [src] is where
   the candidates already live (the ready list's store), so the one
   pass both reads them in place and compacts them.

   Shape notes for the hot loop:
   - Mask-and-select compaction: the candidate is stored at the write
     cursor unconditionally and the cursor advances by a computed 0/1
     bit. The cursor never passes the read count, so the blind store
     stays inside the [n_cand] cells checked below — no taken/not-taken
     branch.
   - The in-range tests fold into sign bits: [a <= b] for the small
     pressure integers here is the sign of [b - a], and two tests OR
     into one word whose sign is extracted with [asr 62] (any negative
     63-bit int has that bit set). *)
let filter_fits t ~src ~base ~n_cand ~into ~target_vgpr ~target_sgpr =
  if n_cand < 0 || base < 0 || base + n_cand > Array.length src || n_cand > Array.length into
  then invalid_arg "Rp_tracker.filter_fits";
  let buf = t.buf in
  if buf.(t.peak_base) > target_vgpr || buf.(t.peak_base + 1) > target_sgpr then 0
    (* the peak already exceeds a target: nothing can fit *)
  else begin
    let room_v = target_vgpr - buf.(t.cur_base) and room_s = target_sgpr - buf.(t.cur_base + 1) in
    let net = t.net_base in
    let m = ref 0 in
    for k = base to base + n_cand - 1 do
      let i = Array.unsafe_get src k in
      let e = net + (2 * i) in
      let d = (room_v - Array.unsafe_get buf e) lor (room_s - Array.unsafe_get buf (e + 1)) in
      Array.unsafe_set into !m i;
      m := !m + 1 + (d asr 62)
    done;
    t.scored <- t.scored + n_cand;
    !m
  end

let scored_candidates t = t.scored

let closes_minus_opens t i =
  let e = t.net_base + (2 * i) in
  -(t.buf.(e) + t.buf.(e + 1))

let store t = t.buf
let effects_base t = t.net_base
let pressure_base t = t.cur_base

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
