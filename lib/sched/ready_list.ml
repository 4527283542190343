(* All per-list state lives as six n-sized segments and one ring of
   bucket heads in a flat int backing array (a caller-supplied arena or
   a private buffer), so a whole colony's ready lists come from one
   batched allocation (Section V-A).

   The pending set — instructions waiting only on latency — is a ring
   of per-cycle buckets, each a LIFO chain threaded through the [next]
   segment. An instruction issued at cycle c makes its successors ready
   no later than c + the largest edge weight max (latency, 1), so every
   pending entry lies within that many cycles past the current one and
   a ring of one more bucket than that never wraps onto a live bucket.
   An entry's cycle is its [earliest]; queueing it is two stores, and
   [advance] pops the one bucket of the cycle just reached, newest
   entry first (the order the construction's byte-identity contract
   fixes: it orders the candidates, and so every roulette draw).

   The list also keeps two over-estimates of the latency-aware length
   bound's maxima: the largest tail pushed onto the ready set and the
   largest ready cycle + tail + 1 queued as pending since the last
   exact evaluation, which resets both to the exact maxima. Removals
   leave them alone, so they only ever over-estimate. *)

type t = {
  graph : Ddg.Graph.t;
  mutable latency_aware : bool;  (* set at creation, changed only by [restart] *)
  tails : int array;
  buf : int array;
  unsched_preds : int;  (* base offsets into [buf], n entries each *)
  earliest : int;  (* valid once unsched_preds reaches 0; a pending entry's cycle *)
  sched_cycle : int;  (* -1 if unscheduled *)
  ready_base : int;  (* compact prefix of length ready_n *)
  pos_in_ready : int;  (* -1 when not in ready *)
  next : int;  (* the entry queued before this one in its bucket, -1 ends *)
  heads : int;  (* [ring] bucket heads, -1 when empty *)
  ring : int;
  mutable slot : int;  (* cycle mod ring: the current cycle's bucket *)
  mutable ready_n : int;
  mutable pend_n : int;
  mutable cycle : int;
  mutable scheduled_n : int;
  mutable ready_tail_hi : int;  (* >= every ready instruction's tail *)
  mutable pend_finish_hi : int;  (* >= every pending ready cycle + tail + 1 *)
}

(* One bucket past the largest edge weight max (latency, 1). *)
let ring_size (graph : Ddg.Graph.t) =
  let lat = graph.Ddg.Graph.succ_lat in
  let w = ref 1 in
  for k = 0 to Array.length lat - 1 do
    if lat.(k) > !w then w := lat.(k)
  done;
  !w + 1

let int_demand (graph : Ddg.Graph.t) = (6 * graph.n) + ring_size graph

(* The tails of a list built without any: every read is 0, so its
   bound is the plain one. Regions hold at most [Ir.Region.max_instrs]
   instructions; a larger hand-built graph gets its own. *)
let zero_tails = Array.make Ir.Region.max_instrs 0

let push_ready t i =
  t.buf.(t.ready_base + t.ready_n) <- i;
  t.buf.(t.pos_in_ready + i) <- t.ready_n;
  t.ready_n <- t.ready_n + 1;
  let d = Array.unsafe_get t.tails i in
  if d > t.ready_tail_hi then t.ready_tail_hi <- d

(* Counted loops reading the graph's arrays directly: a [num_preds]
   call per instruction is a generic application per ant start. *)
let setup t =
  let n = t.graph.Ddg.Graph.n in
  let pred_start = t.graph.Ddg.Graph.pred_start in
  let buf = t.buf in
  for i = 0 to n - 1 do
    buf.(t.unsched_preds + i) <- pred_start.(i + 1) - pred_start.(i);
    buf.(t.earliest + i) <- 0;
    buf.(t.sched_cycle + i) <- -1;
    buf.(t.pos_in_ready + i) <- -1
  done;
  for b = 0 to t.ring - 1 do
    buf.(t.heads + b) <- -1
  done;
  t.slot <- 0;
  t.ready_n <- 0;
  t.pend_n <- 0;
  t.cycle <- 0;
  t.scheduled_n <- 0;
  t.ready_tail_hi <- -1;
  t.pend_finish_hi <- -1;
  for i = 0 to n - 1 do
    if buf.(t.unsched_preds + i) = 0 then push_ready t i
  done

let create_in ?(latency_aware = true) ~ring ~tails arena (graph : Ddg.Graph.t) =
  let n = graph.n in
  if Array.length tails < n then invalid_arg "Ready_list.create_in: tails shorter than the graph";
  if ring < 2 then invalid_arg "Ready_list.create_in: ring size";
  let base = Support.Arena.alloc_ints arena ((6 * n) + ring) in
  let t =
    {
      graph;
      latency_aware;
      tails;
      buf = Support.Arena.ints arena;
      unsched_preds = base;
      earliest = base + n;
      sched_cycle = base + (2 * n);
      ready_base = base + (3 * n);
      pos_in_ready = base + (4 * n);
      next = base + (5 * n);
      heads = base + (6 * n);
      ring;
      slot = 0;
      ready_n = 0;
      pend_n = 0;
      cycle = 0;
      scheduled_n = 0;
      ready_tail_hi = -1;
      pend_finish_hi = -1;
    }
  in
  setup t;
  t

let create ?latency_aware (graph : Ddg.Graph.t) =
  let ring = ring_size graph in
  let arena = Support.Arena.create ~ints:((6 * graph.n) + ring) in
  let tails = if graph.n <= Array.length zero_tails then zero_tails else Array.make graph.n 0 in
  create_in ?latency_aware ~ring ~tails arena graph

let reset = setup

let restart t ~latency_aware =
  t.latency_aware <- latency_aware;
  setup t

let ready_count t = t.ready_n
let ready t k = t.buf.(t.ready_base + k)
let ready_store t = t.buf
let ready_offset t = t.ready_base

let ready_list t =
  let rec loop k acc = if k < 0 then acc else loop (k - 1) (t.buf.(t.ready_base + k) :: acc) in
  loop (t.ready_n - 1) []

(* The bucket [d] cycles past the current one. *)
let bucket t d =
  let b = t.slot + d in
  if b >= t.ring then b - t.ring else b

let semi_ready t =
  let acc = ref [] in
  for d = t.ring - 1 downto 1 do
    let chain = ref [] in
    let i = ref t.buf.(t.heads + bucket t d) in
    while !i >= 0 do
      chain := (!i, t.cycle + d) :: !chain;
      i := t.buf.(t.next + !i)
    done;
    acc := List.rev_append !chain !acc
  done;
  !acc

let min_semi_ready_cycle t = match semi_ready t with (_, c) :: _ -> Some c | [] -> None

let has_semi_ready t = t.pend_n > 0

let remove_ready t i =
  let p = t.buf.(t.pos_in_ready + i) in
  if p < 0 then invalid_arg "Ready_list: instruction is not ready";
  let last = t.ready_n - 1 in
  let moved = t.buf.(t.ready_base + last) in
  t.buf.(t.ready_base + p) <- moved;
  t.buf.(t.pos_in_ready + moved) <- p;
  t.ready_n <- last;
  t.buf.(t.pos_in_ready + i) <- -1

(* Queue [i] at the head of the bucket of its ready cycle [c], which
   lies 1 .. ring - 1 cycles past the current one. *)
let queue_pending t c i =
  let h = t.heads + bucket t (c - t.cycle) in
  t.buf.(t.next + i) <- t.buf.(h);
  t.buf.(h) <- i;
  t.pend_n <- t.pend_n + 1;
  let f = c + Array.unsafe_get t.tails i + 1 in
  if f > t.pend_finish_hi then t.pend_finish_hi <- f

(* Advance one cycle and move the bucket of the new cycle, newest entry
   first, onto the ready set. *)
let advance t =
  t.cycle <- t.cycle + 1;
  t.slot <- (if t.slot + 1 = t.ring then 0 else t.slot + 1);
  let h = t.heads + t.slot in
  let i = ref t.buf.(h) in
  if !i >= 0 then begin
    t.buf.(h) <- -1;
    while !i >= 0 do
      push_ready t !i;
      t.pend_n <- t.pend_n - 1;
      i := t.buf.(t.next + !i)
    done
  end

let schedule t i =
  remove_ready t i;
  let buf = t.buf in
  buf.(t.sched_cycle + i) <- t.cycle;
  t.scheduled_n <- t.scheduled_n + 1;
  (* Counted loop over the successor row: this is the single hottest
     successor walk in the system. *)
  let g = t.graph in
  for k = g.Ddg.Graph.succ_start.(i) to g.Ddg.Graph.succ_start.(i + 1) - 1 do
    let j = g.Ddg.Graph.succ_list.(k) and lat = g.Ddg.Graph.succ_lat.(k) in
    buf.(t.unsched_preds + j) <- buf.(t.unsched_preds + j) - 1;
    (* int comparison: the polymorphic [max] is a C call per edge *)
    let lat = if t.latency_aware && lat > 1 then lat else 1 in
    if t.cycle + lat > buf.(t.earliest + j) then buf.(t.earliest + j) <- t.cycle + lat;
    if buf.(t.unsched_preds + j) = 0 then
      (* Queue with its ready cycle; [advance] moves it across once the
         current cycle reaches that point. *)
      queue_pending t buf.(t.earliest + j) j
  done;
  advance t

let stall = advance
let finished t = t.scheduled_n = t.graph.Ddg.Graph.n
let issue_cycle t i = t.buf.(t.sched_cycle + i)

(* Every unscheduled instruction still needs a slot of its own, and an
   instruction that is ready or waiting on latency issues no earlier
   than max (cycle, its ready cycle) and is followed by at least its
   tail. Every other unscheduled instruction descends from one of
   those, so their tails cover it. The scan refreshes the kept maxima;
   it skips the pending ring when the kept pending maximum cannot raise
   the bound, and then that maximum, left as it is, cannot raise
   [length_lb_hi] either. *)
let length_lb t =
  let buf = t.buf and tails = t.tails in
  let lb = ref (t.cycle + t.graph.Ddg.Graph.n - t.scheduled_n) in
  if t.latency_aware then begin
    let tail = ref (-1) in
    for k = t.ready_base to t.ready_base + t.ready_n - 1 do
      let d = Array.unsafe_get tails (Array.unsafe_get buf k) in
      if d > !tail then tail := d
    done;
    t.ready_tail_hi <- !tail;
    if t.cycle + !tail + 1 > !lb then lb := t.cycle + !tail + 1;
    if t.pend_finish_hi > !lb then begin
      let finish = ref (-1) in
      for b = t.heads to t.heads + t.ring - 1 do
        let i = ref (Array.unsafe_get buf b) in
        while !i >= 0 do
          let f = Array.unsafe_get buf (t.earliest + !i) + Array.unsafe_get tails !i + 1 in
          if f > !finish then finish := f;
          i := Array.unsafe_get buf (t.next + !i)
        done
      done;
      t.pend_finish_hi <- !finish;
      if !finish > !lb then lb := !finish
    end
  end;
  !lb

let length_lb_hi t =
  let lb = t.cycle + t.graph.Ddg.Graph.n - t.scheduled_n in
  if not t.latency_aware then lb
  else
    let r = t.cycle + t.ready_tail_hi + 1 in
    let lb = if r > lb then r else lb in
    if t.pend_finish_hi > lb then t.pend_finish_hi else lb
