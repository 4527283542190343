(* All per-list state lives as seven n-sized segments of a flat int
   backing array (a caller-supplied arena or a private buffer), so a
   whole colony's ready lists come from one batched allocation
   (Section V-A). The pending set — instructions waiting only on
   latency — is a flat sorted window [pend_head, pend_tail) of the
   (cycle, instr) segment pair: each instruction enters pending at most
   once per reset, so n slots never overflow and the head only
   advances. *)

type t = {
  graph : Ddg.Graph.t;
  mutable latency_aware : bool;  (* set at creation, changed only by [restart] *)
  buf : int array;
  unsched_preds : int;  (* base offsets into [buf], n entries each *)
  earliest : int;  (* valid once unsched_preds reaches 0 *)
  sched_cycle : int;  (* -1 if unscheduled *)
  ready_base : int;  (* compact prefix of length ready_n *)
  pos_in_ready : int;  (* -1 when not in ready *)
  pend_cycle : int;  (* sorted window [pend_head, pend_tail) *)
  pend_instr : int;
  mutable ready_n : int;
  mutable pend_head : int;
  mutable pend_tail : int;
  mutable cycle : int;
  mutable scheduled_n : int;
}

let int_demand (graph : Ddg.Graph.t) = 7 * graph.n

let setup t =
  let n = t.graph.Ddg.Graph.n in
  let buf = t.buf in
  for i = 0 to n - 1 do
    buf.(t.unsched_preds + i) <- Ddg.Graph.num_preds t.graph i;
    buf.(t.earliest + i) <- 0;
    buf.(t.sched_cycle + i) <- -1;
    buf.(t.pos_in_ready + i) <- -1
  done;
  t.ready_n <- 0;
  t.pend_head <- 0;
  t.pend_tail <- 0;
  t.cycle <- 0;
  t.scheduled_n <- 0;
  for i = 0 to n - 1 do
    if buf.(t.unsched_preds + i) = 0 then begin
      buf.(t.ready_base + t.ready_n) <- i;
      buf.(t.pos_in_ready + i) <- t.ready_n;
      t.ready_n <- t.ready_n + 1
    end
  done

let create_in ?(latency_aware = true) arena (graph : Ddg.Graph.t) =
  let n = graph.n in
  let base = Support.Arena.alloc_ints arena (7 * n) in
  let t =
    {
      graph;
      latency_aware;
      buf = Support.Arena.ints arena;
      unsched_preds = base;
      earliest = base + n;
      sched_cycle = base + (2 * n);
      ready_base = base + (3 * n);
      pos_in_ready = base + (4 * n);
      pend_cycle = base + (5 * n);
      pend_instr = base + (6 * n);
      ready_n = 0;
      pend_head = 0;
      pend_tail = 0;
      cycle = 0;
      scheduled_n = 0;
    }
  in
  setup t;
  t

let create ?latency_aware (graph : Ddg.Graph.t) =
  let arena = Support.Arena.create ~ints:(int_demand graph) in
  create_in ?latency_aware arena graph

let reset = setup

let restart t ~latency_aware =
  t.latency_aware <- latency_aware;
  setup t

let ready_count t = t.ready_n
let ready t k = t.buf.(t.ready_base + k)

(* Candidate-list view for the ant hot loop: the compact ready prefix
   copied instead of a per-candidate [ready] call. The caller bounds [m]
   by [ready_count] (or its ready-limit truncation). A counted loop, not
   [Array.blit]: the candidate array lives in the major heap, where
   OCaml 5 blits an int array through the write barrier ([caml_modify])
   element by element; the typed loop stores plain ints. *)
let blit_ready t cand m =
  if m < 0 || m > t.ready_n || m > Array.length cand then
    invalid_arg "Ready_list.blit_ready";
  let buf = t.buf and base = t.ready_base in
  for k = 0 to m - 1 do
    Array.unsafe_set cand k (Array.unsafe_get buf (base + k))
  done

let ready_list t =
  let rec loop k acc = if k < 0 then acc else loop (k - 1) (t.buf.(t.ready_base + k) :: acc) in
  loop (t.ready_n - 1) []

let semi_ready t =
  let rec loop p acc =
    if p < t.pend_head then acc
    else loop (p - 1) ((t.buf.(t.pend_instr + p), t.buf.(t.pend_cycle + p)) :: acc)
  in
  loop (t.pend_tail - 1) []

let min_semi_ready_cycle t =
  if t.pend_head = t.pend_tail then None else Some t.buf.(t.pend_cycle + t.pend_head)

let has_semi_ready t = t.pend_head <> t.pend_tail

let push_ready t i =
  t.buf.(t.ready_base + t.ready_n) <- i;
  t.buf.(t.pos_in_ready + i) <- t.ready_n;
  t.ready_n <- t.ready_n + 1

let remove_ready t i =
  let p = t.buf.(t.pos_in_ready + i) in
  if p < 0 then invalid_arg "Ready_list: instruction is not ready";
  let last = t.ready_n - 1 in
  let moved = t.buf.(t.ready_base + last) in
  t.buf.(t.ready_base + p) <- moved;
  t.buf.(t.pos_in_ready + moved) <- p;
  t.ready_n <- last;
  t.buf.(t.pos_in_ready + i) <- -1

(* Insert (c, i) keeping the window sorted by cycle; among equal cycles
   the new element goes first, matching the [fst x <= fst y] tie-break of
   the seed's sorted-list insert (the promotion order is part of the
   construction's byte-identity contract). *)
let insert_pending t c i =
  let buf = t.buf in
  let p = ref t.pend_head in
  while !p < t.pend_tail && buf.(t.pend_cycle + !p) < c do
    incr p
  done;
  let q = ref t.pend_tail in
  while !q > !p do
    buf.(t.pend_cycle + !q) <- buf.(t.pend_cycle + !q - 1);
    buf.(t.pend_instr + !q) <- buf.(t.pend_instr + !q - 1);
    decr q
  done;
  buf.(t.pend_cycle + !p) <- c;
  buf.(t.pend_instr + !p) <- i;
  t.pend_tail <- t.pend_tail + 1

let promote t =
  (* Move pending instructions whose ready cycle has arrived. *)
  let buf = t.buf in
  while t.pend_head < t.pend_tail && buf.(t.pend_cycle + t.pend_head) <= t.cycle do
    push_ready t buf.(t.pend_instr + t.pend_head);
    t.pend_head <- t.pend_head + 1
  done

let schedule t i =
  remove_ready t i;
  let buf = t.buf in
  buf.(t.sched_cycle + i) <- t.cycle;
  t.scheduled_n <- t.scheduled_n + 1;
  (* Counted loop, not [Array.iter]: the closure would capture [t] and
     allocate once per scheduled instruction — this is the single
     hottest successor walk in the system. Destructuring the edge tuple
     reads its fields in place; no allocation. *)
  let succs = t.graph.Ddg.Graph.succs.(i) in
  for k = 0 to Array.length succs - 1 do
    let j, lat = Array.unsafe_get succs k in
    buf.(t.unsched_preds + j) <- buf.(t.unsched_preds + j) - 1;
    (* int comparison: the polymorphic [max] is a C call per edge *)
    let lat = if t.latency_aware && lat > 1 then lat else 1 in
    if t.cycle + lat > buf.(t.earliest + j) then buf.(t.earliest + j) <- t.cycle + lat;
    if buf.(t.unsched_preds + j) = 0 then
      (* Queue with its ready cycle; [promote] moves it across once the
         current cycle reaches that point. *)
      insert_pending t buf.(t.earliest + j) j
  done;
  t.cycle <- t.cycle + 1;
  promote t

let stall t =
  t.cycle <- t.cycle + 1;
  promote t

let finished t = t.scheduled_n = t.graph.Ddg.Graph.n
let issue_cycle t i = t.buf.(t.sched_cycle + i)

(* Every unscheduled instruction still needs a slot of its own, and an
   instruction that is ready or waiting on latency issues no earlier
   than max (cycle, its ready cycle) and is followed by at least its
   tail. Every other unscheduled instruction descends from one of
   those, so their tails cover it. Counted loops: this runs after every
   ant step that the colony's cut-off checks. *)
let length_lb t ~tails =
  let buf = t.buf in
  let lb = ref (t.cycle + t.graph.Ddg.Graph.n - t.scheduled_n) in
  if t.latency_aware then begin
    let tail = ref (-1) in
    for k = t.ready_base to t.ready_base + t.ready_n - 1 do
      let d = Array.unsafe_get tails (Array.unsafe_get buf k) in
      if d > !tail then tail := d
    done;
    if t.cycle + !tail + 1 > !lb then lb := t.cycle + !tail + 1;
    (* pending ready cycles all lie past the current cycle *)
    for p = t.pend_head to t.pend_tail - 1 do
      let finish =
        Array.unsafe_get buf (t.pend_cycle + p)
        + Array.unsafe_get tails (Array.unsafe_get buf (t.pend_instr + p))
        + 1
      in
      if finish > !lb then lb := finish
    done
  end;
  !lb
