type t = { graph : Ddg.Graph.t; order : int array; cycle_of : int array }

type violation =
  | Missing of int
  | Duplicated of int
  | Unknown_instr of int
  | Same_cycle of { first : int; second : int; cycle : int }
  | Order_violation of { src : int; dst : int }
  | Latency_violation of { src : int; dst : int; need : int; got : int }

let violation_to_string = function
  | Missing i -> Printf.sprintf "instruction %%%d never scheduled" i
  | Duplicated i -> Printf.sprintf "instruction %%%d scheduled twice" i
  | Unknown_instr i -> Printf.sprintf "order references unknown instruction %%%d" i
  | Same_cycle { first; second; cycle } ->
      Printf.sprintf "instructions %%%d and %%%d both issue at cycle %d" first second cycle
  | Order_violation { src; dst } ->
      Printf.sprintf "dependence %%%d -> %%%d not respected" src dst
  | Latency_violation { src; dst; need; got } ->
      Printf.sprintf "latency of %%%d -> %%%d needs %d cycles, got %d" src dst need got

(* The first violation, checked in this order: an instruction never
   issued, two issued at one cycle (neighbours in the by-cycle [order]),
   then each dependence edge in (src, dst) order, walking the successor
   rows. *)
let validate t ~latency_aware =
  let g = t.graph in
  let rec edge src k =
    if src >= g.n then None
    else if k >= g.succ_start.(src + 1) then edge (src + 1) k
    else
      let dst = g.succ_list.(k) and need = g.succ_lat.(k) in
      let got = t.cycle_of.(dst) - t.cycle_of.(src) in
      if got <= 0 then Some (Order_violation { src; dst })
      else if latency_aware && got < need then Some (Latency_violation { src; dst; need; got })
      else edge src (k + 1)
  in
  let rec shared_cycle k =
    if k >= Array.length t.order then edge 0 0
    else
      let first = t.order.(k - 1) and second = t.order.(k) in
      if t.cycle_of.(first) = t.cycle_of.(second) then
        Some (Same_cycle { first; second; cycle = t.cycle_of.(second) })
      else shared_cycle (k + 1)
  in
  let found =
    match Array.find_index (fun c -> c < 0) t.cycle_of with
    | Some i -> Some (Missing i)
    | None -> shared_cycle 1
  in
  match found with Some v -> Error v | None -> Ok ()

let validated t ~latency_aware = Result.map (fun () -> t) (validate t ~latency_aware)

let of_cycles (g : Ddg.Graph.t) ~latency_aware cycle_of =
  if Array.length cycle_of <> g.n then invalid_arg "Schedule.of_cycles: one cycle per instruction";
  let cycle_of = Array.copy cycle_of in
  let order = Array.init g.n Fun.id in
  Array.stable_sort (fun a b -> Int.compare cycle_of.(a) cycle_of.(b)) order;
  validated { graph = g; order; cycle_of } ~latency_aware

let of_order (g : Ddg.Graph.t) order =
  let cycle_of = Array.make g.n (-1) in
  let bad =
    Array.find_mapi
      (fun c i ->
        if i < 0 || i >= g.n then Some (Unknown_instr i)
        else if cycle_of.(i) >= 0 then Some (Duplicated i)
        else begin
          cycle_of.(i) <- c;
          None
        end)
      order
  in
  match bad with
  | Some v -> Error v
  | None -> validated { graph = g; order = Array.copy order; cycle_of } ~latency_aware:false

let is_valid t ~latency_aware = Result.is_ok (validate t ~latency_aware)

let guard t ~latency_aware ~fallback =
  if is_valid t ~latency_aware then (t, false) else (fallback, true)

let length t =
  let n = Array.length t.order in
  if n = 0 then 0 else t.cycle_of.(t.order.(n - 1)) + 1

let num_stalls t = length t - Array.length t.order

let order t = Array.copy t.order

let cycle t i = t.cycle_of.(i)

let iter_cycles t f =
  let next = ref 0 in
  Array.iter
    (fun i ->
      let c = t.cycle_of.(i) in
      while !next < c do
        f !next None;
        incr next
      done;
      f c (Some i);
      next := c + 1)
    t.order

let latency_pad (g : Ddg.Graph.t) order =
  let cycle_of = Array.make g.n (-1) in
  let next = ref 0 in
  Array.iter
    (fun i ->
      (* Earliest cycle satisfying all predecessor latencies. *)
      let c = ref !next in
      for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
        let p = g.pred_list.(k) in
        if cycle_of.(p) < 0 then invalid_arg "Schedule.latency_pad: order violates dependences";
        c := max !c (cycle_of.(p) + max g.pred_lat.(k) 1)
      done;
      cycle_of.(i) <- !c;
      next := !c + 1)
    order;
  { graph = g; order = Array.copy order; cycle_of }

let to_string t =
  let buf = Buffer.create 128 in
  iter_cycles t (fun c -> function
    | None -> Buffer.add_string buf (Printf.sprintf "%4d: (stall)\n" c)
    | Some i ->
        Buffer.add_string buf
          (Printf.sprintf "%4d: %s\n" c (Ir.Instr.to_string (Ddg.Graph.instr t.graph i))));
  Buffer.contents buf
