type t = { fwd : int array; bwd : int array }

(* Counted like [Closure.compute]: the compile service's analysis gate
   asserts one critical path per distinct region. *)
let computations = Atomic.make 0

let compute_count () = Atomic.get computations

let compute (g : Graph.t) =
  Atomic.incr computations;
  let n = g.n in
  let fwd = Array.make n 0 and bwd = Array.make n 0 in
  let order = Topo.order g in
  Array.iter
    (fun i ->
      Array.iter (fun (j, lat) -> fwd.(j) <- max fwd.(j) (fwd.(i) + lat)) g.succs.(i))
    order;
  let rev = Topo.reverse_order g in
  Array.iter
    (fun i ->
      Array.iter (fun (j, lat) -> bwd.(j) <- max bwd.(j) (bwd.(i) + lat)) g.preds.(i))
    rev;
  { fwd; bwd }

let forward t i = t.fwd.(i)
let backward t i = t.bwd.(i)
let backward_distances t = t.bwd
let through t i = t.fwd.(i) + t.bwd.(i)

let critical_path_length t =
  let m = ref 0 in
  for i = 0 to Array.length t.fwd - 1 do
    m := max !m (through t i)
  done;
  !m
