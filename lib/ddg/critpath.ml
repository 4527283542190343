type t = { fwd : int array; bwd : int array }

(* Counted like [Closure.compute]: the compile service's analysis gate
   asserts one critical path per distinct region. *)
let computations = Atomic.make 0

let compute_count () = Atomic.get computations

let compute (g : Graph.t) =
  Atomic.incr computations;
  let n = g.n in
  let fwd = Array.make n 0 and bwd = Array.make n 0 in
  (* Instruction ids are a topological order (every edge points
     forward). *)
  for i = 0 to n - 1 do
    for k = g.succ_start.(i) to g.succ_start.(i + 1) - 1 do
      let j = g.succ_list.(k) in
      fwd.(j) <- max fwd.(j) (fwd.(i) + g.succ_lat.(k))
    done
  done;
  for i = n - 1 downto 0 do
    for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
      let j = g.pred_list.(k) in
      bwd.(j) <- max bwd.(j) (bwd.(i) + g.pred_lat.(k))
    done
  done;
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
