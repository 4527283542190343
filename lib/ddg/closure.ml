type t = { n : int; desc : Support.Bitset.t array; anc : Support.Bitset.t array }

(* Closure construction is the most expensive region analysis, so the
   compile service's "analysis runs once per distinct region" gate counts
   invocations here. Atomic: region jobs run on multiple domains. *)
let computations = Atomic.make 0

let compute_count () = Atomic.get computations

let compute (g : Graph.t) =
  Atomic.incr computations;
  let n = g.n in
  let desc = Array.init n (fun _ -> Support.Bitset.create n) in
  let anc = Array.init n (fun _ -> Support.Bitset.create n) in
  (* Every edge points forward, so descending ids visit children first:
     desc(i) = U_{(i,j)} ({j} U desc(j)); ascending ids visit parents
     first for the ancestors. *)
  for i = n - 1 downto 0 do
    for k = g.succ_start.(i) to g.succ_start.(i + 1) - 1 do
      let j = g.succ_list.(k) in
      Support.Bitset.add desc.(i) j;
      Support.Bitset.union_into ~into:desc.(i) desc.(j)
    done
  done;
  for i = 0 to n - 1 do
    for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
      let j = g.pred_list.(k) in
      Support.Bitset.add anc.(i) j;
      Support.Bitset.union_into ~into:anc.(i) anc.(j)
    done
  done;
  { n; desc; anc }

let reaches t i j = Support.Bitset.mem t.desc.(i) j

let independent t i j = i <> j && (not (reaches t i j)) && not (reaches t j i)

let independent_count t i =
  t.n - 1 - Support.Bitset.cardinal t.desc.(i) - Support.Bitset.cardinal t.anc.(i)

let max_independent t =
  let m = ref 0 in
  for i = 0 to t.n - 1 do
    m := max !m (independent_count t i)
  done;
  !m

let ready_list_upper_bound t = max_independent t + 1
