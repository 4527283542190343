type t = { ints : int array; mutable int_used : int; scores : Fmat.t }

(* The score matrix of a store built for int segments alone. Never
   written (it has no rows) and never parked. *)
let no_scores = Fmat.create ~rows:0 ~cols:0

let create ~ints =
  if ints < 0 then invalid_arg "Arena.create: negative capacity";
  { ints = Array.make (max ints 1) 0; int_used = 0; scores = no_scores }

let alloc_ints t n =
  if n < 0 then invalid_arg "Arena.alloc_ints: negative size";
  let base = t.int_used in
  if base + n > Array.length t.ints then invalid_arg "Arena.alloc_ints: capacity exceeded";
  t.int_used <- base + n;
  base

let ints t = t.ints
let int_capacity t = Array.length t.ints
let int_used t = t.int_used
let scores t = t.scores

(* --- per-domain pool ------------------------------------------------------ *)

(* Colonies take their store when a backend prepares and give it back at
   teardown; under the executor that is one multi-kilobyte allocation
   pair per region job. The pool parks the two backing stores of a
   retired store — the int array and the score matrix's raw Bigarray —
   on two domain-local shelves, so the next job on the same domain
   reuses them. The halves are matched independently: a take may reuse
   one and allocate the other.

   Reuse is invisible to results: [give] zero-fills the prefix of each
   half its owner could have written, so a pooled half is
   indistinguishable from a fresh zero-filled one (consumers may rely on
   zero initialization). Allocation happens outside every measured
   minor-words window, so pooling perturbs no reported statistic. *)

let pool_limit = 8
let int_shelf : int array list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let score_shelf : Fmat.mat list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let pool_reuses = Atomic.make 0

let reuses () = Atomic.get pool_reuses

(* First parked entry of at least [need] cells, unshelved. *)
let claim key size need =
  let shelf = Domain.DLS.get key in
  let rec search acc = function
    | [] -> None
    | x :: rest when size x >= need ->
        shelf := List.rev_append acc rest;
        Atomic.incr pool_reuses;
        Some x
    | x :: rest -> search (x :: acc) rest
  in
  search [] !shelf

let park key size x =
  let shelf = Domain.DLS.get key in
  if List.length !shelf < pool_limit then shelf := x :: !shelf
  else begin
    (* full: drop the smallest resident so capacity ratchets upward *)
    let smallest = List.fold_left (fun m y -> if size y < size m then y else m) x !shelf in
    if smallest != x then shelf := x :: List.filter (fun y -> y != smallest) !shelf
  end

let take ~ints ~rows ~cols =
  if ints < 0 || rows < 0 || cols < 0 then invalid_arg "Arena.take: negative size";
  let ints =
    match claim int_shelf Array.length (max ints 1) with
    | Some a -> a
    | None -> Array.make (max ints 1) 0
  in
  let scores =
    match claim score_shelf Bigarray.Array1.dim (max (rows * Fmat.stride_of_cols cols) 1) with
    | Some data -> Fmat.wrap data ~rows ~cols
    | None -> Fmat.create ~rows ~cols
  in
  { ints; int_used = 0; scores }

let give t =
  Array.fill t.ints 0 t.int_used 0;
  park int_shelf Array.length t.ints;
  if t.scores != no_scores then begin
    (* Writes only ever land in the matrix's rows: restoring them to zero
       restores the whole-array invariant for the next taker. *)
    let used = Fmat.rows t.scores * Fmat.stride t.scores in
    let data = t.scores.Fmat.data in
    if used > 0 then Bigarray.Array1.fill (Bigarray.Array1.sub data 0 used) 0.0;
    park score_shelf Bigarray.Array1.dim data
  end
