type t = {
  ints : int array;
  floats : float array;
  mutable int_used : int;
  mutable float_used : int;
}

let create ~ints ~floats =
  if ints < 0 || floats < 0 then invalid_arg "Arena.create: negative capacity";
  {
    ints = Array.make (max ints 1) 0;
    floats = Array.make (max floats 1) 0.0;
    int_used = 0;
    float_used = 0;
  }

let alloc_ints t n =
  if n < 0 then invalid_arg "Arena.alloc_ints: negative size";
  let base = t.int_used in
  if base + n > Array.length t.ints then invalid_arg "Arena.alloc_ints: capacity exceeded";
  t.int_used <- base + n;
  base

let alloc_floats t n =
  if n < 0 then invalid_arg "Arena.alloc_floats: negative size";
  let base = t.float_used in
  if base + n > Array.length t.floats then invalid_arg "Arena.alloc_floats: capacity exceeded";
  t.float_used <- base + n;
  base

let ints t = t.ints
let floats t = t.floats
let int_capacity t = Array.length t.ints
let float_capacity t = Array.length t.floats
let int_used t = t.int_used
let float_used t = t.float_used

let words t =
  (* One OCaml word per int; float arrays store unboxed doubles (one word
     each on 64-bit). Headers are ignored — this is a capacity stat, not
     a heap census. *)
  Array.length t.ints + Array.length t.floats

(* --- per-domain arena pool ---------------------------------------------- *)

(* Backends create their colony arena in [prepare] and drop it in
   [teardown]; under the executor that is one multi-kilobyte allocation
   pair per region job. The pool parks retired arenas in domain-local
   storage so the next job on the same domain reuses the backing arrays.

   Reuse is invisible to results: [reset] rewinds the bump pointers and
   zero-fills the used prefixes, so a pooled arena is indistinguishable
   from a fresh zero-filled one (consumers may rely on zero
   initialization). Allocation happens outside every measured
   minor-words window (the perf counters snapshot inside the iteration
   loop), so pooling perturbs no reported statistic. *)

let reset t =
  Array.fill t.ints 0 t.int_used 0;
  Array.fill t.floats 0 t.float_used 0.0;
  t.int_used <- 0;
  t.float_used <- 0

let pool_limit = 8
let pool_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let pool_reuses = Atomic.make 0

let reuses () = Atomic.get pool_reuses

let take ~ints ~floats =
  if ints < 0 || floats < 0 then invalid_arg "Arena.take: negative capacity";
  let pool = Domain.DLS.get pool_key in
  let fits a = Array.length a.ints >= max ints 1 && Array.length a.floats >= max floats 1 in
  let rec search acc = function
    | [] -> None
    | a :: rest when fits a ->
        pool := List.rev_append acc rest;
        Some a
    | a :: rest -> search (a :: acc) rest
  in
  match search [] !pool with
  | Some a ->
      Atomic.incr pool_reuses;
      a
  | None -> create ~ints ~floats

let give a =
  reset a;
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < pool_limit then pool := a :: !pool
  else begin
    (* full: drop the smallest resident so capacity ratchets upward *)
    let smallest =
      List.fold_left (fun m x -> if words x < words m then x else m) a !pool
    in
    if smallest != a then pool := a :: List.filter (fun x -> x != smallest) !pool
  end
