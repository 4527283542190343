type kind = Critical_path | Last_use_count | Source_order

let all = [ Critical_path; Last_use_count; Source_order ]

let to_string = function
  | Critical_path -> "critical-path"
  | Last_use_count -> "last-use-count"
  | Source_order -> "source-order"

type ctx = { graph : Ddg.Graph.t; cp : Ddg.Critpath.t; rp : Rp_tracker.t }

let make_ctx ?cp graph rp =
  (* Critical-path distances depend only on the graph: a colony computes
     them once and shares them across its lanes via [?cp]. *)
  let cp = match cp with Some cp -> cp | None -> Ddg.Critpath.compute graph in
  { graph; cp; rp }

let score kind ctx i =
  match kind with
  | Critical_path -> float_of_int (Ddg.Critpath.backward ctx.cp i)
  | Last_use_count ->
      (* Primary: live ranges closed minus opened; secondary: distance to
         the leaves so ties still make progress along long chains. *)
      let net = Rp_tracker.closes_minus_opens ctx.rp i in
      (float_of_int net *. 1024.0) +. float_of_int (Ddg.Critpath.backward ctx.cp i)
  | Source_order -> float_of_int (ctx.graph.Ddg.Graph.n - i)

(* [Float.max 0.0 v] for the shifted scores below: every operand comes
   from [float_of_int], so NaN and -0.0 never arise and the branch is
   value-identical — but it inlines (same module), where the stdlib
   call would box its arguments and result in builds without
   cross-module inlining. *)
let[@inline] pos v = if v > 0.0 then v else 0.0

(* The attractiveness transform. Scores can be negative (LUC); shift
   into a strictly positive range with a floor so no candidate gets
   probability zero. Inlined at every use below, so each is the same
   float expression and the filled values are bit-identical to [eta]
   (the ACO selection is byte-reproducible across the list-backed
   reference ant and the production one). The scale is 1/512 as a
   multiply: a power-of-two scale is exact either way, so the value is
   the division's bit for bit, and a divide costs several multiplies in
   the LUC fill's loop. *)
let[@inline] eta_of_score s = 1.0 +. (pos (s +. 4096.0) *. 0x1p-9)

let eta kind ctx i = eta_of_score (score kind ctx i)

(* LUC's [eta] over a candidate slice, for the unboxed data plane: the
   ant's per-step LUC row is filled through this (the static heuristics
   read the colony's [static_eta] rows instead). The candidates are
   read where they live (the ready prefix or the ant's filtered slice),
   and the tracker's effects and the backward distances as arrays, so
   the loop makes no call per candidate. Stores into the matrix's
   bigarray at flat offset [dst] with raw float64 stores — the
   annotation gives [mat] its concrete type, so the primitive
   specializes at this call site and the stores stay unboxed even when
   cross-module inlining is off ([-opaque] dev builds). *)
let fill_luc_eta_mat rp ~cp ~src ~base ~n ~(mat : Support.Fmat.mat) ~dst =
  if n > 0 && (base < 0 || base + n > Array.length src) then
    invalid_arg "Heuristic.fill_luc_eta_mat: slice outside the candidates";
  let fx = Rp_tracker.store rp and fb = Rp_tracker.effects_base rp in
  let bwd = Ddg.Critpath.backward_distances cp in
  for k = 0 to n - 1 do
    let i = Array.unsafe_get src (base + k) in
    let e = fb + (2 * i) in
    let net = -(fx.(e) + fx.(e + 1)) in
    let s = (float_of_int net *. 1024.0) +. float_of_int bwd.(i) in
    Bigarray.Array1.unsafe_set mat (dst + k) (eta_of_score s)
  done

(* The construction-state-independent heuristics need no tracker: their
   eta depends only on the region, so a colony computes one row per
   kind and every ant reads it. *)
let static_eta kind ~cp (graph : Ddg.Graph.t) =
  let n = graph.Ddg.Graph.n in
  let out = Array.create_float n in
  (match kind with
  | Critical_path ->
      for i = 0 to n - 1 do
        out.(i) <- eta_of_score (float_of_int (Ddg.Critpath.backward cp i))
      done
  | Source_order ->
      for i = 0 to n - 1 do
        out.(i) <- eta_of_score (float_of_int (n - i))
      done
  | Last_use_count ->
      invalid_arg "Heuristic.static_eta: Last_use_count depends on the construction state");
  out

let best kind ctx = function
  | [] -> invalid_arg "Heuristic.best: empty candidate list"
  | c :: rest ->
      let better i j =
        let si = score kind ctx i and sj = score kind ctx j in
        if si > sj then i else if sj > si then j else min i j
      in
      List.fold_left better c rest
