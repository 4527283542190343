(** Guiding heuristics for list scheduling and for ACO's biased
    selection.

    The paper's search is guided by classic priority heuristics
    (Section IV-A): the Critical-Path heuristic (an aggressive ILP
    heuristic) and the Last-Use-Count heuristic (an RP-reduction
    heuristic, reference [61]); [Source_order] reproduces the original
    program order and serves as a neutral control. Section V-B assigns
    *different* heuristics to different wavefronts to diversify
    exploration without intra-wavefront divergence. *)

type kind = Critical_path | Last_use_count | Source_order

val all : kind list
val to_string : kind -> string

type ctx = { graph : Ddg.Graph.t; cp : Ddg.Critpath.t; rp : Rp_tracker.t }
(** Evaluation context; [rp] must reflect the construction state at the
    moment of the query. *)

val make_ctx : ?cp:Ddg.Critpath.t -> Ddg.Graph.t -> Rp_tracker.t -> ctx
(** [cp] (computed when omitted) lets a colony share one critical-path
    analysis across all its lanes' contexts. *)

val score : kind -> ctx -> int -> float
(** [score k ctx i]: priority of ready instruction [i]; higher is
    better. Deterministic given the context. *)

val eta : kind -> ctx -> int -> float
(** Strictly positive attractiveness value for ACO's selection formula,
    a monotone transform of [score]. *)

val fill_luc_eta_mat :
  Rp_tracker.t ->
  cp:Ddg.Critpath.t ->
  src:int array ->
  base:int ->
  n:int ->
  mat:Support.Fmat.mat ->
  dst:int ->
  unit
(** [fill_luc_eta_mat rp ~cp ~src ~base ~n ~mat ~dst] stores
    [eta Last_use_count ctx src.(base + k)] (for a [ctx] over [rp] and
    [cp]) at flat index [dst + k] of the matrix store [mat] for
    [0 <= k < n], bit-identical to per-candidate {!eta} calls but with
    raw unboxed float64 stores, no allocation and no call per candidate
    (the tracker's effects and the backward distances are read as
    arrays) — the ACO selection hot path over a candidate slice under
    the one heuristic whose [eta] depends on the construction state.
    Raises [Invalid_argument] unless the [n] candidates lie inside
    [src]; the [n] cells from [dst] must lie inside [mat] (unchecked). *)

val static_eta : kind -> cp:Ddg.Critpath.t -> Ddg.Graph.t -> float array
(** [eta] of every instruction [0 .. n-1] under a heuristic whose score
    does not depend on the construction state ([Critical_path],
    [Source_order]), bit-identical to {!eta}; no tracker needed. Raises
    [Invalid_argument] for [Last_use_count]. *)

val best : kind -> ctx -> int list -> int
(** Highest-scoring instruction of a non-empty candidate list (ties to
    the lower instruction id, matching the deterministic baseline). *)
