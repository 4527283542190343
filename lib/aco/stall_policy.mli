(** The optional-stall heuristic of pass 2 (Section IV-C).

    When the ready list is empty a stall is mandatory. When it is not,
    scheduling a stall can still pay off if every ready instruction would
    push the peak pressure past the pass-2 target while a semi-ready
    instruction — one that will be unblocked by waiting — could avoid
    that. The heuristic weighs how the ready and semi-ready instructions
    would impact PRP and damps the stall probability as more optional
    stalls accumulate. *)

type decision =
  | Schedule_from of int list
      (** schedule one of these (ready instructions that fit the target) *)
  | Optional_stall
  | Forced_breach
      (** no ready instruction fits and waiting cannot help: the ant must
          either breach the target (and die) or — when no semi-ready
          instruction exists — there is nothing to wait for *)

val classify :
  rng:Support.Rng.t ->
  allow_optional:bool ->
  base_probability:float ->
  rp:Sched.Rp_tracker.t ->
  target_vgpr:int ->
  target_sgpr:int ->
  ready:int list ->
  has_semi_ready:bool ->
  optional_stalls_so_far:int ->
  decision
(** Decide the ant's move at a cycle with a non-empty ready list.
    [target_*] are APRP targets from pass 1. When [allow_optional] is
    false the ant never stalls voluntarily (the divergence optimization
    that restricts optional stalls to a fraction of wavefronts,
    Section V-B). *)
