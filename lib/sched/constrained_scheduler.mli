(** Greedy latency-aware list scheduling under a hard register-pressure
    ceiling.

    Pass 2 needs an input schedule that meets the pass-1 RP target; the
    latency-padded pass-1 order always does, but it serializes
    aggressively. This scheduler builds a second, usually much shorter,
    candidate: Critical-Path greedy restricted to instructions whose
    scheduling keeps both class peaks within the target, stalling when
    nothing fits but something is in flight. It fails (returns [None])
    when it corners itself — the padded order then remains the input. *)

val run :
  ?cp:Ddg.Critpath.t ->
  ?layout:Rp_tracker.layout ->
  Ddg.Graph.t ->
  target_vgpr:int ->
  target_sgpr:int ->
  Schedule.t option
(** [run g ~target_vgpr ~target_sgpr] is a latency-valid schedule whose
    VGPR/SGPR peaks do not exceed the targets, or [None] when the greedy
    search reaches a state with no fitting ready instruction and nothing
    semi-ready to wait for. [cp] and [layout] (computed when omitted)
    are the region's critical path and register layout. *)
