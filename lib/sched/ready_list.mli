(** The ready list of cycle-driven schedule construction.

    An instruction is *ready* when all its predecessors are scheduled and
    their latencies have elapsed at the current cycle; it is *semi-ready*
    when its predecessors are scheduled but some latency has not yet
    elapsed (Section IV-C — semi-ready instructions drive the
    optional-stall heuristic). With [latency_aware:false] (pass 1)
    latencies are ignored and instructions become ready as soon as their
    predecessors are scheduled. The mode is set at creation and can be
    changed only by {!restart}, so one list serves both passes. *)

type t

val create : ?latency_aware:bool -> Ddg.Graph.t -> t
(** [latency_aware] defaults to [true]. Stand-alone list with a private
    backing buffer. *)

val int_demand : Ddg.Graph.t -> int
(** Arena ints one list needs (for exact pre-sizing): 7 segments of [n]
    entries. *)

val create_in : ?latency_aware:bool -> Support.Arena.t -> Ddg.Graph.t -> t
(** As {!create} but with all state carved out of the given arena — the
    batched SoA colony allocation of Section V-A. *)

val reset : t -> unit
(** Return to the initial state, keeping the latency mode. *)

val restart : t -> latency_aware:bool -> unit
(** {!reset} under the given latency mode: an ant keeps one list and
    sets the mode of the pass it starts. Allocates nothing. *)

val ready_count : t -> int

val ready : t -> int -> int
(** [ready t k] is the [k]-th ready instruction, [0 <= k < ready_count].
    Order is unspecified but deterministic. *)

val blit_ready : t -> int array -> int -> unit
(** [blit_ready t cand m] copies the first [m] ready instructions — in
    {!ready} order — into [cand.(0..m-1)]: the candidate-list view the
    ant hot loop scores from. Raises [Invalid_argument] unless [0 <= m
    <= ready_count t] and [cand] is at least [m] long. *)

val ready_list : t -> int list

val semi_ready : t -> (int * int) list
(** [(instr, cycle_when_ready)] for instructions waiting only on
    latency. *)

val min_semi_ready_cycle : t -> int option
(** Earliest cycle at which some semi-ready instruction becomes ready. *)

val has_semi_ready : t -> bool
(** [min_semi_ready_cycle t <> None] without the option allocation. *)

val schedule : t -> int -> unit
(** Issue the given ready instruction at the current cycle, then advance
    the cycle by one and promote newly ready instructions. Raises
    [Invalid_argument] if the instruction is not currently ready. *)

val stall : t -> unit
(** Advance one cycle without issuing. *)

val finished : t -> bool

val issue_cycle : t -> int -> int
(** The cycle the given instruction was issued at, or [-1] while it is
    unscheduled. A construction keeps no per-cycle record of its own:
    the list scheduler and the ants read their schedules off these
    cycles ({!Schedule.of_cycles}). *)

val length_lb : t -> tails:int array -> int
(** A lower bound on the length, in cycles, of every schedule that
    completes the current partial one: the larger of the cycles used so
    far plus one per unscheduled instruction, and the maximum over
    ready and latency-pending instructions of max (current cycle, ready
    cycle) + [tails.(i)] + 1. [tails] must be sound tails
    ({!Ddg.Lower_bounds.tails}). A latency-free list (pass 1) keeps
    only the first term. Equals the schedule's length once
    {!finished}. *)
