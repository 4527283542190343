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
    backing buffer and zero tails, so its {!length_lb} is the plain
    slot bound. *)

val ring_size : Ddg.Graph.t -> int
(** Buckets of the pending ring a list over the graph needs: one more
    than the graph's largest edge weight max (latency, 1), so at most
    1,025. One scan of the edges. *)

val int_demand : Ddg.Graph.t -> int
(** Arena ints one list needs (for exact pre-sizing): 6 segments of [n]
    entries plus the pending ring of {!ring_size} buckets. *)

val create_in :
  ?latency_aware:bool -> ring:int -> tails:int array -> Support.Arena.t -> Ddg.Graph.t -> t
(** As {!create} but with all state carved out of the given arena — the
    batched SoA colony allocation of Section V-A — and bounding lengths
    with [tails] ({!length_lb}), which the list keeps (not copied).
    [ring] must be [ring_size graph]: a colony computes it once for all
    its lanes. Raises [Invalid_argument] when [tails] is shorter than
    the graph or [ring] is below 2. *)

val reset : t -> unit
(** Return to the initial state, keeping the latency mode. *)

val restart : t -> latency_aware:bool -> unit
(** {!reset} under the given latency mode: an ant keeps one list and
    sets the mode of the pass it starts. Allocates nothing. *)

val ready_count : t -> int

val ready : t -> int -> int
(** [ready t k] is the [k]-th ready instruction, [0 <= k < ready_count].
    Order is unspecified but deterministic. *)

val ready_store : t -> int array
(** The int array the ready prefix lives in: [ready t k] is
    [(ready_store t).(ready_offset t + k)] for [0 <= k < ready_count t].
    The ant's selection and fit filter read the prefix there, in place.
    Read-only for callers. *)

val ready_offset : t -> int
(** Where the ready prefix starts in {!ready_store}; fixed for the
    list's lifetime. *)

val ready_list : t -> int list

val semi_ready : t -> (int * int) list
(** [(instr, cycle_when_ready)] for instructions waiting only on
    latency, by ready cycle and, within a cycle, the most recently
    queued first — the order {!schedule} and {!stall} promote them
    in. *)

val min_semi_ready_cycle : t -> int option
(** Earliest cycle at which some semi-ready instruction becomes ready. *)

val has_semi_ready : t -> bool
(** [min_semi_ready_cycle t <> None], from a count. *)

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

val length_lb : t -> int
(** A lower bound on the length, in cycles, of every schedule that
    completes the current partial one: the larger of the cycles used so
    far plus one per unscheduled instruction, and the maximum over
    ready and latency-pending instructions of max (current cycle, ready
    cycle) + tail + 1, over the list's tails (sound tails:
    {!Ddg.Lower_bounds.tails}). A latency-free list (pass 1) keeps
    only the first term. Equals the schedule's length once {!finished}.
    The scan also refreshes the maxima {!length_lb_hi} keeps, so right
    after it the two are equal. *)

val length_lb_hi : t -> int
(** An O(1) over-estimate of {!length_lb}, never below it: its two
    maxima are the largest tail pushed onto the ready set and the
    largest ready cycle + tail + 1 queued as pending since the last
    {!length_lb} (or start), not over the instructions still there. A
    cost nondecreasing in the length that stays below a cutoff at this
    value stays below it at {!length_lb}, so a cut-off evaluates the
    exact bound only when this one reaches it. *)
