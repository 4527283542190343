(** Instruction schedules.

    A schedule assigns a machine cycle to each instruction. Under the
    paper's single-issue model at most one instruction issues per cycle,
    so a schedule is its issue order plus each instruction's issue
    cycle; the stalls are the cycles nothing issues at, between the
    first cycle and the last issue (Figure 1.b/1.c draws the same
    schedule as a row of cycle slots). Both arrays are sized by the
    instructions, never by the cycles.

    Pass 1 of the two-pass approach ignores latencies, so its schedules
    are plain orders (no stalls) validated only against dependence
    ordering; pass 2 schedules must also respect latencies. *)

type t = private {
  graph : Ddg.Graph.t;
  order : int array;  (** instruction ids in issue order *)
  cycle_of : int array;  (** instruction id -> issue cycle *)
}

type violation =
  | Missing of int  (** instruction never scheduled *)
  | Duplicated of int
  | Unknown_instr of int
  | Same_cycle of { first : int; second : int; cycle : int }
      (** two instructions issue at one cycle *)
  | Order_violation of { src : int; dst : int }
      (** dependence source scheduled at or after its destination *)
  | Latency_violation of { src : int; dst : int; need : int; got : int }

val violation_to_string : violation -> string

val of_cycles : Ddg.Graph.t -> latency_aware:bool -> int array -> (t, violation) result
(** [of_cycles g ~latency_aware cycle_of] builds and validates the
    schedule that issues instruction [i] at [cycle_of.(i)], a negative
    cycle meaning never: every instruction must issue, at most one per
    cycle, after its dependence sources and — with [latency_aware] —
    their latencies. The issue order is derived; the array is copied.
    Raises [Invalid_argument] unless [cycle_of] has one entry per
    instruction. *)

val of_order : Ddg.Graph.t -> int array -> (t, violation) result
(** Stall-free schedule from an instruction order (pass-1 form),
    validated with [latency_aware:false]. Total: any array — ids out of
    range, repeated or missing included — yields a [violation], never an
    exception, so possibly corrupted orders can be checked through it. *)

val validate : t -> latency_aware:bool -> (unit, violation) result
(** Re-check an existing schedule (used by the test suite on every
    schedule any component produces). *)

val is_valid : t -> latency_aware:bool -> bool
(** [Result.is_ok (validate t ~latency_aware)]. *)

val guard : t -> latency_aware:bool -> fallback:t -> t * bool
(** [guard t ~latency_aware ~fallback] is [(t, false)] when [t]
    validates and [(fallback, true)] otherwise — the last line of
    defence a fault-tolerant driver places in front of schedule
    emission. The fallback is trusted (not re-validated). *)

val length : t -> int
(** Number of cycles: the last issue cycle plus 1. *)

val num_stalls : t -> int
(** [length t] minus the number of instructions. *)

val order : t -> int array
(** Instruction ids in issue order, as a fresh array. *)

val cycle : t -> int -> int
(** Cycle of an instruction. *)

val iter_cycles : t -> (int -> int option -> unit) -> unit
(** [iter_cycles t f] calls [f c (Some i)] for the instruction [i]
    issued at cycle [c] and [f c None] for a stall, for every cycle [c]
    from 0 to [length t - 1] in order — the per-cycle view of
    Figure 1.b/1.c, for rendering. *)

val latency_pad : Ddg.Graph.t -> int array -> t
(** [latency_pad g order] inserts the minimum stalls into [order] to make
    it latency-feasible — how pass 2 builds its initial schedule from the
    pass-1 winner (the leftmost schedule of Figure 1.c). The order must
    be a valid dependence order. *)

val to_string : t -> string
