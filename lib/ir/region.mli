(** Scheduling regions.

    In LLVM a scheduling region is a basic block or part of one
    (Section VI-A). A region is a sequence of instructions in original
    program order together with the set of registers live past its exit.
    Uses of registers never defined inside the region are live-in. *)

type t = private {
  name : string;
  instrs : Instr.t array;  (** [instrs.(i).id = i] *)
  live_out : Reg.t list;
}

val max_latency_sum : int
(** 262,144 cycles (2{^18}: 256 instructions at {!Instr.make}'s
    1,024-cycle cap). A stall only waits out some issued instruction's
    latency, so a schedule spans at most the region's size plus this
    many cycles — what a list scheduler or an ant steps through and a
    rendered schedule writes per cycle. *)

val max_instrs : int
(** 8,192 instructions: every region the shape generators build at the
    sizes the compile service accepts fits (the largest, [scan] at size
    2,048, has 5,632), and a region past it is refused before any
    analysis sizes tables by it. *)

type error =
  | Empty_region
  | Too_many_instrs of int
      (** the region has this many instructions, more than {!max_instrs} *)
  | Bad_id of { expected : int; got : int }
  | Latency_sum_above_cap of int
      (** the instruction latencies sum to this many cycles, more than
          {!max_latency_sum} *)
  | Use_after_exit of Reg.t
      (** a [live_out] register is never defined in the region and never
          live-in (it could not be live at exit) — indicates a generator bug *)

val error_to_string : error -> string

val create : name:string -> ?live_out:Reg.t list -> Instr.t list -> (t, error) result
(** Validates that there are at most {!max_instrs} instructions, ids are
    consecutive from 0, the latencies sum to at most {!max_latency_sum},
    and [live_out] registers are either defined in the region or live-in
    through it. Linear in the instructions and the live-out list. *)

val create_exn : name:string -> ?live_out:Reg.t list -> Instr.t list -> t
(** [create] or raises [Invalid_argument] with the rendered error. *)

val size : t -> int
(** Number of instructions. *)

val live_in : t -> Reg.t list
(** Registers used before any region-local definition, deduplicated, in
    first-use order. *)

val is_live_out : t -> Reg.t -> bool

val to_string : t -> string
