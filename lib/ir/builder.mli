(** Imperative construction of scheduling regions.

    The workload generator and the examples assemble regions through this
    builder: it hands out fresh virtual registers, numbers instructions
    consecutively, and produces a validated {!Region.t}. *)

type t

val create : name:string -> t

val fresh_vgpr : t -> Reg.t
val fresh_sgpr : t -> Reg.t

val emit :
  t -> ?name:string -> ?latency:int -> Opcode.kind -> defs:Reg.t list -> uses:Reg.t list -> unit
(** Append an instruction with explicit Def/Use sets. *)

val valu : t -> ?name:string -> Reg.t list -> Reg.t
(** [valu b uses] appends a 1-cycle vector ALU op reading [uses] and
    returns its freshly defined VGPR. *)

val valu_trans : t -> ?name:string -> Reg.t list -> Reg.t
(** Transcendental vector op (longer latency). *)

val salu : t -> ?name:string -> Reg.t list -> Reg.t
(** Scalar ALU op defining a fresh SGPR. *)

val vload : t -> ?name:string -> addr:Reg.t list -> unit -> Reg.t
(** Global load into a fresh VGPR. *)

val vstore : t -> ?name:string -> data:Reg.t list -> addr:Reg.t list -> unit -> unit
(** Global store; defines nothing. *)

val sload : t -> ?name:string -> addr:Reg.t list -> unit -> Reg.t
(** Scalar (constant) load into a fresh SGPR. *)

val lds_read : t -> ?name:string -> addr:Reg.t list -> unit -> Reg.t
val lds_write : t -> ?name:string -> data:Reg.t list -> addr:Reg.t list -> unit -> unit

val mark_live_out : t -> Reg.t -> unit
(** Record a register as live past the region exit. *)

val finish : t -> Region.t
(** Validate and return the region. Raises [Invalid_argument] if the
    builder produced an inconsistent region (a builder bug). *)
