(** Instructions: an opcode kind plus Def and Use register sets.

    The Def set is the registers an instruction writes and the Use set the
    registers it reads (Section II-A). The scheduler never looks at
    operand semantics beyond these sets and the latency. *)

type t = private {
  id : int;  (** index in the region's original program order *)
  name : string;
  kind : Opcode.kind;
  defs : Reg.t list;
  uses : Reg.t list;
  latency : int;
}

val make :
  id:int ->
  ?name:string ->
  ?latency:int ->
  kind:Opcode.kind ->
  defs:Reg.t list ->
  uses:Reg.t list ->
  unit ->
  t
(** [make ~id ~kind ~defs ~uses ()] builds an instruction; [latency]
    defaults to [Opcode.default_latency kind], [name] to the opcode
    mnemonic. Raises [Invalid_argument] on a latency outside 0..1024
    cycles or duplicate registers within the Def set. *)

val with_id : t -> int -> t
(** Same instruction renumbered (used when regions are sliced). *)

val defs_of_cls : t -> Reg.cls -> Reg.t list
val uses_of_cls : t -> Reg.cls -> Reg.t list

val to_string : t -> string
(** E.g. ["%5: v_load v3 <- v1 v2"]. *)

val pp : Format.formatter -> t -> unit
