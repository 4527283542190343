(** Virtual registers of the AMD-GPU-like target.

    The two register classes mirror the AMDGPU backend: vector
    general-purpose registers (VGPRs, one value per lane) and scalar
    general-purpose registers (SGPRs, one value per wavefront). Register
    pressure is tracked per class because each class has its own
    occupancy limit (Section II-A of the paper). *)

type cls = Vgpr | Sgpr

type t = { cls : cls; id : int }
(** A virtual register: class plus a region-unique id per class. *)

val vgpr : int -> t
val sgpr : int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val cls_equal : cls -> cls -> bool

val to_string : t -> string
(** ["v3"] or ["s7"]. *)
