(** Data dependence graphs (DDGs).

    A node is an instruction of the region, an edge a dependence, and an
    edge label a latency (Figure 1.a of the paper). Edges are derived
    from the original program order:

    - flow (def -> use) edges carry the producer's result latency;
    - anti (use -> redef) edges carry latency 0;
    - output (def -> redef) edges carry latency 1;
    - conservative memory-ordering edges keep stores ordered with stores
      and with surrounding loads of the same memory kind;
    - the region terminator (branch), when present, depends on every
      other instruction.

    Parallel edges are merged keeping the maximum latency, so the graph
    has at most one edge per ordered pair. Every edge points forward in
    program order, so instruction ids are a topological order: a walk
    over [0 .. n - 1] meets every node after all its predecessors.

    The edges are stored once per direction as compressed rows: row [i]
    of the successors is [succ_list.(k)] (latency [succ_lat.(k)]) for
    [k] from [succ_start.(i)] to [succ_start.(i + 1) - 1], and likewise
    for the predecessors. Every row is strictly ascending. *)

type t = private {
  region : Ir.Region.t;
  n : int;
  succ_start : int array;  (** [n + 1] row offsets into [succ_list]/[succ_lat] *)
  succ_list : int array;  (** each edge's destination, rows in source order *)
  succ_lat : int array;
  pred_start : int array;  (** [n + 1] row offsets into [pred_list]/[pred_lat] *)
  pred_list : int array;  (** each edge's source, rows in destination order *)
  pred_lat : int array;
}

val build : Ir.Region.t -> t
(** Construct the DDG of a region. *)

val size : t -> int
val num_preds : t -> int -> int
val num_succs : t -> int -> int

val latency_between : t -> int -> int -> int option
(** [latency_between g i j] is the label of edge [i -> j] if present. *)

val instr : t -> int -> Ir.Instr.t

val to_dot : t -> string
(** Graphviz rendering (for debugging / the examples): the nodes, then
    one line per edge in (source, destination) order. *)
