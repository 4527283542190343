(** A bounded table with least-recently-used eviction: the one recency
    policy behind the compile service's analysis cache and its schedule
    memo. {!find} and {!add} make an entry the most recently used;
    {!mem} leaves recency alone, so a caller can probe without
    reordering. No lock: callers that share a table hold their own. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity]: at most [capacity] entries; [<= 0] keeps none. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int
val mem : ('k, 'v) t -> 'k -> bool

val find : ('k, 'v) t -> 'k -> 'v option
(** The value under the key, which becomes the most recently used. *)

val add : ?pinned:('v -> bool) -> ('k, 'v) t -> 'k -> 'v -> bool
(** Bind the key as the most recently used entry. A new key at capacity
    first evicts the least recently used entry whose value is not
    [pinned] (default: none is); the result says whether one was. With
    every entry pinned the table grows past its capacity. *)

val remove : ('k, 'v) t -> 'k -> unit

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Least recently used first: adding the entries in this order to an
    empty table restores their recency, and a smaller table keeps the
    most recent. *)
