(* Content-addressed cache of region-analysis contexts.

   The key is the region's structural fingerprint (instruction kinds,
   latencies, register defs/uses and live-outs — names excluded, see
   [Engine.Region_ctx.fingerprint_of_region]) salted with the occupancy
   model, so two regions that compile identically share one analysis no
   matter which kernel they came from.

   A miss computes the context *outside* the mutex through a per-key
   once-cell: the first requester installs a [Computing] entry under the
   lock, releases it, runs the analysis, then fills the cell and wakes
   any waiters. Concurrent requesters of the same key find the cell and
   block on the condition variable instead of re-analysing — the compile
   service's invariant of exactly one analysis per distinct region
   holds, but domains analysing *different* regions no longer serialize
   on the cache mutex (they used to: misses computed under the lock). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  computed : int;
  entries : int;
  capacity : int;
}

type cell = Computing | Ready of Engine.Region_ctx.t | Failed of exn

type entry = { mutable e_cell : cell; mutable e_used : int }

type t = {
  capacity : int;
  metrics : Obs.Metrics.t;
  lock : Mutex.t;
  cond : Condition.t;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable computed : int;
}

let default_capacity = 512

let create ?(metrics = Obs.Metrics.null) ?(capacity = default_capacity) () =
  {
    capacity = max 0 capacity;
    metrics;
    lock = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    computed = 0;
  }

let disabled () = create ~capacity:0 ()

let caching t = t.capacity > 0

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Occupancy is part of the analysis (heuristic costs, RP bounds), so it
   salts the key; [Occupancy.t] is plain data, so Marshal is a faithful
   rendering. *)
let key_of occ region =
  let fingerprint = Engine.Region_ctx.fingerprint_of_region region in
  (Digest.to_hex (Digest.string (Marshal.to_string occ [])) ^ ":" ^ fingerprint, fingerprint)

(* Lock held. Linear scan over the table: capacities are small (hundreds)
   and eviction only happens on a miss that also ran a full analysis.
   [Computing] entries are never victims — evicting one would let a
   racing requester re-analyse the same region and break the
   once-per-distinct-region invariant (waiters also hold the entry). *)
let evict_if_full t =
  if Hashtbl.length t.tbl >= t.capacity then begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match e.e_cell with
          | Computing -> acc
          | Ready _ | Failed _ -> (
              match acc with
              | Some (_, best) when best <= e.e_used -> acc
              | _ -> Some (k, e.e_used)))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr t.metrics "analysis.cache.evictions"
    | None -> ()
  end

(* Lock held (released around nothing — counters only). *)
let count_miss t =
  t.misses <- t.misses + 1;
  t.computed <- t.computed + 1;
  Obs.Metrics.incr t.metrics "analysis.cache.misses";
  Obs.Metrics.incr t.metrics "analysis.cache.computed"

let get t occ region =
  let key, fingerprint = key_of occ region in
  if t.capacity = 0 then begin
    (* metering-only: count under the lock, analyse outside it *)
    locked t (fun () ->
        t.tick <- t.tick + 1;
        count_miss t);
    Engine.Region_ctx.of_region ~fingerprint occ region
  end
  else begin
    Mutex.lock t.lock;
    t.tick <- t.tick + 1;
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
        (* hit — possibly on a cell still computing: wait, don't
           re-analyse. Waiting counts as a hit (no analysis ran). *)
        e.e_used <- t.tick;
        t.hits <- t.hits + 1;
        Obs.Metrics.incr t.metrics "analysis.cache.hits";
        let rec await () =
          match e.e_cell with
          | Ready rc ->
              Mutex.unlock t.lock;
              rc
          | Failed exn ->
              Mutex.unlock t.lock;
              raise exn
          | Computing ->
              Condition.wait t.cond t.lock;
              await ()
        in
        await ()
    | None ->
        count_miss t;
        evict_if_full t;
        let e = { e_cell = Computing; e_used = t.tick } in
        Hashtbl.add t.tbl key e;
        Mutex.unlock t.lock;
        (* the expensive part, outside the lock *)
        (match Engine.Region_ctx.of_region ~fingerprint occ region with
        | rc ->
            Mutex.lock t.lock;
            e.e_cell <- Ready rc;
            Condition.broadcast t.cond;
            Mutex.unlock t.lock;
            rc
        | exception exn ->
            (* waiters see [Failed] through their entry reference; the
               table forgets the key so a later request may retry *)
            Mutex.lock t.lock;
            e.e_cell <- Failed exn;
            Hashtbl.remove t.tbl key;
            Condition.broadcast t.cond;
            Mutex.unlock t.lock;
            raise exn)
  end

let resident t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ e acc ->
          match e.e_cell with Ready rc -> (e.e_used, rc) :: acc | Computing | Failed _ -> acc)
        t.tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        computed = t.computed;
        entries = Hashtbl.length t.tbl;
        capacity = t.capacity;
      })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "analysis cache: %d hits, %d misses (%.0f%% hit rate), %d computed, %d evicted, \
     %d/%d entries"
    s.hits s.misses
    (100.0 *. hit_rate s)
    s.computed s.evictions s.entries s.capacity
