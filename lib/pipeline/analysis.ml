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
  entries : int;
  capacity : int;
}

type cell = Computing | Ready of Engine.Region_ctx.t | Failed of exn

type entry = { mutable cell : cell }

type t = {
  metrics : Obs.Metrics.t;
  lock : Mutex.t;
  cond : Condition.t;
  tbl : (string, entry) Support.Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 512

let create ?(metrics = Obs.Metrics.null) ?(capacity = default_capacity) () =
  {
    metrics;
    lock = Mutex.create ();
    cond = Condition.create ();
    tbl = Support.Lru.create capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let disabled () = create ~capacity:0 ()

let caching t = Support.Lru.capacity t.tbl > 0

(* Occupancy is part of the analysis (heuristic costs, RP bounds), so it
   salts the key; [Occupancy.t] is plain data, so Marshal is a faithful
   rendering. *)
let key_of occ fingerprint =
  Digest.to_hex (Digest.string (Marshal.to_string occ [])) ^ ":" ^ fingerprint

(* A [Computing] cell is pinned: evicting it would let a racing
   requester re-analyse the same region and break the
   once-per-distinct-region invariant (waiters also hold the entry). *)
let computing e = match e.cell with Computing -> true | Ready _ | Failed _ -> false

let get t ?fingerprint occ region =
  let fingerprint =
    match fingerprint with Some f -> f | None -> Engine.Region_ctx.fingerprint_of_region region
  in
  let key = key_of occ fingerprint in
  Mutex.lock t.lock;
  match Support.Lru.find t.tbl key with
  | Some e ->
      (* hit — possibly on a cell still computing: wait, don't
         re-analyse. Waiting counts as a hit (no analysis ran). *)
      t.hits <- t.hits + 1;
      Obs.Metrics.incr t.metrics "analysis.cache.hits";
      let rec await () =
        match e.cell with
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
      t.misses <- t.misses + 1;
      Obs.Metrics.incr t.metrics "analysis.cache.misses";
      let e = { cell = Computing } in
      if Support.Lru.add ~pinned:computing t.tbl key e then begin
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr t.metrics "analysis.cache.evictions"
      end;
      Mutex.unlock t.lock;
      (* the expensive part, outside the lock *)
      (match Engine.Region_ctx.of_region ~fingerprint occ region with
      | rc ->
          Mutex.lock t.lock;
          e.cell <- Ready rc;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          rc
      | exception exn ->
          (* waiters see [Failed] through their entry reference; the
             table forgets the key so a later request may retry *)
          Mutex.lock t.lock;
          e.cell <- Failed exn;
          Support.Lru.remove t.tbl key;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          raise exn)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Support.Lru.length t.tbl;
        capacity = Support.Lru.capacity t.tbl;
      })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "analysis cache: %d hits, %d misses (%.0f%% hit rate), %d evicted, %d/%d entries"
    s.hits s.misses
    (100.0 *. hit_rate s)
    s.evictions s.entries s.capacity
