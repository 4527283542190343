(* Persistent pool of worker domains.

   Domain.spawn costs hundreds of microseconds — paid per fan-out it
   erased the multi-domain executor's whole win on suite-sized compiles
   (BENCH_compile.json showed --jobs 2 at 0.61x sequential). The pool
   spawns each helper domain once, lazily, and parks it on a condition
   variable between jobs, so the steady-state cost of fanning out is two
   mutex handoffs per helper.

   Protocol (per helper): the submitting domain stores a closure in
   [task] and signals; the helper runs it, clears [task] and signals
   back. [task = None] means idle. The caller of [parallel_for] is
   itself worker 0, so a pool of size [s] yields up to [s + 1] ways of
   parallelism.

   The one fan-out, [parallel_for], hands out indices from a single
   atomic cursor: each worker claims the next index until none is left.
   At the pool's traffic — a few workers, tens to hundreds of jobs of
   0.1 ms and up — one fetch-and-add per job costs nothing measurable,
   and a caller that wants big jobs first orders its indices that way.
   A call that finds the pool busy (nested in a running [f], or
   concurrent from another domain) claims every index on its caller —
   safe, just sequential. *)

type helper = {
  m : Mutex.t;
  cv : Condition.t;
  mutable task : (unit -> unit) option;
  mutable failure : exn option;
  mutable stop : bool;
  mutable domain : unit Domain.t option;
}

type t = {
  size : int;
  helpers : helper array;
  lock : Mutex.t; (* guards spawning, [spawned] and [busy] *)
  mutable spawned : int;
  mutable busy : bool;
}

(* Lifecycle observer: support sits below the observability layer in
   the dependency order, so the pool cannot log directly. A layer above
   (bin, via Obs.Log) installs a callback; the default is no callback
   and costs one atomic load per event. Events fire outside the pool's
   locks where possible — [Spawned] necessarily fires while the
   spawning lock is held, so observers must not call back into the
   pool. *)
type event = Spawned of int | Acquired of int | Released of int

let observer : (event -> unit) option Atomic.t = Atomic.make None
let set_observer f = Atomic.set observer f

let notify e =
  match Atomic.get observer with Some f -> (try f e with _ -> ()) | None -> ()

(* Helpers default to the hardware: [recommended_domain_count - 1] plus
   the calling domain saturates the cores. Never more — OCaml's minor
   collections stop the world across every running domain, so
   oversubscribing domains beyond cores turns each GC into a cascade of
   context switches and loses badly (measured 0.4x on one core). A
   caller who wants oversubscription anyway can size a pool explicitly. *)
let default_size () = max 0 (Domain.recommended_domain_count () - 1)

let create ?size () =
  let size = max 0 (match size with Some s -> s | None -> default_size ()) in
  {
    size;
    helpers =
      Array.init size (fun _ ->
          {
            m = Mutex.create ();
            cv = Condition.create ();
            task = None;
            failure = None;
            stop = false;
            domain = None;
          });
    lock = Mutex.create ();
    spawned = 0;
    busy = false;
  }

let size t = t.size
let spawned t = Mutex.protect t.lock (fun () -> t.spawned)

let helper_loop h =
  let rec loop () =
    Mutex.lock h.m;
    while h.task = None && not h.stop do
      Condition.wait h.cv h.m
    done;
    if h.stop then Mutex.unlock h.m
    else begin
      let f = Option.get h.task in
      Mutex.unlock h.m;
      let failure = match f () with () -> None | exception e -> Some e in
      Mutex.lock h.m;
      h.failure <- failure;
      h.task <- None;
      Condition.broadcast h.cv;
      Mutex.unlock h.m;
      loop ()
    end
  in
  loop ()

(* Lock held by caller. *)
let ensure_spawned t k =
  for i = t.spawned to min k t.size - 1 do
    let h = t.helpers.(i) in
    h.domain <- Some (Domain.spawn (fun () -> helper_loop h));
    t.spawned <- i + 1;
    notify (Spawned i)
  done

let submit h f =
  Mutex.lock h.m;
  h.task <- Some f;
  h.failure <- None;
  Condition.broadcast h.cv;
  Mutex.unlock h.m

let await h =
  Mutex.lock h.m;
  while h.task <> None do
    Condition.wait h.cv h.m
  done;
  let failure = h.failure in
  h.failure <- None;
  Mutex.unlock h.m;
  failure

let parallel_for t ~workers n f =
  let next = Atomic.make 0 in
  let rec claim w =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      f w i;
      claim w
    end
  in
  let k = max 1 (min (min workers n) (t.size + 1)) in
  let acquired =
    k > 1
    && Mutex.protect t.lock (fun () ->
           if t.busy then false
           else begin
             t.busy <- true;
             ensure_spawned t (k - 1);
             true
           end)
  in
  if not acquired then
    (* one worker, a size-0 pool, or a busy pool: the caller claims
       every index — same results, no parallelism *)
    claim 0
  else begin
    notify (Acquired k);
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect t.lock (fun () -> t.busy <- false);
        notify (Released k))
      (fun () ->
        for w = 1 to k - 1 do
          submit t.helpers.(w - 1) (fun () -> claim w)
        done;
        let failure = ref (match claim 0 with () -> None | exception e -> Some e) in
        for w = 1 to k - 1 do
          match await t.helpers.(w - 1) with
          | Some e when !failure = None -> failure := Some e
          | _ -> ()
        done;
        match !failure with Some e -> raise e | None -> ())
  end

let shutdown t =
  Mutex.protect t.lock (fun () ->
      for i = 0 to t.spawned - 1 do
        let h = t.helpers.(i) in
        Mutex.lock h.m;
        h.stop <- true;
        Condition.broadcast h.cv;
        Mutex.unlock h.m
      done;
      for i = 0 to t.spawned - 1 do
        let h = t.helpers.(i) in
        (match h.domain with Some d -> Domain.join d | None -> ());
        h.domain <- None
      done;
      t.spawned <- 0)

(* The process-wide pool: created on first use, shared by every suite
   compile and serve request, shut down at exit so domains do not
   outlive main. *)
let global_pool = ref None
let global_lock = Mutex.create ()

let global () =
  Mutex.protect global_lock (fun () ->
      match !global_pool with
      | Some p -> p
      | None ->
          let p = create () in
          global_pool := Some p;
          at_exit (fun () -> shutdown p);
          p)
