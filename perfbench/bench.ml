(* The compile-and-serve benchmark.

   One run = one workload, one seed, one measuring window:

     bench.exe --workload W --seed N --seconds S --trace 0|1

   The inputs are batches of kernels from the product's test-scale
   suite, drawn from the seed. Set-up is what a user pays before steady
   state: a fresh process that registers the backends, creates the
   compiler state and compiles the first batch once, cold. The benchmark
   runs it several times as child processes of its own. A warm-up pass
   in this process then compiles the first batch once, untimed. Measured
   passes compile every batch, in whole cycles, while the window lasts;
   every output must be a clean (not degraded) compile that an
   independent schedule checker accepts and that matches what the same
   request produced before.

   --trace 0 times the pipeline end to end, as a user sees it.
   --trace 1 runs the same passes with the outside-in layer ledger: the
   benchmark swaps the backend for a wrapper that timestamps its entry
   points (prepare, pass 1, pass 2, teardown), and times its own calls
   into ingest, analysis and report around it. Every interval of an
   item belongs to exactly one layer, so the layers sum to the item
   time.

   The last line of stdout is one JSON object with the keys correct,
   attempted, failed and metrics. *)

let now = Unix.gettimeofday

(* ---- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload compile-par|compile-seq|serve-hit --seed N \
     --seconds S --trace 0|1";
  exit 2

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg k = match List.assoc_opt k args with Some v -> v | None -> usage ()

let int_arg k =
  match int_of_string_opt (arg k) with Some v -> v | None -> usage ()

(* ---- workloads ----------------------------------------------------------- *)

type mode = Compile | Serve

type workload = {
  mode : mode;
  backend : string;  (** registry name of the product backend *)
  copies : int;  (** times each region is requested per pass *)
}

let workload =
  match arg "workload" with
  | "compile-par" -> { mode = Compile; backend = "par"; copies = 1 }
  | "compile-seq" -> { mode = Compile; backend = "seq"; copies = 1 }
  | "serve-hit" -> { mode = Serve; backend = "par"; copies = 4 }
  | _ -> usage ()

let seed = int_arg "seed"
let seconds = float_of_int (int_arg "seconds")

let tracing =
  match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()

(* A set-up probe is a child process of the benchmark itself: it builds
   the inputs, prints how long that took, and then does the set-up. *)
let probing = List.assoc_opt "setup-probe" args = Some "1"

(* ---- layer ledger -------------------------------------------------------- *)

(* The ledger is a clock that is always charging exactly one layer;
   [enter l] closes the running interval and charges what follows to
   [l]. Time and minor-heap words are both charged. *)

let layer_names =
  [| "ingest"; "analysis"; "backend_prepare"; "search"; "orchestrate"; "report"; "idle" |]

let ingest = 0
let analysis = 1
let backend_prepare = 2
let search = 3
let orchestrate = 4
let report = 5
let idle = 6
let n_layers = Array.length layer_names
let layer_s = Array.make n_layers 0.0
let layer_words = Array.make n_layers 0.0
let current = ref idle
let mark_t = ref 0.0
let mark_w = ref 0.0

let enter l =
  if tracing then begin
    let t = now () and w = Gc.minor_words () in
    layer_s.(!current) <- layer_s.(!current) +. (t -. !mark_t);
    layer_words.(!current) <- layer_words.(!current) +. (w -. !mark_w);
    current := l;
    mark_t := t;
    mark_w := w
  end

(* Pass outcomes seen by the wrapper: runs and improvements per pass,
   and the ant loop's work over both passes. *)
let pass_runs = [| 0; 0 |]
let pass_improved = [| 0; 0 |]
let ant_work = ref 0
let scored_candidates = ref 0
let pruned_candidates = ref 0

let count_pass k (stats : Engine.Types.pass_stats) =
  ant_work := !ant_work + stats.Engine.Types.work;
  scored_candidates := !scored_candidates + stats.Engine.Types.scored_candidates;
  pruned_candidates := !pruned_candidates + stats.Engine.Types.pruned_candidates;
  if stats.Engine.Types.invoked then begin
    pass_runs.(k) <- pass_runs.(k) + 1;
    if stats.Engine.Types.improved then pass_improved.(k) <- pass_improved.(k) + 1
  end

(* The backend seen from outside: the real backend's entry points, each
   bracketed by ledger switches. Both passes (pass 1, the
   register-pressure search, and pass 2, the length search) are charged
   to [search]: pass 1 runs only on regions whose pressure sits above an
   occupancy step, and the test-scale suite has none. Whatever the two-pass orchestrator does
   between them is charged to [orchestrate]; teardown ends the backend's
   window and hands the clock to [report]. *)
let timed (inner : Engine.Backend.t) : Engine.Backend.t =
  let module B = (val inner : Engine.Backend.S) in
  (module struct
    let name = "timed-" ^ B.name
    let caps = B.caps
    let objective = B.objective

    type state = B.state

    let prepare ctx rc =
      enter backend_prepare;
      let s = B.prepare ctx rc in
      enter orchestrate;
      s

    let run_order_pass s req =
      enter search;
      let ((_, stats) as r) = B.run_order_pass s req in
      enter orchestrate;
      count_pass 0 stats;
      r

    let run_schedule_pass s req =
      enter search;
      let ((_, stats) as r) = B.run_schedule_pass s req in
      enter orchestrate;
      count_pass 1 stats;
      r

    let teardown s =
      B.teardown s;
      enter report
  end)

(* ---- compiler configuration ---------------------------------------------- *)

let backend_key ~timed = if timed then "timed-" ^ workload.backend else workload.backend

let config ~timed =
  let c = Pipeline.Compile.make_config () in
  let c =
    {
      c with
      Pipeline.Compile.dispatch = Engine.Dispatch.Fixed (backend_key ~timed);
      run_sequential = false;
    }
  in
  (* The pipeline seeds a backend by its registry name; the wrapper's
     name must not change the seed the wrapped backend would get. *)
  if timed && workload.backend = "seq" then
    { c with Pipeline.Compile.par_seed = c.Pipeline.Compile.seq_seed }
  else c

(* ---- inputs ---------------------------------------------------------------- *)

(* The regions are kernels of the product's own suite, Workload.Suite at
   test scale (the facsimile of the paper's Table 1: per kernel, one hot
   loop-body region of a primitive family plus small prologue and
   epilogue regions), flattened into jobs as the executor of
   `gpuaco compile --suite` flattens a suite.

   One suite is a poor sample: per-region cost is heavy-tailed (ant
   work grows much faster than region size) and bimodal (the compiler
   skips the ant search where the heuristic schedule is provably
   optimal), and the metrics of one suite varied by 0.2 to 0.5 of their
   median across seeds. So a run compiles [batches] distinct suites, and
   each is stratified. A fixed reference draw of [draws] suites of
   [kernels] kernels each (the suite deals families round-robin from a
   pool of twelve, so 24 kernels take the pool twice over) sets, per
   family, as many target hot-region sizes as one suite has kernels of
   that family, at evenly spaced quantiles. For each batch the seed
   draws [draws] suites of its own, and for each target the batch takes
   the drawn kernel whose hot region is nearest that size. Every batch
   holds the same families at the same sizes; the seed picks the
   kernels, their small regions and the regions' structure. *)
let kernels = 24
let draws = 8
let batches = 12

let family (k : Workload.Suite.kernel) =
  String.sub k.Workload.Suite.kernel_name 0 (String.rindex k.Workload.Suite.kernel_name '_')

let hot_size (k : Workload.Suite.kernel) =
  Ir.Region.size (List.nth k.Workload.Suite.regions k.Workload.Suite.hot_index)

let draw key =
  List.concat_map
    (fun d ->
      (Workload.Suite.generate
         { Workload.Suite.test_scale with Workload.Suite.seed = key d; num_kernels = kernels })
        .Workload.Suite.kernels)
    (List.init draws Fun.id)

(* (family, target hot-region sizes), the same for every seed. *)
let strata =
  lazy
    (let reference = draw (fun d -> Hashtbl.hash ("strata", d)) in
     List.map
       (fun f ->
         let sizes =
           Array.of_list
             (List.sort compare
                (List.map hot_size (List.filter (fun k -> family k = f) reference)))
         in
         let n = Array.length sizes / draws in
         (f, List.init n (fun s -> sizes.(((2 * s) + 1) * Array.length sizes / (2 * n)))))
       (List.sort_uniq compare (List.map family reference)))

let stratified_suite b =
  let candidates = ref (draw (fun d -> Hashtbl.hash (seed, b, d))) in
  let pick f s target =
    let distance k = abs (hot_size k - target) in
    let best =
      List.fold_left
        (fun best k ->
          if family k <> f then best
          else match best with Some b when distance b <= distance k -> best | _ -> Some k)
        None !candidates
      |> Option.get
    in
    candidates := List.filter (fun k -> k != best) !candidates;
    { best with Workload.Suite.kernel_name = Printf.sprintf "%s_%d" f s }
  in
  let kernels =
    List.concat_map (fun (f, targets) -> List.mapi (pick f) targets) (Lazy.force strata)
  in
  { Workload.Suite.kernels; benchmarks = [] }

type input = {
  job : Pipeline.Executor.job;  (** the region is the checker's ground truth *)
  frame : string;  (** serve: the framed request the daemon receives *)
  timed_frame : string;  (** the same request, naming the timed backend *)
}

let make_inputs b =
  let suite = stratified_suite b in
  let one (job : Pipeline.Executor.job) =
    let frame ~timed =
      match workload.mode with
      | Compile -> ""
      | Serve ->
          (* A region on the wire carries its name, and the name is part
             of the report; give it the job's unique name. *)
          let r = job.Pipeline.Executor.j_region in
          let named =
            Ir.Region.create_exn ~name:job.Pipeline.Executor.j_name
              ~live_out:r.Ir.Region.live_out (Array.to_list r.Ir.Region.instrs)
          in
          Support.Frame.encode
            (Printf.sprintf "op=compile id=%s backend=%s\n%s" job.Pipeline.Executor.j_name
               (backend_key ~timed) (Ir.Parse.region_to_wire named))
    in
    { job; frame = frame ~timed:false; timed_frame = frame ~timed:true }
  in
  let inputs = Array.map one (Pipeline.Executor.jobs_of_suite (config ~timed:true) suite) in
  (* Repeats interleave: the whole suite, then the whole suite again, the
     way a build re-requests a suite it has already compiled. *)
  Array.concat (List.init workload.copies (fun _ -> inputs))

(* What the user gets back for one input. *)
type output = {
  order : int array;
  length : int;
  occupancy : int;
  digest : string;
  clean : bool;  (** compiled without degradation: no fallback, retry, budget hit or shed *)
  sim_ns : float;  (** simulated GPU compile time (0 for a memo replay) *)
}

(* ---- machine speed ------------------------------------------------------- *)

(* On a shared host the speed of a core drifts as other tenants load
   the machine: up to 1.8x over seconds on a 2-vCPU virtual machine,
   and thread CPU time drifts with wall time, so neither can be taken
   at face value. Before every input the benchmark times a fixed
   reference kernel of its own (building and folding a 600-entry
   integer map: small allocations, pointer chasing and comparisons,
   like the compiler's own code, but none of its code) and scales the
   input's time by how much slower than nominal the reference ran
   around it. Times reported are at the speed where the kernel takes
   [nominal_s]. *)

module Int_map = Map.Make (Int)

let nominal_s = 70e-6

let reference_kernel () =
  let t0 = now () in
  let m = ref Int_map.empty in
  for i = 0 to 599 do
    m := Int_map.add ((i * 7919) land 4095) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.fold (fun k v acc -> k + v + acc) !m 0));
  now () -. t0

(* A pass compiles every input once, in order. Per input it returns the
   output, the wall time and words allocated from request to reply, and
   the reference kernel's time just before. *)
type pass = {
  outs : output option array;
  times : float array;
  speed : float array;
  words : float array;
}

let gc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type pass_state = {
  mutable analysis_hits : int;
  mutable analysis_misses : int;
  mutable memo_hits : int;
  mutable rejected : int;
}

let decode frame =
  match Support.Frame.decode frame ~pos:0 with
  | Ok (payload, _) -> payload
  | Error _ -> failwith "frame did not decode"

let compile_pass ~timed inputs st =
  let config = config ~timed in
  let cache = Pipeline.Analysis.create () in
  let outs = Array.make (Array.length inputs) None in
  let times = Array.make (Array.length inputs) 0.0 in
  let speed = Array.make (Array.length inputs) 0.0 in
  let words = Array.make (Array.length inputs) 0.0 in
  Array.iteri
    (fun i inp ->
      speed.(i) <- reference_kernel ();
      let w0 = gc_words () in
      let t0 = now () in
      (* The suite compile takes its regions in memory: ingest holds only
         the ledger's own switch. *)
      enter ingest;
      enter analysis;
      let r = Pipeline.Executor.run_job ~cache config inp.job in
      enter report;
      let digest = Pipeline.Report_digest.digest_region r in
      enter idle;
      times.(i) <- now () -. t0;
      words.(i) <- gc_words () -. w0;
      let p = Pipeline.Compile.product_run r in
      outs.(i) <-
        Some
          {
            order = r.Pipeline.Compile.aco_order;
            length = r.Pipeline.Compile.aco_cost.Sched.Cost.length;
            occupancy = r.Pipeline.Compile.aco_cost.Sched.Cost.rp.Sched.Cost.occupancy;
            digest;
            clean = r.Pipeline.Compile.degradation = Pipeline.Robust.Clean;
            sim_ns =
              p.Pipeline.Compile.run_pass1_time_ns +. p.Pipeline.Compile.run_pass2_time_ns;
          })
    inputs;
  let s = Pipeline.Analysis.stats cache in
  st.analysis_hits <- st.analysis_hits + s.Pipeline.Analysis.hits;
  st.analysis_misses <- st.analysis_misses + s.Pipeline.Analysis.misses;
  { outs; times; speed; words }

let serve_pass ~timed inputs st =
  let outs = Array.make (Array.length inputs) None in
  let times = Array.make (Array.length inputs) 0.0 in
  let speed = Array.make (Array.length inputs) 0.0 in
  let words = Array.make (Array.length inputs) 0.0 in
  let slot = ref 0 in
  (* The reply's bytes on the wire, as the daemon's transport writes them. *)
  let wire = Buffer.create 4096 in
  let on_reply reply =
    enter report;
    (match reply with
    | Pipeline.Serve.Compiled c ->
        outs.(!slot) <-
          Some
            {
              order = c.Pipeline.Serve.rep_order;
              length = c.Pipeline.Serve.rep_cost.Sched.Cost.length;
              occupancy = c.Pipeline.Serve.rep_cost.Sched.Cost.rp.Sched.Cost.occupancy;
              digest = c.Pipeline.Serve.rep_digest;
              clean =
                c.Pipeline.Serve.rep_outcome = Pipeline.Robust.Clean
                && c.Pipeline.Serve.rep_memo <> `Shed;
              sim_ns = c.Pipeline.Serve.rep_latency_ns;
            };
        if c.Pipeline.Serve.rep_memo = `Hit then st.memo_hits <- st.memo_hits + 1
    | _ -> st.rejected <- st.rejected + 1);
    Buffer.add_string wire (Support.Frame.encode (Pipeline.Serve.render_reply reply))
  in
  let srv =
    Pipeline.Serve.create ~on_reply (Pipeline.Serve.default_config (config ~timed))
  in
  Array.iteri
    (fun i inp ->
      slot := i;
      Buffer.clear wire;
      speed.(i) <- reference_kernel ();
      let w0 = gc_words () in
      let t0 = now () in
      enter ingest;
      Pipeline.Serve.handle srv (decode (if timed then inp.timed_frame else inp.frame));
      (* One closed-loop client: the next request is sent only after the
         reply to this one. *)
      enter analysis;
      ignore (Pipeline.Serve.process srv);
      enter idle;
      times.(i) <- now () -. t0;
      words.(i) <- gc_words () -. w0)
    inputs;
  let s = Pipeline.Serve.analysis_stats srv in
  st.analysis_hits <- st.analysis_hits + s.Pipeline.Analysis.hits;
  st.analysis_misses <- st.analysis_misses + s.Pipeline.Analysis.misses;
  { outs; times; speed; words }

let run_pass ~timed inputs st =
  match workload.mode with
  | Compile -> compile_pass ~timed inputs st
  | Serve -> serve_pass ~timed inputs st

(* ---- independent checker ------------------------------------------------- *)

(* Checks a shipped order against the region text alone, without the
   compiler's dependence graph: every instruction appears once, register
   dependences (read after write, write after read, write after write)
   keep program order, and the reported length is at least what that
   order needs once each value's producer latency has elapsed. *)
type deps = { raw : (int * int) list array; order_deps : int list array }

let deps_of (region : Ir.Region.t) =
  let n = Ir.Region.size region in
  let raw = Array.make n [] and order_deps = Array.make n [] in
  let last_def = Hashtbl.create 64 and uses_since = Hashtbl.create 64 in
  Array.iter
    (fun (ins : Ir.Instr.t) ->
      let j = ins.Ir.Instr.id in
      List.iter
        (fun u ->
          match Hashtbl.find_opt last_def u with
          | Some i -> raw.(j) <- (i, region.Ir.Region.instrs.(i).Ir.Instr.latency) :: raw.(j)
          | None -> ())
        ins.Ir.Instr.uses;
      List.iter
        (fun d ->
          (match Hashtbl.find_opt last_def d with
          | Some i -> order_deps.(j) <- i :: order_deps.(j)
          | None -> ());
          List.iter
            (fun i -> order_deps.(j) <- i :: order_deps.(j))
            (Option.value (Hashtbl.find_opt uses_since d) ~default:[]))
        ins.Ir.Instr.defs;
      List.iter
        (fun u ->
          Hashtbl.replace uses_since u
            (j :: Option.value (Hashtbl.find_opt uses_since u) ~default:[]))
        ins.Ir.Instr.uses;
      List.iter
        (fun d ->
          Hashtbl.replace last_def d j;
          Hashtbl.replace uses_since d [])
        ins.Ir.Instr.defs)
    region.Ir.Region.instrs;
  { raw; order_deps }

(* The latency-weighted critical path over register dependences, and
   one cycle per instruction: no schedule can be shorter. *)
let length_lb (region : Ir.Region.t) d =
  let n = Ir.Region.size region in
  let finish = Array.make n 0 in
  for j = 0 to n - 1 do
    finish.(j) <- List.fold_left (fun acc (i, lat) -> max acc (finish.(i) + lat)) 1 d.raw.(j)
  done;
  max n (Array.fold_left max 0 finish)

let check_output (region : Ir.Region.t) d (o : output) =
  let n = Ir.Region.size region in
  Array.length o.order = n
  &&
  let pos = Array.make n (-1) in
  let perm = ref true in
  Array.iteri
    (fun p i -> if i < 0 || i >= n || pos.(i) >= 0 then perm := false else pos.(i) <- p)
    o.order;
  !perm
  &&
  let deps_ok = ref true in
  for j = 0 to n - 1 do
    List.iter (fun (i, _) -> if pos.(i) >= pos.(j) then deps_ok := false) d.raw.(j);
    List.iter (fun i -> if pos.(i) >= pos.(j) then deps_ok := false) d.order_deps.(j)
  done;
  !deps_ok
  &&
  (* Issue in order, one instruction per cycle, each as soon as its
     operands are ready. *)
  let cycle = Array.make n 0 in
  let last = ref (-1) in
  Array.iter
    (fun j ->
      let c =
        List.fold_left (fun acc (i, lat) -> max acc (cycle.(i) + lat)) (!last + 1) d.raw.(j)
      in
      cycle.(j) <- c;
      last := c)
    o.order;
  o.length >= !last + 1 && o.occupancy > 0

(* ---- statistics ---------------------------------------------------------- *)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let f = x -. float_of_int i in
    if i + 1 < n then (sorted.(i) *. (1.0 -. f)) +. (sorted.(i + 1) *. f) else sorted.(i)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile a 0.5

(* ---- the run ---------------------------------------------------------------- *)

let fresh_state () = { analysis_hits = 0; analysis_misses = 0; memo_hits = 0; rejected = 0 }

(* Set-up, as a user pays it: from starting a process to the end of its
   first suite compiled — program start-up, backend registration, a
   fresh compiler state and the first batch compiled once, cold. A probe
   is this program run again as a child, so nothing this process has
   already built is shared. The child first builds the batch; that is
   the benchmark's own work and is taken off. It reports the batch's
   item times, raw and scaled per item as the measured passes scale
   them; the parent scales the rest of the child's life (start-up,
   registration, state, exit) by the reference kernel run just before
   and just after it. Scaling the whole child by those two readings
   alone left probes of one run 0.3 apart.

   The child also reports its heap's high-water mark: the memory a
   process needs to compile a batch. The GC is paced by allocation, not
   by time, so that figure is the same on every probe, where the
   measuring process's own high-water mark swung by 0.3 of its median
   from seed to seed. *)
let setup_probes = 3

(* A pass's item times at nominal speed: each scaled by the reference
   kernel's median over the nine inputs around it. *)
let scaled { times; speed; _ } =
  let n = Array.length speed in
  Array.mapi
    (fun i t ->
      t *. nominal_s /. median (List.init 9 (fun d -> speed.(max 0 (min (n - 1) (i + d - 4))))))
    times

let sum = Array.fold_left ( +. ) 0.0

let measure_setup () =
  let reference () = median (List.init 3 (fun _ -> reference_kernel ())) in
  let probe () =
    let before = reference () in
    let t0 = now () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.append Sys.argv [| "--setup-probe"; "1" |])
        Unix.stdin out_w Unix.stderr
    in
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r in
    let line = In_channel.input_all ic in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    let t = now () -. t0 in
    let after = reference () in
    match (status, List.map float_of_string_opt (String.split_on_char ' ' (String.trim line))) with
    | Unix.WEXITED 0, [ Some inputs_s; Some items_s; Some scaled_s; Some heap_words ] ->
        ( ((t -. inputs_s -. items_s) *. nominal_s /. ((before +. after) /. 2.0)) +. scaled_s,
          heap_words )
    | _ -> failwith "set-up probe failed"
  in
  let probes = List.init setup_probes (fun _ -> probe ()) in
  (median (List.map fst probes), median (List.map snd probes))

let same_reply a b = a.order = b.order && a.length = b.length && a.digest = b.digest

let () =
  let t0 = now () in
  let first = make_inputs 0 in
  let inputs_s = now () -. t0 in
  Pipeline.Compile.ensure_backends ();
  if probing then begin
    let p = run_pass ~timed:false first (fresh_state ()) in
    Printf.printf "%.17g %.17g %.17g %d\n" inputs_s (sum p.times) (sum (scaled p))
      (Gc.quick_stat ()).Gc.top_heap_words;
    exit 0
  end;
  Engine.Registry.register (timed (Engine.Registry.find_exn workload.backend));
  let setup_s, heap_words = if tracing then (nan, nan) else measure_setup () in
  let batch = Array.init batches (fun b -> if b = 0 then first else make_inputs b) in
  let region inp = inp.job.Pipeline.Executor.j_region in
  let deps = Array.map (Array.map (fun inp -> deps_of (region inp))) batch in
  let lbs =
    Array.mapi (fun b -> Array.mapi (fun i inp -> length_lb (region inp) deps.(b).(i))) batch
  in
  let st = fresh_state () in
  let failed = ref 0 and attempted = ref 0 in
  (* Every output must be a clean compile that the independent checker
     accepts. A repeat of a request within a pass (a memo replay) must
     ship what the first reply shipped, and a batch must compile to what
     it compiled the first time; the timed backend must reproduce the
     real one, up to the backend name in the digest. *)
  let references = Array.make batches None in
  let check b (outs : output option array) =
    let first = Hashtbl.create 256 in
    Array.iteri
      (fun i o ->
        incr attempted;
        let ok =
          match o with
          | None -> false
          | Some o -> (
              o.clean
              && check_output (region batch.(b).(i)) deps.(b).(i) o
              && (match Hashtbl.find_opt first batch.(b).(i).job.Pipeline.Executor.j_name with
                 | None ->
                     Hashtbl.add first batch.(b).(i).job.Pipeline.Executor.j_name o;
                     true
                 | Some f -> same_reply f o)
              &&
              match references.(b) with
              | None -> true
              | Some r -> (
                  match r.(i) with
                  | Some r ->
                      r.order = o.order && r.length = o.length && r.occupancy = o.occupancy
                      && (tracing || r.digest = o.digest)
                  | None -> false))
        in
        if not ok then incr failed)
      outs;
    if references.(b) = None then references.(b) <- Some outs
  in
  (* Warm-up: the first batch through the real backend fills lazily
     built state and gives that batch's reference outputs. *)
  let wst = fresh_state () in
  check 0 (run_pass ~timed:false batch.(0) wst).outs;
  failed := !failed + wst.rejected;
  (* Measured passes, one per batch, in whole cycles over the batches:
     at least one, and more while another fits in the window, so every
     batch weighs the same. Each pass starts after a full collection, so
     one pass's garbage does not land in the next one's times. *)
  let samples = ref [] and passes = ref 0 and cycles = ref 0 and items = ref 0 in
  let alloc = ref 0.0 and sim = ref 0.0 and quality = ref 0.0 in
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  (* The ledger, scaled by each pass's reference speed like the items. *)
  let ledger = Array.make n_layers 0.0 and ledger_items = ref 0.0 in
  Array.fill layer_words 0 n_layers 0.0;
  let start = now () in
  let measure b =
    Gc.compact ();
    let gc0 = Gc.quick_stat () in
    Array.fill layer_s 0 n_layers 0.0;
    current := idle;
    let ({ outs; times; speed; words } as p) = run_pass ~timed:tracing batch.(b) st in
    let gc1 = Gc.quick_stat () in
    minor_gcs := !minor_gcs + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs := !major_gcs + gc1.Gc.major_collections - gc0.Gc.major_collections;
    incr passes;
    items := !items + Array.length times;
    samples := Array.to_list (scaled p) @ !samples;
    let scale = nominal_s /. median (Array.to_list speed) in
    Array.iteri (fun l v -> ledger.(l) <- ledger.(l) +. (scale *. v)) layer_s;
    ledger_items := !ledger_items +. (scale *. sum times);
    alloc := sum words +. !alloc;
    Array.iteri
      (fun i o ->
        match o with
        | Some o ->
            sim := !sim +. o.sim_ns;
            quality := !quality +. log (float_of_int o.length /. float_of_int lbs.(b).(i))
        | None -> ())
      outs;
    check b outs
  in
  while
    !cycles = 0
    || (now () -. start) *. float_of_int (!cycles + 1) /. float_of_int !cycles <= seconds
  do
    for b = 0 to batches - 1 do
      measure b
    done;
    incr cycles
  done;
  let wall = now () -. start in
  let items = float_of_int !items in
  (* Every request of every pass is one sample. *)
  let lat = Array.of_list (List.map (fun t -> t *. 1e3) !samples) in
  Array.sort compare lat;
  let metrics =
    if not tracing then
      [
        ("latency_p50_ms", quantile lat 0.5, "ms");
        ("latency_p98_ms", quantile lat 0.98, "ms");
        ("setup_s", setup_s, "s");
        ("alloc_kw_per_item", !alloc /. items /. 1e3, "kword");
        ("heap_peak_mb", heap_words *. float_of_int (Sys.word_size / 8) /. 1e6, "MB");
        ("sim_gpu_us_per_item", !sim /. items /. 1e3, "us");
        ("length_over_lb", exp (!quality /. items), "ratio");
      ]
    else
      let layers = List.init (report + 1) Fun.id in
      let attributed = List.fold_left (fun acc l -> acc +. ledger.(l)) 0.0 layers in
      let per_pass v = float_of_int v /. float_of_int !passes in
      let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      List.map (fun l -> (layer_names.(l) ^ "_ms", ledger.(l) /. items *. 1e3, "ms")) layers
      @ [ ("unattributed_ms", (!ledger_items -. attributed) /. items *. 1e3, "ms") ]
      @ List.map
          (fun l -> (layer_names.(l) ^ "_kw", layer_words.(l) /. items /. 1e3, "kword"))
          layers
      @ [
          ("analysis_hits", per_pass st.analysis_hits, "count");
          ("analysis_misses", per_pass st.analysis_misses, "count");
          ("memo_hits", per_pass st.memo_hits, "count");
          ("pass1_runs", per_pass pass_runs.(0), "count");
          ("pass1_useful", share pass_improved.(0) pass_runs.(0), "ratio");
          ("pass2_runs", per_pass pass_runs.(1), "count");
          ("pass2_useful", share pass_improved.(1) pass_runs.(1), "ratio");
          ("gc_minor_per_item", float_of_int !minor_gcs /. items, "count");
          ("gc_major_per_pass", per_pass !major_gcs, "count");
          ("latency_samples", float_of_int (Array.length lat), "count");
          ("ant_work_per_item", float_of_int !ant_work /. items, "count");
          ("scored_candidates_per_item", float_of_int !scored_candidates /. items, "count");
          ("pruned_candidates_per_item", float_of_int !pruned_candidates /. items, "count");
        ]
  in
  let failed = !failed + st.rejected in
  Printf.eprintf "# %s seed %d: %d passes (%d batches x %d cycles) in %.2f s, %d latency samples, %d failed\n%!"
    (arg "workload") seed !passes batches !cycles wall (Array.length lat) failed;
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 !attempted) failed
    (String.concat ", " (List.map metric metrics))
