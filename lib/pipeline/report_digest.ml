(* Canonical rendering and digest of a suite report.

   The determinism contract of the compile service — cache on/off,
   [--jobs 1] vs [--jobs N] — is "byte-identical suite reports". A raw
   structural comparison is too strict for one benign reason: schedules
   embed their graph, and an analysis-cache hit aliases the graph of the
   *first* structurally-equal region seen, whose instruction names may
   differ from the requester's. Names never reach the compiler's output.
   So the contract is enforced over this canonical encoding, which spells
   out every semantically meaningful field — slots, cycles, costs, every
   pass-stats field with its per-iteration convergence series,
   degradation ledger entries, retry and fault tallies — and
   deliberately omits the identity of the graph object behind a
   schedule, and the host allocation a pass measured ([minor_words]: a
   host metric, bounded by the alloc gate, not behaviour). Two reports
   with equal encodings direct the assembler to emit the same
   instruction streams and report the same telemetry. *)

let fl b v = Buffer.add_string b (Printf.sprintf "%h" v)

let int b v = Buffer.add_string b (string_of_int v)

let str b s =
  Buffer.add_char b '"';
  Buffer.add_string b s;
  Buffer.add_char b '"'

let bool b v = Buffer.add_char b (if v then 't' else 'f')

let sep b = Buffer.add_char b ';'

let ints b a =
  Buffer.add_char b '[';
  Array.iter
    (fun v ->
      int b v;
      Buffer.add_char b ',')
    a;
  Buffer.add_char b ']'

(* One entry per cycle, '.' for a stall: the slot text every digest
   was taken over. *)
let slots b (s : Sched.Schedule.t) =
  Buffer.add_char b '<';
  Sched.Schedule.iter_cycles s (fun _ issued ->
      (match issued with None -> Buffer.add_char b '.' | Some i -> int b i);
      Buffer.add_char b ',');
  Buffer.add_char b '>';
  ints b s.Sched.Schedule.cycle_of

let rp b (r : Sched.Cost.rp) =
  int b r.Sched.Cost.aprp_vgpr;
  sep b;
  int b r.Sched.Cost.aprp_sgpr;
  sep b;
  int b r.Sched.Cost.occupancy

let cost b (c : Sched.Cost.t) =
  rp b c.Sched.Cost.rp;
  sep b;
  int b c.Sched.Cost.length

let faults b (f : Engine.Types.fault_counts) =
  int b f.Engine.Types.lane_faults;
  sep b;
  int b f.Engine.Types.wavefront_hangs;
  sep b;
  int b f.Engine.Types.reduction_drops;
  sep b;
  int b f.Engine.Types.mem_faults

(* [stop] is spelled as the three flags it replaced — lower bound, budget,
   faults — each at the old flag's position, so every digest taken before
   the flags were folded (the goldens, persisted serve memos) still
   matches. Patience vs Max_iterations needs no character: the digested
   iteration count against the configured cap tells them apart.
   [minor_words] keeps its position as 0.0, the value the goldens always
   hashed there. *)
let pass b (p : Engine.Types.pass_stats) =
  bool b p.Engine.Types.invoked;
  int b p.Engine.Types.iterations;
  int b p.Engine.Types.ants_simulated;
  int b p.Engine.Types.work;
  fl b p.Engine.Types.time_ns;
  bool b p.Engine.Types.improved;
  bool b (p.Engine.Types.stop = Engine.Types.Lower_bound);
  int b p.Engine.Types.serialized_ops;
  int b p.Engine.Types.single_path_ops;
  int b p.Engine.Types.lockstep_steps;
  int b p.Engine.Types.ant_steps;
  int b p.Engine.Types.selections;
  ints b p.Engine.Types.best_costs;
  fl b 0.0;
  int b p.Engine.Types.retries;
  bool b (p.Engine.Types.stop = Engine.Types.Budget);
  bool b (p.Engine.Types.stop = Engine.Types.Faults);
  int b p.Engine.Types.scored_candidates;
  int b p.Engine.Types.pruned_candidates;
  faults b p.Engine.Types.fault_counts

let degradation b (d : Robust.degradation) = str b (Robust.degradation_label d)

(* The capabilities keep the five characters of the five flags they
   once were, as [stop] does: the retired fault and trace flags always
   equalled [time_model] on every backend, and no backend prunes any
   more, so digests taken before they went still match. *)
let run b (r : Compile.backend_run) =
  let time_model = r.Compile.caps.Engine.Types.time_model in
  str b r.Compile.backend;
  bool b r.Compile.caps.Engine.Types.rp_pass;
  bool b time_model;
  bool b time_model;
  bool b time_model;
  bool b false;
  let res = r.Compile.result in
  slots b res.Engine.Types.schedule;
  cost b res.Engine.Types.cost;
  slots b res.Engine.Types.heuristic_schedule;
  cost b res.Engine.Types.heuristic_cost;
  rp b res.Engine.Types.rp_target;
  slots b res.Engine.Types.pass2_initial;
  pass b res.Engine.Types.pass1;
  pass b res.Engine.Types.pass2;
  fl b r.Compile.run_pass1_time_ns;
  fl b r.Compile.run_pass2_time_ns;
  degradation b r.Compile.run_degradation;
  int b r.Compile.run_retries;
  faults b r.Compile.run_fault_counts

let region b (r : Compile.region_report) =
  str b r.Compile.region_name;
  int b r.Compile.n;
  int b r.Compile.size_category;
  int b r.Compile.length_lb;
  cost b r.Compile.heuristic_cost;
  ints b r.Compile.heuristic_order;
  cost b r.Compile.cp_cost;
  bool b r.Compile.pass1_invoked;
  bool b r.Compile.pass2_invoked;
  int b r.Compile.pass2_gap;
  cost b r.Compile.aco_cost;
  ints b r.Compile.aco_order;
  cost b r.Compile.pass1_only_cost;
  ints b r.Compile.pass1_only_order;
  str b r.Compile.product_backend;
  Buffer.add_char b '{';
  List.iter
    (fun x ->
      run b x;
      sep b)
    r.Compile.runs;
  Buffer.add_char b '}';
  degradation b r.Compile.degradation;
  int b r.Compile.retries;
  faults b r.Compile.fault_counts

let kernel b (k : Compile.kernel_report) =
  str b k.Compile.kernel.Workload.Suite.kernel_name;
  int b k.Compile.kernel.Workload.Suite.hot_index;
  Buffer.add_char b '(';
  List.iter
    (fun r ->
      region b r;
      Buffer.add_char b '\n')
    k.Compile.regions;
  Buffer.add_char b ')'

let render (report : Compile.suite_report) =
  let b = Buffer.create 65536 in
  List.iter
    (fun k ->
      kernel b k;
      Buffer.add_char b '\n')
    report.Compile.kernels;
  Buffer.contents b

let digest report = Digest.to_hex (Digest.string (render report))

let render_region (r : Compile.region_report) =
  let b = Buffer.create 4096 in
  region b r;
  Buffer.contents b

let digest_region r = Digest.to_hex (Digest.string (render_region r))
